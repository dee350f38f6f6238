"""CFG construction: exception edges, finally duplication, loop exits."""

import ast

from repro.analysis.cfg import (
    ENTRY,
    EXC,
    EXIT,
    LOOP_EXIT,
    NORMAL,
    RAISE,
    build_cfg,
    statement_may_raise,
)


def cfg_of(source):
    tree = ast.parse(source)
    func = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    return build_cfg(func)


def statement_nodes(cfg, line):
    """The statement nodes anchored at ``line``, by id."""
    return [
        node
        for node in cfg.values()
        if getattr(node.stmt, "lineno", None) == line
    ]


def stmt_node(cfg, line):
    """The first statement node anchored at ``line``."""
    found = statement_nodes(cfg, line)
    assert found, f"no statement node at line {line}"
    return found[0]


def all_edges(cfg):
    return {
        (node.node_id, target, kind)
        for node in cfg.values()
        for (target, kind) in node.succ
    }


def predecessors(cfg, node_id):
    return [
        (source, kind)
        for source, target, kind in all_edges(cfg)
        if target == node_id
    ]


class TestStatementMayRaise:
    def test_raise_and_assert_may_raise(self):
        assert statement_may_raise(ast.parse("raise ValueError()").body[0])
        assert statement_may_raise(ast.parse("assert x").body[0])

    def test_plain_assignment_cannot(self):
        assert not statement_may_raise(ast.parse("x = y + 1").body[0])

    def test_ordinary_call_may_raise(self):
        assert statement_may_raise(ast.parse("server.admit(spec)").body[0])

    def test_teardown_markers_are_total(self):
        for snippet in (
            "server.release(r)",
            "committer.rollback(streams, flows)",
            "pool.teardown()",
        ):
            assert not statement_may_raise(ast.parse(snippet).body[0])


class TestLinearFlow:
    def test_straight_line_reaches_exit_without_exception_edges(self):
        cfg = cfg_of("def f(x):\n    y = x + 1\n    return y\n")
        edges = all_edges(cfg)
        assert all(kind == NORMAL for (_s, _t, kind) in edges)
        assert not predecessors(cfg, RAISE)
        assert predecessors(cfg, EXIT)

    def test_unprotected_call_links_to_raise(self):
        cfg = cfg_of("def f(s):\n    s.ping()\n")
        node = stmt_node(cfg, 2)
        assert (RAISE, EXC) in node.succ

    def test_release_call_gets_no_exception_edge(self):
        cfg = cfg_of("def f(s, r):\n    s.release(r)\n")
        node = stmt_node(cfg, 2)
        assert all(kind == NORMAL for (_t, kind) in node.succ)


class TestTryExcept:
    SOURCE = (
        "def f(s):\n"
        "    try:\n"
        "        s.ping()\n"
        "    except ValueError:\n"
        "        s.log()\n"
    )

    def test_body_exceptions_route_to_the_handler_not_raise(self):
        cfg = cfg_of(self.SOURCE)
        body = stmt_node(cfg, 3)
        exc_targets = [t for (t, kind) in body.succ if kind == EXC]
        assert exc_targets
        assert RAISE not in exc_targets

    def test_handler_body_can_still_unwind(self):
        cfg = cfg_of(self.SOURCE)
        handler_stmt = stmt_node(cfg, 5)
        assert (RAISE, EXC) in handler_stmt.succ


class TestTryFinally:
    SOURCE = (
        "def f(s):\n"
        "    try:\n"
        "        s.ping()\n"
        "    finally:\n"
        "        s.release_all()\n"
    )

    def test_finally_suite_is_duplicated(self):
        cfg = cfg_of(self.SOURCE)
        copies = statement_nodes(cfg, 5)
        assert len(copies) == 2

    def test_exceptional_copy_resumes_the_raise_with_normal_kind(self):
        # The exceptional-finally tail links onward with NORMAL kind:
        # the suite *completed* before the exception resumes, so its
        # effects (the release) must reach the RAISE state.
        cfg = cfg_of(self.SOURCE)
        copies = statement_nodes(cfg, 5)
        assert any((RAISE, NORMAL) in n.succ for n in copies)

    def test_normal_copy_reaches_exit(self):
        cfg = cfg_of(self.SOURCE)
        copies = statement_nodes(cfg, 5)
        assert any(
            (EXIT, NORMAL) in n.succ or any(k == NORMAL for (_t, k) in n.succ)
            for n in copies
        )


class TestLoops:
    def test_for_head_exits_with_loop_exit_kind(self):
        cfg = cfg_of(
            "def f(items, s):\n"
            "    for item in items:\n"
            "        s.ping(item)\n"
            "    return None\n"
        )
        kinds = {kind for (_s, _t, kind) in all_edges(cfg)}
        assert LOOP_EXIT in kinds
        head = stmt_node(cfg, 2)
        assert any(kind == LOOP_EXIT for (_t, kind) in head.succ)

    def test_while_exit_stays_normal(self):
        cfg = cfg_of(
            "def f(s):\n"
            "    while s.more():\n"
            "        s.ping()\n"
            "    return None\n"
        )
        kinds = {kind for (_s, _t, kind) in all_edges(cfg)}
        assert LOOP_EXIT not in kinds

    def test_entry_is_wired(self):
        cfg = cfg_of("def f():\n    return 1\n")
        assert cfg[ENTRY].succ
