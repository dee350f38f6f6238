"""A run spec holds what a caller sets.

Every defaulted field of the run specs is passed by keyword (to the
constructor or to ``replace``) somewhere outside the module that
defines it: a CLI flag, a benchmark, an example or a test.  A field
nobody sets is one value in use, and belongs beside the runner that
reads it as a named constant; this test fails where one appears.
"""

import ast
import dataclasses
import pathlib

from repro.sim import (
    ChaosSpec,
    CrashRecoverySpec,
    LoadSpec,
    RunConfig,
    ScenarioSpec,
    SloRunSpec,
    StormSpec,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPECS = (
    StormSpec, ChaosSpec, LoadSpec, CrashRecoverySpec, SloRunSpec,
    RunConfig, ScenarioSpec,
)


def defining_module(spec) -> pathlib.Path:
    return (ROOT / "src").joinpath(*spec.__module__.split(".")).with_suffix(
        ".py"
    )


def called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None
    )


def keywords_passed():
    """``{callee name: {keyword, ...}}`` per source file."""
    passed = {}
    for top in ("src", "benchmarks", "examples", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            by_callee = passed.setdefault(path, {})
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    by_callee.setdefault(called_name(node), set()).update(
                        keyword.arg for keyword in node.keywords
                    )
    return passed


def test_every_defaulted_spec_field_is_set_by_some_caller():
    passed = keywords_passed()
    unset = []
    for spec in SPECS:
        home = defining_module(spec)
        assert home.is_file(), home
        seen = set()
        for path, by_callee in passed.items():
            if path != home:
                seen |= by_callee.get(spec.__name__, set())
                seen |= by_callee.get("replace", set())
        unset += [
            f"{spec.__name__}.{field.name}"
            for field in dataclasses.fields(spec)
            if field.init
            and (
                field.default is not dataclasses.MISSING
                or field.default_factory is not dataclasses.MISSING
            )
            and field.name not in seen
        ]
    assert unset == []


def test_the_six_run_specs_expose_at_most_58_constructor_fields():
    assert sum(
        field.init
        for spec in SPECS
        if spec is not SloRunSpec
        for field in dataclasses.fields(spec)
    ) <= 58
