"""Bench-side tracing: spans around the layers' public callables.

The benchmark measures each layer *from outside*.  :class:`Trace`
wraps public callables — methods by class-attribute patch (which also
works where ``__slots__`` forbids instance patching, and reaches the
objects ``run_storm`` builds internally), imported functions by
patching the name in the importing module — inside one context
manager, and restores every original on exit.  Nothing in ``src/repro``
is edited and nothing stays patched after the traced window.

A span is ``[name, start, end, parent, request, error]``: ``parent``
is the index of the span that was open when this one started (``-1``
for a root), ``request`` the benchmark's request id at that moment.
The stack is a plain list because the whole stack runs on one thread
and cooperative tasks only ever suspend *between* traced calls.

Self time is duration minus the part covered by child spans, so the
self times of one tree sum to its root's duration;
:meth:`Trace.summary` reports the residual and the caller asserts it
stays within 2%.
"""

from __future__ import annotations

import inspect
import json
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

__all__ = ["Target", "Trace", "NullTrace", "SpanStats", "TraceSummary"]

NAME, START, END, PARENT, REQUEST, ERROR = range(6)


@dataclass(frozen=True)
class Target:
    """One public callable to wrap.

    ``owner`` is a class or a module, ``attr`` the public name on it.
    ``kind`` is ``"call"`` (time the call), ``"stream"`` (the call
    returns an iterator: time the call as ``<span>.open``, the first
    pull as ``<span>.first`` and later pulls as ``<span>.next``) or
    ``"steps"`` (the call returns a generator driven by ``next`` /
    ``close``: time every resumption as ``<span>``).
    """

    owner: Any
    attr: str
    span: str
    kind: str = "call"


class _TracedIterator:
    """Times each pull of a wrapped iterator or generator."""

    __slots__ = ("_inner", "_trace", "_first", "_next")

    def __init__(
        self, inner: Any, trace: "Trace", first: str, later: str
    ) -> None:
        self._inner = inner
        self._trace = trace
        self._first = first
        self._next = later

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self) -> Any:
        name = self._first
        self._first = self._next
        record = self._trace._open(name)
        try:
            return next(self._inner)
        except StopIteration:
            raise  # exhaustion is an outcome, not an error
        except BaseException:
            record[ERROR] = True
            raise
        finally:
            self._trace._close(record)

    def close(self) -> None:
        record = self._trace._open(self._next)
        try:
            self._inner.close()
        finally:
            self._trace._close(record)


@dataclass
class SpanStats:
    """Aggregate of one span name."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    durations: "list[float]" = field(default_factory=list)


@dataclass
class TraceSummary:
    by_name: "dict[str, SpanStats]"
    root_s: float
    self_sum_s: float
    nested_s: "dict[tuple[str, str], float]"  # (child, direct parent) totals

    @property
    def residual(self) -> float:
        """|sum of self times − sum of roots| over the roots."""
        if self.root_s == 0.0:
            return 0.0
        return abs(self.self_sum_s - self.root_s) / self.root_s

    def stats(self, name: str) -> SpanStats:
        return self.by_name.get(name) or SpanStats()

    def layer_shares(self) -> "dict[str, float]":
        """Self-time share per layer (span name up to its last dot):
        the ceiling on what a faster layer can save on this workload."""
        shares: "dict[str, float]" = {}
        for name, stats in self.by_name.items():
            layer = name.rsplit(".", 1)[0]
            shares[layer] = shares.get(layer, 0.0) + stats.self_s
        total = self.root_s or 1.0
        return {
            layer: value / total for layer, value in sorted(shares.items())
        }


class Trace:
    """In-memory span recorder plus the patching context manager."""

    enabled = True

    def __init__(self) -> None:
        self.spans: "list[list[Any]]" = []
        self.request = 0
        self.round_ends: "list[int]" = []  # span count after each traced round
        self._stack: "list[int]" = []

    # -- recording -----------------------------------------------------------------

    def _open(self, name: str) -> "list[Any]":
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                  self.request, False]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        return record

    def _close(self, record: "list[Any]") -> None:
        record[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> "Iterator[None]":
        """A span around code the benchmark itself calls."""
        record = self._open(name)
        try:
            yield
        except BaseException:
            record[ERROR] = True
            raise
        finally:
            self._close(record)

    def root(
        self, function: Callable, name: str = "bench.request"
    ) -> Callable:
        """Wrap the benchmark's own per-request call: each invocation
        opens a new request id and a root span."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            self.request += 1
            record = self._open(name)
            try:
                return function(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, target: Target, original: Callable) -> Callable:
        name = target.span
        open_span, close_span = self._open, self._close
        if target.kind == "call":

            def traced(*args: Any, **kwargs: Any) -> Any:
                record = open_span(name)
                try:
                    return original(*args, **kwargs)
                except BaseException:
                    record[ERROR] = True
                    raise
                finally:
                    close_span(record)

        elif target.kind == "stream":

            def traced(*args: Any, **kwargs: Any) -> Any:
                record = open_span(name + ".open")
                try:
                    inner = original(*args, **kwargs)
                finally:
                    close_span(record)
                return _TracedIterator(
                    inner, self, name + ".first", name + ".next"
                )

        elif target.kind == "steps":

            def traced(*args: Any, **kwargs: Any) -> Any:
                return _TracedIterator(
                    original(*args, **kwargs), self, name, name
                )

        else:
            raise ValueError(f"unknown target kind {target.kind!r}")
        traced.__name__ = getattr(original, "__name__", target.attr)
        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def patched(self, targets: "list[Target]") -> "Iterator[None]":
        """Wrap every target that still exists; restore all on exit.

        A target whose owner no longer has the attribute is skipped, so
        a refactor that deletes a public name zeroes that layer's
        metrics instead of breaking the benchmark.
        """
        undo: "list[tuple[Any, str, Any]]" = []
        try:
            for target in targets:
                try:
                    raw = inspect.getattr_static(target.owner, target.attr)
                except AttributeError:
                    continue
                if isinstance(raw, staticmethod):
                    wrapped: Any = staticmethod(
                        self._wrap(target, raw.__func__)
                    )
                elif isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(target, raw.__func__))
                else:
                    wrapped = self._wrap(target, raw)
                undo.append((target.owner, target.attr, raw))
                setattr(target.owner, target.attr, wrapped)
            yield
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    # -- reading -------------------------------------------------------------------

    def summary(
        self,
        speeds: "list[float]",
        *,
        keep_durations: "tuple[str, ...]" = (),
        nested: "tuple[tuple[str, str], ...]" = (),
    ) -> TraceSummary:
        """Aggregate per span name.  ``speeds[k]`` is the speed index of
        traced round ``k``; every duration of that round is divided by
        it, so the figures are in the same scaled seconds as the
        end-to-end metrics."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for record in spans:
            parent = record[PARENT]
            if parent >= 0:
                covered[parent] += record[END] - record[START]
        scale = [1.0] * len(spans)
        start = 0
        for end, speed in zip(self.round_ends, speeds):
            scale[start:end] = [1.0 / speed] * (end - start)
            start = end
        by_name: "dict[str, SpanStats]" = {}
        nested_s = dict.fromkeys(nested, 0.0)
        root_s = 0.0
        self_sum = 0.0
        for index, record in enumerate(spans):
            duration = (record[END] - record[START]) * scale[index]
            own = duration - covered[index] * scale[index]
            stats = by_name.get(record[NAME])
            if stats is None:
                stats = by_name[record[NAME]] = SpanStats()
            stats.count += 1
            stats.total_s += duration
            stats.self_s += own
            stats.errors += record[ERROR]
            if record[NAME] in keep_durations:
                stats.durations.append(duration)
            self_sum += own
            if record[PARENT] < 0:
                root_s += duration
            elif nested:
                pair = (record[NAME], spans[record[PARENT]][NAME])
                if pair in nested_s:
                    nested_s[pair] += duration
        return TraceSummary(
            by_name=by_name, root_s=root_s, self_sum_s=self_sum,
            nested_s=nested_s,
        )

    def counts_in_round(self, index: int) -> "dict[str, int]":
        """Span count per name within one traced round."""
        start = self.round_ends[index - 1] if index else 0
        counts: "dict[str, int]" = {}
        for record in self.spans[start: self.round_ends[index]]:
            counts[record[NAME]] = counts.get(record[NAME], 0) + 1
        return counts

    def write_jsonl(self, path: Path) -> int:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index,
                    "name": record[NAME],
                    "start": record[START],
                    "end": record[END],
                    "parent": record[PARENT],
                    "request": record[REQUEST],
                    "error": record[ERROR],
                }))
                handle.write("\n")
        return len(self.spans)


class NullTrace:
    """The untraced runs' stand-in: roots are the bare callables and
    ``span`` is a no-op context."""

    enabled = False

    @staticmethod
    def root(function: Callable, name: str = "") -> Callable:
        return function

    @staticmethod
    def span(name: str) -> Any:
        return nullcontext()
