"""In-memory span recorder for the traced benchmark run.

The traced server wraps the program's layer entry points *where the program
calls them*: a function imported by name into another module (``from
repro.tda.laplacian import combinatorial_laplacian``) is replaced at every
``repro.*`` binding that holds it, not only in its defining module, and a
method is replaced on the class of its MRO that defines it.  Each call
records one span ``(id, parent, name, start, end)``; the parent is the
innermost open span on the same thread, so the spans of one request form a
tree rooted at ``QTDAServer.handle_post``.

Spans stay in memory and are written out once, when the run ends.  An entry
point the program no longer has is skipped, so its metric reads 0 calls
instead of breaking the instrument when the code is refactored.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

#: Attribute set on every wrapper, so an entry point is never wrapped twice.
_MARK = "__perfbench_span__"


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a span opened with no other span open on its thread
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Per-thread span stacks feeding one shared in-memory span list."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def clear(self) -> None:
        """Drop recorded spans; call only while no traced call is running."""
        self.spans = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(span_id, parent, name, start, end))

        setattr(traced, _MARK, name)
        return traced


def _patch_method(tracer: Tracer, owner: type, attr: str, name: str) -> bool:
    """Wrap ``owner.attr`` on the class of ``owner``'s MRO that defines it."""
    for klass in owner.__mro__:
        if attr in vars(klass):
            raw = vars(klass)[attr]
            break
    else:
        return False
    if isinstance(raw, (classmethod, staticmethod)):
        if hasattr(raw.__func__, _MARK):
            return True
        setattr(klass, attr, type(raw)(tracer.wrap(raw.__func__, name)))
    elif callable(raw):
        if hasattr(raw, _MARK):
            return True
        setattr(klass, attr, tracer.wrap(raw, name))
    else:
        return False
    return True


def _patch_function(tracer: Tracer, func: Callable, name: str) -> bool:
    """Replace ``func`` at every ``repro.*`` module binding that holds it."""
    if hasattr(func, _MARK):
        return True
    wrapper = tracer.wrap(func, name)
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                setattr(module, attr, wrapper)
    return True


def install(tracer: Tracer, targets: Mapping[str, Sequence[str]]) -> List[str]:
    """Wrap every ``"module:qualname"`` target, recording spans under its key.

    Returns the targets that were not found.  Targets are imported first so
    every module that may bind them is loaded before bindings are searched.
    """
    resolved: List[Tuple[str, str, object, str]] = []
    missing: List[str] = []
    for span_name, specs in targets.items():
        for spec in specs:
            module_name, _, qualname = spec.partition(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(spec)
                continue
            owner: object = module
            parts = qualname.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
                if owner is None:
                    break
            if owner is None:
                missing.append(spec)
                continue
            resolved.append((span_name, spec, owner, parts[-1]))
    for span_name, spec, owner, attr in resolved:
        if isinstance(owner, type):
            ok = _patch_method(tracer, owner, attr, span_name)
        else:
            func = getattr(owner, attr, None)
            ok = callable(func) and _patch_function(tracer, func, span_name)
        if not ok:
            missing.append(spec)
    return missing


# ---------------------------------------------------------------------------
# Span arithmetic (runs in the benchmark client on the dumped spans)
# ---------------------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of each span: its duration minus that of its direct children.

    Children nest inside their parent on one thread, so the direct children's
    intervals are disjoint and their durations sum to the covered part.
    """
    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


def totals_by_name(spans: Iterable[Span]) -> Dict[str, Tuple[int, float, float]]:
    """``{name: (calls, self seconds, outermost inclusive seconds)}``.

    The inclusive total counts only spans with no ancestor of the same name,
    so a recursive entry point is not counted twice.
    """
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    selfs = self_times(spans)
    out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        row = out[span.name]
        row[0] += 1
        row[1] += selfs[span.id]
        ancestor = by_id.get(span.parent)
        while ancestor is not None and ancestor.name != span.name:
            ancestor = by_id.get(ancestor.parent)
        if ancestor is None:
            row[2] += span.duration
    return {name: (int(c), s, i) for name, (c, s, i) in out.items()}
