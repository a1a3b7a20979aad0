"""Spans around the package's module-level functions, installed from outside.

:class:`Tracer` rebinds each traced function, in every package module that
holds it, to a wrapper that records a span (name, start, end, parent span,
operation id, tag, error).  ``QuadExt`` arithmetic is counted, not spanned:
there are too many calls for a span each.  Everything is restored on exit,
so the untraced runs time the package as shipped.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import NamedTuple

PACKAGE = "superelliptic"
#: (module, function) pairs: the functions each module calls from another
#: module, plus dihedral's own analysis helpers, so wasted repeats show.
TRACED = (
    ("poly", "discriminant"),
    ("poly", "delta_support"),
    ("exact", "squarefree_decompose"),
    ("exact", "is_perfect_square"),
    ("exact", "rational_nth_root"),
    ("curve", "validate"),
    ("curve", "classify_normal_form"),
    ("curve", "genus"),
    ("dihedral", "compute_invariants"),
    ("dihedral", "dihedral_discriminant"),
    ("dihedral", "leading_coefficients"),
    ("dihedral", "field_of_definition"),
    ("dihedral", "reconstruct"),
    ("dihedral", "roundtrip_verify"),
    ("dihedral", "invariants_for_curve"),
    ("equations", "parse_equation"),
    ("equations", "render_equation"),
    ("cli", "main"),
)

QUADEXT_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)


def degree_bucket(args) -> str:
    d = args[0].degree
    for low, high in ((6, 12), (13, 24), (25, 32)):
        if low <= d <= high:
            return f"deg_{low}-{high}"
    return "deg_other"


#: Span tags, for spans whose cost depends on a property of the input.
TAGS = {"poly.discriminant": degree_bucket}


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 at the top
    op: int
    tag: str | None
    error: str | None


class Tracer:
    """Record spans while installed (a context manager); read them after."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.quadext_ops = 0
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, tag = self.spans, self._stack, TAGS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op, tag(args) if tag else None, error)

        return traced

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(*args):
            self.quadext_ops += 1
            return fn(*args)

        return counted

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        self.missing = []
        modules = [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, func_name in TRACED:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, wrapper)
        quadext = sys.modules[f"{PACKAGE}.exact"].QuadExt
        for op in QUADEXT_OPS:
            self._rebind(quadext, op, self._count(getattr(quadext, op)))
        return self

    def __exit__(self, *exc_info):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False


class LayerTotals:
    """Calls, self time and errors per span name, with tag breakdowns."""

    def __init__(self, spans, op_scales=None):
        """``op_scales[op]`` multiplies the times of that operation's spans."""
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.errors = defaultdict(int)
        self.tag_calls = defaultdict(int)
        self.tag_self_ns = defaultdict(int)
        child_ns = defaultdict(int)
        for span in spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.end_ns - span.start_ns
        for index, span in enumerate(spans):
            own = span.end_ns - span.start_ns - child_ns[index]
            if op_scales is not None:
                own *= op_scales[span.op]
            self.calls[span.name] += 1
            self.self_ns[span.name] += own
            if span.error:
                self.errors[(span.name, span.error)] += 1
            if span.tag:
                self.tag_calls[(span.name, span.tag)] += 1
                self.tag_self_ns[(span.name, span.tag)] += own
