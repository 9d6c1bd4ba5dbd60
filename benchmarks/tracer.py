"""Outside-in tracing of the midconv layers for the benchmark's traced run.

Nothing under src/ is edited.  `Tracer.install` replaces every public
function of the layer modules with a timing wrapper, at every name a midconv
module binds it to: `from .linalg import solve_coords` gives tuples and
convolution their own binding of the same function, so each binding is
swapped, and in-function imports pick up the wrapper from the module.
`Matrix.__matmul__` and `Matrix.inverse` are wrapped on the class.

A span's self time is its duration minus the durations of the wrapped calls
made inside it; time spent in Scalar arithmetic therefore lands in the
self time of the layer function doing the arithmetic.  Scalar methods are
only counted, because a span per scalar operation would dwarf the work.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

SPAN_MODULES = ("linalg", "tuples", "convolution", "modgroup", "k3count", "tupleio")
MATRIX_SPANS = {"__matmul__": "matmul", "inverse": "inverse"}
SCALAR_COUNTS = {"__add__": "add", "__mul__": "mul", "inverse": "inv",
                 "__eq__": "eq_hash", "__hash__": "eq_hash"}

# span name -> (sum name, amount added per call from (args, result))
SUMS = {
    "tuples.quotient_basis": ("tuples.quotient_rank", lambda args, res: len(res[1])),
    "modgroup.group_closure": ("modgroup.group_closure.elements",
                               lambda args, res: res or 0),
    "k3count.count_affine": ("k3count.points", lambda args, res: args[0] ** 2),
    "tupleio.save_tuple": ("tupleio.save_tuple.bytes",
                           lambda args, res: len(res.encode("utf-8"))),
}


class SpanStats:
    __slots__ = ("calls", "raised", "self_s", "total_s")

    def __init__(self):
        self.calls = self.raised = 0
        self.self_s = self.total_s = 0.0

    def as_dict(self) -> dict:
        return {"calls": self.calls, "raised": self.raised,
                "self_s": self.self_s, "total_s": self.total_s}


def _midconv_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "midconv" or name.startswith("midconv.")]


class Tracer:
    """Spans and counters for one traced pass; `uninstall` restores the code."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.counts = dict.fromkeys(SCALAR_COUNTS.values(), 0)
        self.sums = {name: 0 for name, _ in SUMS.values()}
        self._stack = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = _midconv_modules()
        for layer in SPAN_MODULES:
            mod = sys.modules[f"midconv.{layer}"]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._span(f"{layer}.{name}", fn)
                for other in modules:
                    for bound, value in list(vars(other).items()):
                        if value is fn:
                            self._set(other, bound, wrapper)
        matrix = sys.modules["midconv.linalg"].Matrix
        for attr, short in MATRIX_SPANS.items():
            self._set(matrix, attr, self._span(f"linalg.Matrix.{short}", vars(matrix)[attr]))
        scalar = sys.modules["midconv.scalars"].Scalar
        for attr, key in SCALAR_COUNTS.items():
            self._set(scalar, attr, self._counter(key, vars(scalar)[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def _span(self, name, fn):
        stats = self.spans.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter
        sums = self.sums
        total_name, amount = SUMS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.raised += 1
                raise
            finally:
                elapsed = clock() - start
                stats.total_s += elapsed
                stats.self_s += elapsed - stack.pop()
                stack[-1] += elapsed
                stats.calls += 1
            if total_name is not None:
                sums[total_name] += amount(args, result)
            return result
        return wrapper

    def span(self, name: str) -> SpanStats:
        return self.spans.get(name) or SpanStats()
