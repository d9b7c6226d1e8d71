"""Call-boundary instrumentation of the `showdown` package, from outside it.

Two recorders, each installed into a fresh pass process and never removed:

* `Timers` times every call of a few coarse public functions (no spans, a
  perf_counter pair per call), for the per-op latency metrics.
* `Tracer` records a span around every public function of every module (the
  names in `__all__`, plus the public functions of `cli`) and every method of
  the two function algebras, and counts residual/integrand evaluations handed
  to the numerical kernels.  Spans stay in memory until the pass ends.

Names are imported by value across the package (`from .numerics import
solve_root`), so a wrapper has to replace every module binding of the
original object, not just the defining one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("numerics", "score", "stopping", "sequential", "simultaneous", "simulator", "cli")

# Coarse functions whose calls `Timers` records: (module, name) -> None, or
# (position of the argument holding thresholds, players not listed in it),
# which gives the player count n of a call.
TIMED = {
    ("sequential", "win_matrix"): None,
    ("sequential", "coalition_12"): None,
    ("sequential", "coalition_13"): None,
    ("simultaneous", "epsilon_delta"): None,
    ("simultaneous", "win_probabilities"): (0, 0),
    ("simultaneous", "best_response"): (2, 1),
}

# Kernels whose residual or integrand arguments are wrapped to count their
# evaluations: qualified name -> positions of those arguments.
EVAL_ARGS = {
    "numerics.solve_root": (0,),
    "numerics.solve_root_2d": (0, 1),
    "numerics.integrate_adaptive": (0,),
}

ALGEBRAS = ("ExpPoly", "PiecewisePoly")

# Called hundreds of thousands of times per pass for microseconds each, so a
# span apiece would cost more than the work: these are counted, not spanned,
# and their time lands in the calling span.
COUNT_ONLY = {"score.bust_prob", "numerics.PiecewisePoly.__init__"}


def _package():
    pkg = importlib.import_module("showdown")
    mods = {name: importlib.import_module(f"showdown.{name}") for name in MODULES}
    return pkg, mods


def _public_functions(mods) -> dict[str, object]:
    """Qualified name -> original callable for every public function."""
    out = {}
    for mname, mod in mods.items():
        names = getattr(mod, "__all__", None)
        if names is None:  # cli: every public function defined there
            names = [
                n for n, v in vars(mod).items()
                if not n.startswith("_") and inspect.isfunction(v) and v.__module__ == mod.__name__
            ]
        for name in names:
            obj = getattr(mod, name)
            # functions, and the lru_cache wrappers around them
            if inspect.isfunction(obj) or hasattr(obj, "__wrapped__"):
                out[f"{mname}.{name}"] = obj
    return out


def _rebind(pkg, mods, replacements: dict[int, object]) -> None:
    """Point every module binding of an original object at its wrapper."""
    for mod in (pkg, *mods.values()):
        for attr, value in list(vars(mod).items()):
            new = replacements.get(id(value))
            if new is not None:
                setattr(mod, attr, new)


class Timers:
    """Per-call durations of the functions in TIMED: name -> [(seconds, n)]."""

    def __init__(self) -> None:
        self.calls: dict[str, list[tuple[float, int | None]]] = defaultdict(list)

    def install(self) -> None:
        pkg, mods = _package()
        replacements = {}
        for (mname, name), size in TIMED.items():
            fn = getattr(mods[mname], name)
            replacements[id(fn)] = self._wrap(f"{mname}.{name}", fn, size)
        _rebind(pkg, mods, replacements)

    def _wrap(self, qual, fn, size):
        record = self.calls[qual].append
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                n = len(args[size[0]]) + size[1] if size and len(args) > size[0] else None
                record((dt, n))

        return timed

    def summary(self) -> dict:
        return dict(self.calls)


class Tracer:
    """Spans (name, start, end, parent span, op id) at every public boundary."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, int] = defaultdict(int)

    def install(self) -> None:
        pkg, mods = _package()
        replacements = {}
        for qual, fn in _public_functions(mods).items():
            replacements[id(fn)] = self._wrap(qual, fn)
        _rebind(pkg, mods, replacements)
        numerics = mods["numerics"]
        for cname in ALGEBRAS:
            cls = getattr(numerics, cname)
            for attr, value in list(vars(cls).items()):
                if attr.startswith("_") and not attr.startswith("__"):
                    continue
                qual = f"numerics.{cname}.{attr}"
                if isinstance(value, staticmethod):
                    setattr(cls, attr, staticmethod(self._wrap(qual, value.__func__)))
                elif isinstance(value, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(qual, value.__func__)))
                elif inspect.isfunction(value) and attr != "__repr__":
                    setattr(cls, attr, self._wrap(qual, value))

    def _wrap(self, qual, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, op_ids, stack = self.parents, self.op_ids, self.stack
        clock = time.perf_counter_ns
        counted = EVAL_ARGS.get(qual, ())
        calls_key = f"{qual}.calls"
        eval_key = f"{qual}.evals"
        counts = self.counts

        if qual in COUNT_ONLY:

            @functools.wraps(fn)
            def counted_call(*args, **kwargs):
                counts[calls_key] += 1
                return fn(*args, **kwargs)

            return counted_call

        def counting(f):
            def evaluate(*a, **k):
                counts[eval_key] += 1
                return f(*a, **k)

            return evaluate

        @functools.wraps(fn)
        def span(*args, **kwargs):
            counts[calls_key] += 1
            if counted:
                args = tuple(counting(a) if i in counted else a for i, a in enumerate(args))
            idx = len(names)
            names.append(qual)
            parents.append(stack[-1] if stack else -1)
            op_ids.append(self.op_id)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return span

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name: duration minus child spans.

        Spans nest strictly in one thread, so the children of a span cover
        disjoint parts of it and their durations simply subtract.
        """
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        totals: dict[str, float] = defaultdict(float)
        for name, ns in zip(self.names, own):
            totals[name] += ns * 1e-9
        return dict(totals)

    def summary(self) -> dict:
        return {"self_s": self.self_times(), "counts": dict(self.counts), "spans": len(self.names)}

    def write(self, path: Path) -> None:
        """All spans as JSON lines: [name, start_ns, end_ns, parent, op_id]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.op_ids):
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
