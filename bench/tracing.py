"""Spans around the calls into each ``pme`` module, recorded from outside.

``Tracer.install`` replaces every binding of a declared public function or
method with a wrapper that records a span: name, start, end, parent span
and, for some spans, a count of work done.  A function imported into
another module (``solver.shifted_subsolution``, ``blowup.solve_ball``) is
wrapped there too, because that is the binding its caller resolves.  Spans
stay in memory; ``summarize`` turns them into per-span calls, total time,
self time (duration minus the time its child spans cover) and work.

A declared target that no longer exists raises ``LookupError``, so a
rename that drops a layer fails the benchmark instead of reporting the
layer as idle.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter

MODULES = ("cli", "config", "geometry", "grid", "xlog", "barriers", "solver", "blowup")


def _grid_cells(args, kwargs):
    grid = kwargs["grid"] if "grid" in kwargs else args[3]
    return grid.cells


def _file_bytes(args, kwargs, result):
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[0])


def _trajectory_bytes(args, kwargs, result):
    return sum(f.nbytes for f in result.fields)


# (span name, module, attribute path, work before the call, work after it)
SPANS = (
    ("cli.main", "cli", "main", None, None),
    ("cli.write_csv", "cli", "write_csv", None, _file_bytes),
    ("cli.write_json", "cli", "write_json", None, _file_bytes),
    ("config.parse_config", "config", "parse_config", None, None),
    ("geometry.fit_comparison_constants", "geometry", "fit_comparison_constants", None, None),
    ("grid.RadialGrid.uniform", "grid", "RadialGrid.uniform", None, None),
    ("xlog.log_norm", "xlog", "log_norm", None, None),
    ("xlog.limsup_ratio", "xlog", "limsup_ratio", None, None),
    ("barriers.shifted_subsolution", "barriers", "shifted_subsolution", None, None),
    ("solver.step", "solver", "step", _grid_cells, None),
    ("solver.Trajectory.record", "solver", "Trajectory.record", None, None),
    ("solver.solve_ball", "solver", "solve_ball", None, _trajectory_bytes),
    ("solver.barrier_excess", "solver", "barrier_excess", None, None),
    ("solver.existence_time", "solver", "existence_time", None, None),
    ("blowup.run_blowup", "blowup", "run_blowup", None, None),
    ("blowup.stage_delta", "blowup", "stage_delta", None, None),
    ("blowup.BlowupLedger.validate", "blowup", "BlowupLedger.validate", None, None),
)

ROOT_SPAN = "bench.run"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, work]
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = 0 if before is None else before(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, work]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                span[4] = after(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every binding of every declared span; undo with ``uninstall``."""
        targets = []
        for name, module, path, before, after in SPANS:
            owner = importlib.import_module(f"pme.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                raise LookupError(f"span {name}: pme.{module}.{path} not found")
            targets.append((name, owner, attr, bool(outer), before, after))
        modules = [importlib.import_module(m) for m in ("pme", *(f"pme.{m}" for m in MODULES))]
        for name, owner, attr, is_method, before, after in targets:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self.wrap(name, raw.__func__, before, after)))
            elif is_method:
                self._patch(owner, attr, self.wrap(name, raw, before, after))
            else:
                wrapped = self.wrap(name, raw, before, after)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, key, wrapped)

    def _patch(self, owner, key, value):
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def run(self, fn, *args):
        """Call ``fn`` under a root span, so that every span has a parent."""
        return self.wrap(ROOT_SPAN, fn)(*args)


def summarize(spans) -> dict:
    """Per span name: calls, total_s, self_s and work, summed over spans."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, work in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out = {}
    for (name, start, end, parent, work), covered in zip(spans, child_s):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - covered
        agg["work"] += work
    return out
