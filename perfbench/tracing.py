"""Spans around the program's public functions, recorded from outside the program.

The tracer replaces a module attribute (say ``extension_op.solve_interior``)
with a wrapper that records one span per call.  It reaches every call because
the program calls these functions through module attributes at call time.
Spans stay in memory; ``write_spans`` saves them when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

from fracpme import cli, extension_op, harness, marcher, oracles


class Tracer:
    """Records (name, start, end, parent, pass_id) for every wrapped call.

    ``parent`` is the index of the enclosing span, or -1 for a top-level
    span.  ``end`` leaves out the calibration time ``paused()`` reports
    within the span.  Hooks record exact counts at the same boundary; they
    receive the call's bound arguments and its result.
    """

    def __init__(self, targets, paused):
        # targets: (module, attribute, span name, hook or None)
        self.targets = list(targets)
        self.paused = paused
        self.spans: list = []
        self.counts = defaultdict(lambda: defaultdict(int))   # pass_id -> key -> int
        self.keys = defaultdict(lambda: defaultdict(set))     # pass_id -> key -> distinct set
        self.pass_id = -1
        self._stack: list[int] = []
        self._saved: list = []

    def install(self, pass_id: int) -> None:
        self.pass_id = pass_id
        for module, attr, name, hook in self.targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, hook):
        spans, stack, clock, paused = self.spans, self._stack, time.perf_counter, self.paused
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            paused_before = paused()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock() - (paused() - paused_before)
                stack.pop()
                spans[idx] = (name, start, end, parent, self.pass_id)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return wrapper

    def add(self, key: str, value: int) -> None:
        self.counts[self.pass_id][key] += value

    def remember(self, key: str, item) -> None:
        self.keys[self.pass_id][key].add(item)

    def layer_table(self, pass_id: int, scale: float = 1.0) -> dict:
        """name -> {calls, s, self_s, durations} over the spans of one pass,
        durations multiplied by scale."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[4] == pass_id and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        table: dict = {}
        for idx, (name, start, end, _parent, pid) in enumerate(self.spans):
            if pid != pass_id:
                continue
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
            dur = end - start
            row["calls"] += 1
            row["s"] += scale * dur
            row["self_s"] += scale * (dur - child_time.get(idx, 0.0))
            row["durations"].append(scale * dur)
        return table

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("index,name,start_s,end_s,parent,pass\n")
            for idx, (name, start, end, parent, pid) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start:.9f},{end:.9f},{parent},{pid}\n")


def _assemble_hook(tracer, args, op):
    grid = args["grid"]
    tracer.add("extension_op.assemble.nnz", int(op.A.nnz))
    tracer.remember("extension_op.assemble.distinct",
                    (grid.X, grid.Y, grid.I, grid.K, float(args["sigma"]), args["c"], args["d"]))


def _bytes_hook(key):
    def hook(tracer, args, _result):
        tracer.add(key, os.path.getsize(args["path"]))
    return hook


def program_targets():
    """Exactly the public functions whose layers the benchmark reports."""
    return [
        (extension_op, "assemble", "extension_op.assemble", _assemble_hook),
        (extension_op, "solve_interior", "extension_op.solve_interior", None),
        (extension_op, "full_grid_values", "extension_op.full_grid_values", None),
        (extension_op, "discrete_max_location", "extension_op.discrete_max_location", None),
        (marcher, "boundary_update", "marcher.boundary_update", None),
        (marcher, "step", "marcher.step", None),
        (marcher, "march", "marcher.march", None),
        (marcher, "write_trace_csv", "marcher.write_trace_csv",
         _bytes_hook("marcher.write_trace_csv.bytes")),
        (marcher, "write_snapshot_csv", "marcher.write_snapshot_csv",
         _bytes_hook("marcher.write_snapshot_csv.bytes")),
        (oracles, "fractional_heat_solution", "oracles.fractional_heat_solution", None),
        (harness, "run_convergence", "harness.run_convergence", None),
        (cli, "main", "cli.main", None),
    ]
