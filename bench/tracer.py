"""Per-layer tracing from outside the program.

`Tracer.install` replaces public `usinv` functions with timing wrappers in
every module namespace that holds them (names bound by `from .x import y`
are looked up there, not in the defining module) and on classes for methods.
Each call records a span: layer, start, end, parent span and command id, in
flat arrays kept in memory.  `fold` derives calls, inclusive time and self
time per layer from those spans; self time is a span's duration minus the
time its direct children cover, bookkeeping of the children included.
Shape and ratio counters are computed from the wrappers' view of arguments
and results, outside the timed interval, so they repeat exactly for a fixed
command list.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import defaultdict
from math import comb
from time import perf_counter


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _count_nullspace(stats, args, kwargs, result):
    m = args[0]
    stats["rows"] += m.rows
    stats["cols"] += m.cols
    stats["nnz"] += len(m.entries)
    stats["kernel_dim"] += len(result)
    bits = max((_bits(v) for v in m.entries.values()), default=0)
    for vec in result:
        bits = max(bits, max((_bits(v) for v in vec if v), default=0))
    stats["max_bits"] = max(stats["max_bits"], bits)


def _count_add(stats, args, kwargs, result):
    stats["enlarged"] += bool(result)


def _count_monomials(stats, args, kwargs, result):
    subset, d = args[0], args[3]
    stats["monomials"] += comb(subset.n * subset.n + d - 1, d)


def _count_subsets(stats, args, kwargs, result):
    stats["subsets_out"] += len(result)


def _count_converged(stats, args, kwargs, result):
    stats["converged"] += result.kind == "converges"


def _count_curves(stats, args, kwargs, result):
    stats["curves"] += len(result)


# (module, attribute path, counter) for every traced layer; the metric name
# of a layer is "<module>.<attribute path>".
LAYERS = (
    ("exact", "nullspace", _count_nullspace),
    ("exact", "RowEchelon.add", _count_add),
    ("exact", "RowEchelon.contains", None),
    ("exact", "spans_equal", None),
    ("exact", "wedge_apply", None),
    ("invars", "invariant_space", _count_monomials),
    ("invars", "apply_derivation_poly", None),
    ("invars", "generation_check", None),
    ("stab", "lie_stabilizer", None),
    ("stab", "annihilates", None),
    ("stab", "compare_uS", None),
    ("rootsys", "lie_algebra", None),
    ("rootsys", "root_subgroup_matrix", None),
    ("points", "build_point", None),
    ("points", "build_us", None),
    ("points", "minimal_alpha", None),
    ("subsets", "enumerate_closed", _count_subsets),
    ("subsets", "column_sets", None),
    ("subsets", "transitive_closure", None),
    ("subsets", "closed_subset_from_roots", None),
    ("limits", "grosshans_screen", None),
    ("limits", "cochar_limit", _count_converged),
    ("limits", "cocharacter_grid", _count_curves),
    ("cli", "build_parser", None),
    ("cli", "run", None),
)

# Counters each layer reports besides calls, s and self_s.
EXTRA = {
    "exact.nullspace": ("rows", "cols", "nnz", "kernel_dim", "max_bits"),
    "exact.RowEchelon.add": ("enlarge_ratio",),
    "invars.invariant_space": ("monomials",),
    "subsets.enumerate_closed": ("subsets_out",),
    "limits.cochar_limit": ("converged_ratio",),
    "limits.cocharacter_grid": ("curves",),
    "cli.run": ("report_bytes",),
}

UNITS = {"calls": "count", "s": "s", "self_s": "s", "max_bits": "bits",
         "enlarge_ratio": "ratio", "converged_ratio": "ratio",
         "report_bytes": "bytes"}

# ratio counter -> the counter it divides by the call count
RATIOS = {"enlarge_ratio": "enlarged", "converged_ratio": "converged"}


def layer_names() -> list:
    return [f"{mod}.{path}" for mod, path, _ in LAYERS]


def metric_specs() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in layer_names():
        for stat in ("calls", "s", "self_s") + EXTRA.get(layer, ()):
            out.append((f"{layer}.{stat}", UNITS.get(stat, "count")))
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class Tracer:
    """Span recorder for one process; install, run, uninstall, fold."""

    def __init__(self):
        self.names = layer_names()
        self._restore = []
        self.command = -1
        self.layer = array("i")
        self.parent = array("i")
        self.cmd = array("i")
        self.start = array("d")
        self.end = array("d")
        self.done = array("d")      # end plus the counter bookkeeping
        self.outer = array("b")     # no enclosing span of the same layer
        self.stats = {name: defaultdict(int) for name in self.names}
        self._stack = []
        self._active = [0] * len(self.names)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every layer where it is looked up; `uninstall` undoes it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "usinv" or name.startswith("usinv.")]
        for ix, (mod, path, counter) in enumerate(LAYERS):
            owner = importlib.import_module(f"usinv.{mod}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, attr,
                            self._wrap(ix, getattr(cls, attr), counter))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(ix, original, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)

    def _patch(self, obj, attr, value):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self):
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)

    def _wrap(self, ix, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.start)
            stack, active = tracer._stack, tracer._active
            tracer.layer.append(ix)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.cmd.append(tracer.command)
            tracer.outer.append(active[ix] == 0)
            tracer.end.append(0.0)
            tracer.done.append(0.0)
            stack.append(sid)
            active[ix] += 1
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = tracer.done[sid] = perf_counter()
                active[ix] -= 1
                stack.pop()
            if counter is not None:
                counter(tracer.stats[tracer.names[ix]], args, kwargs, result)
                tracer.done[sid] = perf_counter()
            return result

        return traced

    # -- derived numbers ---------------------------------------------------

    def fold(self) -> dict:
        """Per-layer {calls, s, self_s} from the recorded spans, plus the
        counters, as {layer: {stat: value}}."""
        n = len(self.names)
        calls, total, self_t = [0] * n, [0.0] * n, [0.0] * n
        covered = [0.0] * len(self.start)
        start, end, done, parent = self.start, self.end, self.done, self.parent
        for sid in range(len(start)):
            p = parent[sid]
            if p >= 0:
                covered[p] += done[sid] - start[sid]
        for sid in range(len(start)):
            ix = self.layer[sid]
            dur = end[sid] - start[sid]
            calls[ix] += 1
            if self.outer[sid]:
                total[ix] += dur
            self_t[ix] += dur - covered[sid]
        out = {}
        for ix, name in enumerate(self.names):
            row = {"calls": calls[ix], "s": total[ix], "self_s": self_t[ix]}
            row.update(self.stats[name])
            out[name] = row
        return out

    def write_spans(self, path, limit: int) -> int:
        """Write at most `limit` spans as JSON lines; returns the count."""
        count = min(limit, len(self.start))
        with open(path, "w", encoding="utf-8") as fh:
            for sid in range(count):
                fh.write(json.dumps({
                    "id": sid, "name": self.names[self.layer[sid]],
                    "start": self.start[sid], "end": self.end[sid],
                    "parent": self.parent[sid], "command": self.cmd[sid],
                }) + "\n")
        return count


def layer_metrics(folded: dict, report_bytes: int) -> dict:
    """Flatten folded layer numbers into per-layer metric values."""
    values = {}
    for layer, row in folded.items():
        for stat in ("calls", "s", "self_s") + EXTRA.get(layer, ()):
            if stat in RATIOS:
                calls = row["calls"]
                values[f"{layer}.{stat}"] = (row.get(RATIOS[stat], 0) / calls
                                             if calls else 0.0)
            elif stat == "report_bytes":
                values[f"{layer}.{stat}"] = report_bytes
            else:
                values[f"{layer}.{stat}"] = row.get(stat, 0)
    return values
