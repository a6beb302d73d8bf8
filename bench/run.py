"""usinv benchmark: seeded `usinv` command lists run in-process, checked
against a reference table, timed end to end or traced layer by layer.

Run from the repository root:

    python3 bench/run.py --workload stab-sweep --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --seed 1        # every workload, each in a fresh process

Each workload is a closed loop with one client: the next command is sent only
after the previous one returned.  The workload's seeded command list (see
`workloads.py`) is sent through `usinv.cli.run` with stdout captured, pass
after pass, until `--seconds` have elapsed; the first pass always completes.
Every report is checked: exit code, checked result and digest must match
`reference.json`, and a command's digest must be the same in every pass,
traced or not.  A command that raised, or that fails any check, is counted in
`failed`.

`--trace 0` reports the end-to-end metrics.  The shared host's speed drifts
by tens of percent within seconds and between minutes, more than the bounds
allow, so every time is calibrated (see `calibrate.py`): a fixed kernel is
timed every 50 ms during the commands, each command's time is divided by the
median kernel time sampled during it, and the quotient is multiplied by the
kernel's time on the reference host.  A time below is thus in seconds of the
reference host; it moves with the program's own cost as a raw time would.

- setup_s: median over SETUP_LAUNCHES fresh processes, spread evenly over the
  run, of the time to import `usinv` and run the workload's warm-up command,
  each calibrated by kernel samples taken right after in the same process;
- wall_s, cpu_s: wall and CPU time of the command list, each command at its
  median calibrated time over the passes;
- cmd_p50_ms: median over the list of those per-command times;
- items_per_s: commands of the list completed correctly per second of
  wall_s;
- peak_rss_mb: peak resident set size of the process.

The highest latency percentile with ten samples beyond it (over every
command sent, uncalibrated), the uncalibrated best-of-passes times and the
failure ratio are printed above the result line; they are not gated, the
tail needing more commands than a short list has, the raw times drifting
with the host, and the failure ratio being zero on correct code.

`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics of `tracer.py` (medians over traced passes for times, the counters of
one traced pass, which must repeat exactly) and `trace.overhead_ratio`, the
traced over the untraced wall time of the list.  Spans of the first traced
pass are written to `.bench_out/spans-<workload>.jsonl`.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import harness
import tracer as tracing
import workloads

REFERENCE = Path(__file__).resolve().parent / "reference.json"
SPAN_DIR = harness.ROOT / ".bench_out"
SPAN_LIMIT = 50_000
DEFAULT_SECONDS = 36  # run_seconds of BENCHMARK.json
SETUP_LAUNCHES = 15
PROBE_KERNELS = 15
PROBE_TIMEOUT_S = 60
WORKLOAD_TIMEOUT_S = 175

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("cmd_p50_ms", "ms"), ("items_per_s", "1/s"),
              ("peak_rss_mb", "MB"))


class Checker:
    """Checks reports against the reference table and across passes."""

    def __init__(self, reference: dict):
        self.expected = reference["commands"]
        self.mismatched = set(reference["oracle"]["mismatches"])
        self.digests = {}
        self.problems = []

    def check(self, argv, code, text, error) -> bool:
        key = " ".join(argv)
        problem = self._problem(key, argv, code, text, error)
        if problem:
            if len(self.problems) < 20:
                self.problems.append(f"{key}: {problem}")
            return False
        return True

    def _problem(self, key, argv, code, text, error):
        if error:
            return f"raised {error}"
        digest = workloads.digest(text)
        if self.digests.setdefault(key, digest) != digest:
            return "report differs between passes"
        if key in self.mismatched:
            return "reference disagrees with an oracle"
        if key not in self.expected:
            return "not in the reference table"
        want_code, want_digest, want_value = self.expected[key]
        value = workloads.outcome(argv, json.loads(text))
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        if value != want_value or not workloads.intrinsic_ok(argv, code, value):
            return f"checked result {value!r}, expected {want_value!r}"
        if digest != want_digest:
            return "report digest differs from the reference"
        return None


class Samples:
    """Latencies and outcomes of the commands of one list over a run.

    With a running `calibrate.Calibration`, each command's wall and CPU time
    is also kept in kernel units (see `calibrate.py`), its calibration
    samples' own time taken out."""

    def __init__(self, size: int):
        self.wall = [[] for _ in range(size)]
        self.wall_units = [[] for _ in range(size)]
        self.cpu_units = [[] for _ in range(size)]
        self.attempted = 0
        self.failed = 0
        self.report_bytes = 0

    def run(self, cli, argvs, k, checker, tracer=None, cal=None):
        if tracer is not None:
            tracer.command = k
        if cal is not None:
            spent, spent_cpu = cal.spent, cal.spent_cpu
            t0 = time.perf_counter()
        code, text, error, wall, cpu = harness.execute(cli, argvs[k])
        if cal is not None:
            t1 = time.perf_counter()
            wall -= cal.spent - spent
            cpu -= cal.spent_cpu - spent_cpu
            kernel_s = cal.local(t0, t1)
            self.wall_units[k].append(wall / kernel_s)
            self.cpu_units[k].append(cpu / kernel_s)
        self.wall[k].append(wall)
        self.attempted += 1
        self.failed += not checker.check(argvs[k], code, text, error)
        self.report_bytes += len(text.encode())

    def run_pass(self, cli, argvs, checker, tracer=None):
        for k in range(len(argvs)):
            self.run(cli, argvs, k, checker, tracer)

    def best_wall(self) -> list:
        return [min(w) for w in self.wall]


def tail(latencies: list) -> tuple:
    """Highest integer percentile with at least 10 samples beyond it, as
    (percentile, nearest-rank value); None with 10 samples or fewer."""
    n = len(latencies)
    if n <= 10:
        return None
    pct = 100 * (n - 10) // n
    return pct, sorted(latencies)[-(-pct * n // 100) - 1]


def probe_setup(workload: str) -> float:
    """Set-up time of one fresh process, in seconds of the reference host."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", workload],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        cwd=harness.ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed: {proc.stderr.strip()}")
    elapsed, kernel_s = map(float, proc.stdout.split()[-2:])
    return elapsed / kernel_s * calibrate.REFERENCE_KERNEL_S


def setup_probe(workload: str) -> int:
    """Time the import of `usinv` and the warm-up command, then sample the
    calibration kernel; prints both times."""
    t0 = time.perf_counter()
    cli = harness.load_usinv()
    code, _, error, _, _ = harness.execute(cli, workloads.WARMUP[workload])
    elapsed = time.perf_counter() - t0
    if error:
        sys.stderr.write(f"warm-up raised {error}\n")
        return 1
    print(f"{elapsed!r} {calibrate.probe(PROBE_KERNELS)!r}")
    return 0


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, cli, argvs, checker, seconds) -> tuple:
    """Cycle through the list until the time is up, the first pass always
    completing, with the calibration kernel sampled throughout.  Set-up
    probes are spread evenly over the run, the sampling paused meanwhile."""
    samples = Samples(len(argvs))
    cal = calibrate.Calibration()
    setup = []
    issued = 0
    t0 = time.perf_counter()
    cal.start()
    try:
        while True:
            elapsed = time.perf_counter() - t0
            if issued >= len(argvs) and elapsed >= seconds:
                break
            if (len(setup) < SETUP_LAUNCHES
                    and len(setup) * seconds <= SETUP_LAUNCHES * elapsed):
                cal.stop()
                setup.append(probe_setup(workload))
                cal.start()
                continue
            samples.run(cli, argvs, issued % len(argvs), checker, cal=cal)
            issued += 1
    finally:
        cal.stop()
    while len(setup) < SETUP_LAUNCHES:
        setup.append(probe_setup(workload))
    ref = calibrate.REFERENCE_KERNEL_S
    typical = [ref * statistics.median(u) for u in samples.wall_units]
    wall = sum(typical)
    correct_share = 1 - samples.failed / samples.attempted
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cpu_s": sum(ref * statistics.median(u) for u in samples.cpu_units),
        "cmd_p50_ms": 1000 * statistics.median(typical),
        "items_per_s": correct_share * len(argvs) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024,
    }
    latencies = [w for series in samples.wall for w in series]
    best = samples.best_wall()
    notes = [f"{issued} commands, {issued / len(argvs):.2f} passes of "
             f"{len(argvs)}",
             f"{len(cal.took)} kernel samples, median "
             f"{statistics.median(cal.took)!r} s",
             f"uncalibrated: best wall {sum(best)!r} s, "
             f"best p50 {1000 * statistics.median(best)!r} ms"]
    cut = tail(latencies)
    if cut is None:
        notes.append(f"cmd_tail_ms n/a ({len(latencies)} samples)")
    else:
        notes.append(f"cmd_tail_ms p{cut[0]} {1000 * cut[1]:.3f} ms "
                     f"uncalibrated ({len(latencies)} samples)")
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
    return [samples], metrics, notes, True


def per_layer(workload, cli, argvs, checker, seconds) -> tuple:
    """Alternate untraced and traced passes until the time is up."""
    plain, traced = Samples(len(argvs)), Samples(len(argvs))
    folds = []
    first = None
    t0 = time.perf_counter()
    while not folds or time.perf_counter() - t0 < seconds:
        plain.run_pass(cli, argvs, checker)
        tr = tracing.Tracer()
        before = traced.report_bytes
        tr.install()
        try:
            traced.run_pass(cli, argvs, checker, tr)
        finally:
            tr.uninstall()
        folds.append(tracing.layer_metrics(tr.fold(),
                                           traced.report_bytes - before))
        first = first or tr
    units = dict(tracing.metric_specs())
    counters = [{k: v for k, v in f.items() if units[k] != "s"}
                for f in folds]
    repeat = all(c == counters[0] for c in counters)
    values = dict(folds[0])
    for name in values:
        if units[name] == "s":  # a time: median over the traced passes
            values[name] = statistics.median(f[name] for f in folds)
    values["trace.overhead_ratio"] = (sum(traced.best_wall())
                                      / sum(plain.best_wall()))
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}.jsonl"
    written = first.write_spans(path, SPAN_LIMIT)
    notes = [f"{len(folds)} untraced and {len(folds)} traced passes of "
             f"{len(argvs)} commands",
             f"spans {written} of {len(first.start)} written to {path}",
             f"counters repeat exactly: {repeat}"]
    metrics = {name: metric(values[name], unit)
               for name, unit in tracing.metric_specs()}
    return [plain, traced], metrics, notes, repeat


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    cli = harness.load_usinv()
    if not REFERENCE.is_file():
        sys.stderr.write(f"bench: missing {REFERENCE}\n")
        return 2
    checker = Checker(json.loads(REFERENCE.read_text()))
    argvs = workloads.commands(workload, seed)
    code, _, error, _, _ = harness.execute(cli, workloads.WARMUP[workload])
    if error or code != 0:
        sys.stderr.write(f"bench: warm-up failed: {error or code}\n")
        return 2
    measure = per_layer if trace else end_to_end
    passes, metrics, notes, consistent = measure(workload, cli, argvs,
                                                 checker, seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {workload} seed {seed} trace {int(trace)}: "
          + "; ".join(notes))
    print(f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted})")
    for problem in checker.problems:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    result = {"correct": failed == 0 and consistent, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S,
            cwd=harness.ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"bench: workload {workload} failed\n")
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", choices=workloads.WORKLOADS,
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
