"""Self-tests of the benchmark.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench -q
"""

import json
import re
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_commands(workload):
    assert workloads.commands(workload, 7) == workloads.commands(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_draw_of_same_size(workload):
    a, b = workloads.commands(workload, 1), workloads.commands(workload, 2)
    assert len(a) == len(b)
    assert a != b
    universe = set(workloads.universe(workload))
    assert set(a) <= universe and set(b) <= universe


def test_universes_match_known_counts():
    # naturally labelled posets (OEIS A006455) and the closed root sets of
    # rank 3 without the empty set
    assert [len(workloads.closed_pair_sets(n)) for n in (2, 3, 4, 5, 6)] == [
        2, 7, 40, 357, 4824]
    assert [len(workloads.closed_root_sets(f, 3)) for f in "BCD"] == [
        171, 171, 39]


def test_reference_covers_every_drawable_command():
    table = json.loads(run.REFERENCE.read_text())
    assert table["oracle"]["mismatches"] == []
    for workload in workloads.WORKLOADS:
        for argv in workloads.universe(workload):
            assert " ".join(argv) in table["commands"]


def _originals():
    cli = harness.load_usinv()
    import usinv.exact
    import usinv.stab
    return cli, {
        "cli.run": cli.run,
        "stab.nullspace": usinv.stab.nullspace,
        "invars.nullspace": sys.modules["usinv.invars"].nullspace,
        "exact.nullspace": usinv.exact.nullspace,
        "RowEchelon.add": usinv.exact.RowEchelon.add,
        "stab.wedge_apply": usinv.stab.wedge_apply,
    }


def test_wrappers_install_and_restore():
    cli, before = _originals()
    tr = tracer.Tracer()
    tr.install()
    try:
        _, during = _originals()
        assert all(during[k] is not before[k] for k in before)
        code, text, error, _, _ = harness.execute(
            cli, workloads.WARMUP["stab-sweep"])
    finally:
        tr.uninstall()
    _, after = _originals()
    assert all(after[k] is before[k] for k in before)
    assert code == 0 and not error
    folded = tr.fold()
    assert folded["cli.run"]["calls"] == 1
    assert folded["exact.nullspace"]["calls"] >= 1
    assert folded["stab.lie_stabilizer"]["s"] >= folded[
        "stab.lie_stabilizer"]["self_s"] > 0


def test_spans_of_a_raising_call_stay_consistent():
    cli = harness.load_usinv()
    tr = tracer.Tracer()
    tr.install()
    try:
        error = harness.execute(cli, ("check-generation", "--family", "B",
                                      "--l", "2", "--roots", "L1",
                                      "--degree", "1"))[2]
    finally:
        tr.uninstall()
    assert error.startswith("InvariantError")
    folded = tr.fold()
    assert folded["invars.generation_check"]["calls"] == 1
    assert 0 <= folded["cli.run"]["self_s"] <= folded["cli.run"]["s"]


def test_traced_report_is_byte_identical():
    cli = harness.load_usinv()
    argv = workloads.WARMUP["screen"]
    plain = harness.execute(cli, argv)[1]
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = harness.execute(cli, argv)[1]
    finally:
        tr.uninstall()
    assert plain == traced


def test_counters_repeat_exactly():
    cli = harness.load_usinv()
    folds = []
    for _ in range(2):
        tr = tracer.Tracer()
        tr.install()
        try:
            harness.execute(cli, workloads.WARMUP["invariants"])
        finally:
            tr.uninstall()
        folds.append(tracer.layer_metrics(tr.fold(), 0))
    units = dict(tracer.metric_specs())
    counts = [{k: v for k, v in f.items() if units[k] != "s"} for f in folds]
    assert counts[0] == counts[1]
    assert counts[0]["exact.nullspace.cols"] > 0


def test_metric_names_and_benchmark_file():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(declared) == len(set(declared))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in declared)
    assert [m["name"] for m in spec["per_layer"]] == [
        name for name, _ in tracer.metric_specs()]
    assert [m["name"] for m in spec["end_to_end"]] == [
        name for name, _ in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    pct, _ = run.tail(list(range(11)))
    assert pct == 9
    pct, value = run.tail([float(x) for x in range(1000)])
    assert pct == 99 and value == 989.0


def test_checker_flags_wrong_and_changing_reports():
    argv = workloads.WARMUP["stab-sweep"]
    cli = harness.load_usinv()
    code, text, _, _, _ = harness.execute(cli, argv)
    key = " ".join(argv)
    value = workloads.outcome(argv, json.loads(text))
    ref = {"oracle": {"mismatches": []},
           "commands": {key: [code, workloads.digest(text), value]}}
    checker = run.Checker(ref)
    assert checker.check(argv, code, text, "")
    assert not checker.check(argv, code, text + " ", "")
    assert not checker.check(argv, code, text, "ValueError: boom")
    assert not run.Checker(ref).check(argv, 1, text, "")


def test_calibration_samples_during_a_command_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    cli = harness.load_usinv()
    samples = run.Samples(1)
    argv = [workloads.WARMUP["invariants"]]
    cal = calibrate.Calibration()
    cal.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * calibrate.INTERVAL_S:
            pass
        samples.run(cli, argv, 0, run.Checker(json.loads(
            run.REFERENCE.read_text())), cal=cal)
    finally:
        cal.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(cal.took) >= 3 and cal.spent == pytest.approx(sum(cal.took))
    assert samples.wall_units[0][0] > 0 and samples.cpu_units[0][0] > 0
    assert calibrate.kernel() == calibrate.kernel()
    assert cal.local(cal.at[0], cal.at[0]) > 0
