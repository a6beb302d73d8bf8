"""CLI contracts: exit codes, corpus, determinism, formats."""

import hashlib
import json

import pytest

import usinv.invars
import usinv.stab
from usinv.cli import (EXIT_FAIL, EXIT_INTERNAL, EXIT_PASS, EXIT_USAGE,
                       UsageError, build_parser, main, parse_pairs, run)
from usinv.exact import Q1
from usinv.corpus import corpus_get, corpus_list, corpus_names
from test_golden import GOLDEN


def _run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_parse_pairs():
    assert parse_pairs("1:3,2:4") == [(1, 3), (2, 4)]
    assert parse_pairs("") == []
    with pytest.raises(UsageError):
        parse_pairs("1-3")


def test_closed_check_pass(capsys):
    code, out = _run_capture(capsys, ["closed", "check", "--n", "4",
                                      "--pairs", "1:3,2:4"])
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report["results"]["closed"] is True
    assert report["results"]["column_sets"]["S_3"] == [1, 3]


def test_closed_check_fail(capsys):
    code, out = _run_capture(capsys, ["closed", "check", "--n", "3",
                                      "--pairs", "1:2,2:3"])
    assert code == EXIT_FAIL
    report = json.loads(out)
    assert report["results"]["closed"] is False
    assert [tuple(p) for p in report["results"]["closure"]["pairs"]] == [
        (1, 2), (1, 3), (2, 3)]


def test_closed_enumerate(tmp_path, capsys):
    out_file = tmp_path / "closed3.json"
    code = run(["closed", "enumerate", "--n", "3", "--out", str(out_file)])
    capsys.readouterr()
    assert code == EXIT_PASS
    report = json.loads(out_file.read_text())
    assert report["results"]["count"] == 7


def test_point_weighted(capsys):
    code, out = _run_capture(capsys, [
        "point", "--family", "A", "--n", "4", "--pairs", "1:3,2:4",
        "--weighted", "minimal"])
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report["results"]["weighted"] is True
    assert report["results"]["alpha"] == {
        "S_1": 1, "S_2": 7, "S_3": 45, "S_4": 363}


def test_stab_so4(capsys):
    code, out = _run_capture(capsys, [
        "stab", "--family", "D", "--l", "2", "--roots", "L1-L2,L1+L2",
        "--weighted", "minimal"])
    assert code == EXIT_PASS
    report = json.loads(out)
    stab = report["results"]["stabilizer"]
    assert stab["equals_uS"] is True
    assert stab["dimension"] == 2


def test_stab_unweighted_uses_nilpotent_part(capsys):
    code, out = _run_capture(capsys, [
        "stab", "--family", "D", "--l", "2", "--roots", "L1-L2,L1+L2"])
    assert code == EXIT_PASS
    report = json.loads(out)
    stab = report["results"]["stabilizer"]
    assert stab["equals_uS"] is False
    assert stab["nilpotent_part_equals_uS"] is True


def test_screen_exit_one_on_witness(capsys):
    code, out = _run_capture(capsys, [
        "screen", "--family", "A", "--n", "4",
        "--pairs", "corpus:boundary-example", "--alpha", "none",
        "--radius", "1"])
    assert code == EXIT_FAIL
    report = json.loads(out)
    wit = report["results"]["screen"]["witnesses"]
    assert wit == [{"weights": [1, -1, -1, 1], "stab_dimension": 6}]


def test_limit_command(capsys):
    code, out = _run_capture(capsys, [
        "limit", "--family", "A", "--n", "4",
        "--pairs", "corpus:boundary-example", "--cochar", "1,-1,-1,1"])
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report["results"]["outcome"]["kind"] == "converges"


def test_generation_exit_codes(capsys):
    code, out = _run_capture(capsys, [
        "check-generation", "--family", "A", "--n", "2", "--pairs", "1:2",
        "--degree", "2"])
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report["results"]["generation"]["covered"] is True


def test_invariants_command(capsys):
    code, out = _run_capture(capsys, [
        "invariants", "--family", "A", "--n", "2", "--pairs", "1:2",
        "--degree", "2"])
    assert code == EXIT_PASS
    report = json.loads(out)
    dims = [(g["degree"], g["dimension"]) for g in report["results"]["graded"]]
    assert dims == [(1, 2), (2, 4)]


def test_corpus_inventory(capsys):
    code, out = _run_capture(capsys, ["corpus"])
    assert code == EXIT_PASS
    report = json.loads(out)
    entries = report["results"]["entries"]
    assert len(entries) == 6
    names = [e["name"] for e in entries]
    assert names == sorted(names)
    assert set(names) == {"regularsubgroup", "boundary-example", "so4-borel",
                          "sp4-closed", "trivial", "full-borel"}


def test_corpus_pins():
    reg = corpus_get("regularsubgroup")
    assert reg["n"] == 4 and reg["pairs"] == [[1, 3], [2, 4]]
    sp4 = corpus_get("sp4-closed")
    assert sp4["roots"] == ["L1-L2", "L1+L2", "2L1"]


def test_corpus_roundtrip():
    for entry in corpus_list():
        assert json.loads(json.dumps(entry, sort_keys=True)) == entry


def test_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for name in corpus_names():
        entry = corpus_get(name)
        argv = ["point", "--pairs", f"corpus:{name}", "--weighted", "minimal"]
        run(argv + ["--out", str(a)])
        run(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes(), name


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["closed", "check", "--n", "4", "--pairs", "nonsense"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["stab", "--family", "D", "--roots", "L1-L2"])  # missing --l
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == EXIT_USAGE


def _exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_screen_negative_radius_refused(capsys):
    # an empty grid used to report total 0 and passed true
    assert _exit_code(["screen", "--n", "3", "--pairs", "1:2",
                       "--radius", "-1"]) == EXIT_USAGE
    assert "radius" in capsys.readouterr().err


def test_closed_enumerate_nonpositive_n_refused(capsys):
    # n = -2 used to report count 1
    assert _exit_code(["closed", "enumerate", "--n", "-2"]) == EXIT_USAGE
    assert _exit_code(["closed", "enumerate", "--n", "0"]) == EXIT_USAGE


def test_invariants_degree_zero_refused(capsys):
    # used to exit 0 with an empty graded list
    assert _exit_code(["invariants", "--n", "3", "--pairs", "1:2",
                       "--degree", "0"]) == EXIT_USAGE
    assert "degree" in capsys.readouterr().err


def test_check_generation_degree_zero_refused(capsys):
    # used to report covered: true
    assert _exit_code(["check-generation", "--n", "3", "--pairs", "1:2",
                       "--degree", "0"]) == EXIT_USAGE
    assert "degree" in capsys.readouterr().err


def test_stabilizer_self_check_failure_exits_internal(monkeypatch, capsys):
    # adding E_{n1} to every reported matrix moves e_1 off the flag
    combine = usinv.stab._combine

    def corrupted(supports, coeffs, n):
        M = combine(supports, coeffs, n)
        M[n - 1][0] += Q1
        return M

    monkeypatch.setattr(usinv.stab, "_combine", corrupted)
    assert _exit_code(["stab", "--pairs", "corpus:boundary-example",
                       "--weighted", "minimal"]) == EXIT_INTERNAL
    assert "internal error: reported basis element fails to annihilate" in (
        capsys.readouterr().err)


def test_parser_reused_across_commands(capsys):
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["stab", "--pairs", "corpus:trivial", "--no-such-flag"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()
    command = "stab --pairs corpus:boundary-example --weighted minimal"
    run(command.split())
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == dict(GOLDEN)[command]


def test_invariant_self_check_failure_exits_internal(monkeypatch, capsys):
    # the sum of all x_ij is not killed by D_{E_12}, so the re-check fails
    monkeypatch.setattr(usinv.invars, "nullspace",
                        lambda m: [[Q1] * m.cols])
    assert _exit_code(["invariants", "--n", "3", "--pairs", "1:2",
                       "--degree", "1"]) == EXIT_INTERNAL
    assert "internal error: invariant basis element fails re-check" in (
        capsys.readouterr().err)


def test_jobs_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["closed", "enumerate", "--n", "3", "--jobs", "2"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["stab", "--pairs", "corpus:trivial", "--jobs", "2"])
    assert exc.value.code == EXIT_USAGE


def test_unknown_corpus_reference(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["point", "--pairs", "corpus:missing"])
    assert exc.value.code == EXIT_USAGE


def test_table_format(capsys):
    code, out = _run_capture(capsys, [
        "closed", "check", "--n", "4", "--pairs", "1:3,2:4",
        "--format", "table"])
    assert code == EXIT_PASS
    assert "results.closed: True" in out


def test_roots_command(capsys):
    code, out = _run_capture(capsys, ["roots", "--family", "B", "--rank", "2"])
    assert code == EXIT_PASS
    report = json.loads(out)
    assert sorted(report["results"]["root_system"]["roots"]) == sorted(
        [[0, 1], [1, -1], [1, 0], [1, 1]])
