"""CLI contracts: exit codes, corpus, determinism, formats."""

import enum
import hashlib
import json
from pathlib import Path

import pytest

import usinv.cli
import usinv.invars
import usinv.limits
import usinv.rootsys
import usinv.stab
from usinv.cli import (EXIT_FAIL, EXIT_INTERNAL, EXIT_PASS, EXIT_USAGE,
                       UsageError, _dumps, build_parser, main, parse_pairs,
                       run)
from usinv.exact import Q1, CostError
from usinv.invars import check_monomial_cap
from usinv.limits import cocharacter_grid
from usinv.corpus import corpus_get, corpus_list, corpus_names
from usinv.rootsys import parse_root
from usinv.subsets import (ClosedSubset, closed_subset_from_roots,
                           enumerate_closed)
from helpers import oracle_closed_count, oracle_closed_sets
from test_golden import GOLDEN

README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_closed_check_bcd_root_sets(capsys):
    """Closure of a B/C/D root set is decided on the roots: the induced pairs
    are saturated before the check, so D_3 {L1-L2, L2-L3} used to report
    closed with exit 0 although L1-L3 is missing."""
    code, out = _run_capture(capsys, ["closed", "check", "--family", "D",
                                      "--l", "3", "--roots", "L1-L2,L2-L3"])
    assert code == EXIT_FAIL
    assert json.loads(out)["results"]["closed"] is False
    # closed root sets keep their reports, digests recorded before the fix
    for command, digest in (
            ("closed check --family D --l 3 --roots L1-L2,L2-L3,L1-L3",
             "962ee5a541fd8009bb2d5073aae26a8148fe13aeb0e53868cb3888ce2033ba15"),
            ("closed check --family B --l 2 --roots L1-L2,L1+L2,L1,L2",
             "6558d67821738804df42aced6a4ace069c8ed09da840da044dad2cd0f335784c"),
            ("closed check --pairs corpus:sp4-closed",
             "b1b48b54fc930b0be05870ab14abc562c15a89fe2a386a4eb5956ba9fef615b7")):
        code, out = _run_capture(capsys, command.split())
        assert code == EXIT_PASS
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def test_closed_check_reports_root_closure(capsys):
    """A non-closed B/C/D root set reports the smallest closed root set that
    contains it, by root name; the closure used to repeat the subset's own
    induced pairs, so for D_3 it never named L1-L3."""
    for command, roots in (
            ("closed check --family D --l 3 --roots L1-L2,L2-L3",
             ["L1-L2", "L2-L3", "L1-L3"]),
            ("closed check --family C --l 3 --roots L1-L2,2L2",
             ["L1-L2", "2L2", "L1+L2", "2L1"])):
        code, out = _run_capture(capsys, command.split())
        assert code == EXIT_FAIL, command
        results = json.loads(out)["results"]
        assert results["closure"]["roots"] == roots
        family, rank = command.split()[3], int(command.split()[5])
        closure = closed_subset_from_roots(
            family, rank, [parse_root(r, results["closure"]["n"])
                           for r in roots])
        assert results["closure"] == closure.to_json()


def test_roots_refused_for_family_a(capsys):
    """--roots used to be ignored for family A: this command reported the
    empty set with exit 0."""
    for command in ("stab --n 3 --roots L1-L2 --weighted minimal",
                    "closed check --n 3 --pairs 1:2 --roots L1-L2"):
        assert _exit_code(command.split()) == EXIT_USAGE
        assert "family A takes --pairs" in capsys.readouterr().err


def test_pairs_with_roots_refused_for_bcd(capsys):
    """A non-corpus --pairs used to be dropped silently next to --roots."""
    command = "stab --family B --l 2 --pairs 1:2 --roots L1-L2"
    assert _exit_code(command.split()) == EXIT_USAGE
    assert "family B takes --roots" in capsys.readouterr().err


def test_repeated_roots_refused(capsys):
    """A repeated root used to pass: D_2 {L1-L2, L1-L2} reported dimension 1,
    us_dimension 2 and equals_uS true."""
    for command in ("stab --family D --l 2 --roots L1-L2,L1-L2 "
                    "--weighted minimal",
                    "closed check --family D --l 2 --roots L1-L2,L1-L2"):
        assert _exit_code(command.split()) == EXIT_USAGE
        assert "root set has repeats" in capsys.readouterr().err


def test_repeated_pairs_refused(capsys):
    """A repeated pair used to be dropped silently: this command reported
    the set {1:2} as closed with exit 0."""
    assert _exit_code("closed check --n 3 --pairs 1:2,1:2".split()) == (
        EXIT_USAGE)
    assert "pair set has repeats" in capsys.readouterr().err


def test_size_flags_must_agree(capsys):
    """--l used to be ignored for family A and --n for B/C/D: the first
    command reported an SL_3 subset and the second a B_2 subset, both with
    exit 0."""
    for command in ("closed check --n 3 --l 7 --pairs 1:2",
                    "stab --family B --l 2 --n 9 --roots L1 --weighted minimal"):
        assert _exit_code(command.split()) == EXIT_USAGE
        assert "conflicts with" in capsys.readouterr().err
    for command in ("closed check --n 3 --l 2 --pairs 1:2",
                    "stab --family B --l 2 --n 5 --roots L1 --weighted minimal"):
        assert _exit_code(command.split()) == EXIT_PASS


def test_corpus_conflicts_refused(capsys):
    """A corpus:<name> entry used to be read before any other subset flag, so
    a disagreeing flag was dropped: the first command reported the SL_3 full
    Borel with exit 0, and so did the second."""
    for command in ("stab --n 6 --pairs corpus:full-borel --weighted minimal",
                    "stab --family D --l 3 --roots L1-L2 "
                    "--pairs corpus:full-borel",
                    "stab --l 3 --pairs corpus:full-borel",
                    "stab --roots L1-L2 --pairs corpus:full-borel",
                    "point --family C --pairs corpus:so4-borel",
                    "point --n 5 --pairs corpus:so4-borel",
                    "point --roots L1-L2 --pairs corpus:so4-borel"):
        assert _exit_code(command.split()) == EXIT_USAGE
        assert "conflicts with corpus:" in capsys.readouterr().err


def test_corpus_agreeing_flags_accepted(capsys):
    for base, extras in (
            ("limit --pairs corpus:boundary-example --cochar 1,-1,-1,1",
             ("--family A --n 4", "--l 3")),
            ("stab --pairs corpus:so4-borel --weighted minimal",
             ("--family D --l 2 --n 4", "--roots L1-L2,L1+L2"))):
        _, plain = _run_capture(capsys, base.split())
        for extra in extras:
            code, out = _run_capture(capsys, base.split() + extra.split())
            assert code == EXIT_PASS
            assert json.loads(out)["results"] == json.loads(plain)["results"]


def test_nonpositive_n_refused(capsys):
    """These used to exit 0 with empty reports."""
    for command in ("invariants --n 0 --degree 2",
                    "invariants --n -3 --degree 2",
                    "closed check --n 0"):
        assert _exit_code(command.split()) == EXIT_USAGE
        assert "--n must be at least 1" in capsys.readouterr().err


def test_monomial_cap_refused_before_any_solve(monkeypatch, capsys):
    """The first command used to solve degrees 1-3 before it refused degree
    4; the cap now counts the top degree first."""
    def solve(m):
        raise AssertionError("nullspace called before the cap refusal")

    monkeypatch.setattr(usinv.invars, "nullspace", solve)
    for command in ("invariants --n 5 --degree 6",
                    "check-generation --n 5 --degree 6"):
        assert _exit_code(command.split()) == EXIT_USAGE
        assert "exceed the cap 5000; raise it with USINV_CAP" in (
            capsys.readouterr().err)


def test_monomial_cap_covers_slack_retries(capsys):
    """Slack retries build (det - 1) rows up to degree d - n + slack * n;
    this command used to run for more than a minute building degree 9."""
    command = ("check-generation --n 3 --pairs 1:3 --degree 3 --slack 3 "
               "--max-slack 3")
    assert _exit_code(command.split()) == EXIT_USAGE
    assert ("24310 monomials of degree 9 exceed the cap 5000; raise it with "
            "USINV_CAP") in capsys.readouterr().err


def test_max_slack_below_slack_refused(capsys):
    """Both used to exit 0 after a single run at the requested slack."""
    for command in ("check-generation --n 2 --pairs 1:2 --degree 2 "
                    "--max-slack -1",
                    "check-generation --n 2 --pairs 1:2 --degree 2 "
                    "--slack 1 --max-slack 0"):
        assert _exit_code(command.split()) == EXIT_USAGE
        assert "max slack must be at least the slack" in (
            capsys.readouterr().err)
    assert _exit_code("check-generation --n 2 --pairs 1:2 --degree 2 "
                      "--slack 1 --max-slack 1".split()) == EXIT_PASS


@pytest.mark.parametrize("value", ["abc", "0", "-5", "2.5"])
def test_invalid_monomial_cap_refused(monkeypatch, capsys, value):
    """USINV_CAP=abc used to print only int()'s own message.  Every guarded
    command refuses it the same way, and every guard raises CostError:
    enumerate_closed and cocharacter_grid used to raise InvariantError."""
    monkeypatch.setenv("USINV_CAP", value)
    for command in ("invariants --n 2 --degree 1", "closed enumerate --n 3",
                    "screen --n 3 --pairs 1:2 --radius 1"):
        assert _exit_code(command.split()) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: USINV_CAP must be a positive integer, "
            f"not {value!r}\n")
    for guard, args in ((enumerate_closed, (3,)),
                        (cocharacter_grid, ("A", 2, 1)),
                        (check_monomial_cap, (2, 1))):
        with pytest.raises(CostError, match="USINV_CAP must be a positive"):
            guard(*args)


def test_monomial_cap_override(monkeypatch, capsys):
    monkeypatch.setenv("USINV_CAP", "4")
    assert _exit_code("invariants --n 2 --degree 1".split()) == EXIT_PASS
    capsys.readouterr()
    monkeypatch.setenv("USINV_CAP", "3")
    assert _exit_code("invariants --n 2 --degree 1".split()) == EXIT_USAGE
    assert "4 monomials of degree 1 exceed the cap 3" in (
        capsys.readouterr().err)


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    """Every usinv line of the README's CLI block is accepted: none exits 3
    or 4, corpus entries next to flags that agree with them included."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    commands = [line.split()[1:]
                for line in block.split("```", 1)[0].splitlines()
                if line.startswith("usinv ")]
    assert len(commands) == 10
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert _exit_code(argv) not in (EXIT_USAGE, EXIT_INTERNAL), argv


def test_closed_enumerate(tmp_path, capsys):
    out_file = tmp_path / "closed3.json"
    code = run(["closed", "enumerate", "--n", "3", "--out", str(out_file)])
    capsys.readouterr()
    assert code == EXIT_PASS
    report = json.loads(out_file.read_text())
    assert report["results"]["count"] == 7


def test_unwritable_out_refused(tmp_path, capsys):
    """An --out path in a missing directory used to exit 1, the code of a
    failed check, with a FileNotFoundError traceback."""
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert _exit_code(["stab", "--n", "3", "--pairs", "1:2",
                           "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"usage error: cannot write --out {out}: ")
        assert captured.out == ""


def test_point_weighted(capsys):
    code, out = _run_capture(capsys, [
        "point", "--family", "A", "--n", "4", "--pairs", "1:3,2:4",
        "--weighted", "minimal"])
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report["results"]["weighted"] is True
    assert report["results"]["alpha"] == {
        "S_1": 1, "S_2": 7, "S_3": 45, "S_4": 363}


@pytest.mark.parametrize("command", [
    ["point"], ["stab"], ["limit", "--cochar", "1,0,-1"]])
def test_empty_weighted_refused(command, capsys):
    # an empty --weighted used to fall through to --alpha and build a plain
    # point with exit 0 (exit 1 for limit), as `--weighted none` does
    assert _exit_code(command + ["--n", "3", "--pairs", "1:2",
                                 "--weighted", ""]) == EXIT_USAGE
    assert "cannot parse alpha ''" in capsys.readouterr().err


def test_point_index_set(capsys):
    code, out = _run_capture(capsys, ["point", "--n", "3", "--pairs", "1:2",
                                      "--index-set", "3,1"])
    assert code == EXIT_PASS
    shape = json.loads(out)["results"]["point"]["shape"]
    assert [s["label"] for s in shape] == ["S_1", "S_3"]


def test_point_bad_index_set_refused(capsys):
    # an empty index set used to be dropped for the default one, with exit 0
    assert _exit_code(["point", "--n", "3", "--pairs", "1:2",
                       "--index-set", ""]) == EXIT_USAGE
    assert "cannot parse index set ''" in capsys.readouterr().err
    assert _exit_code(["point", "--n", "3", "--pairs", "1:2",
                       "--index-set", "1,x"]) == EXIT_USAGE
    assert "cannot parse index set '1,x'" in capsys.readouterr().err


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


def test_limit_negative_first_weight_both_forms(capsys):
    # a separate value starting with '-' used to be read as an option
    for weighted in ([], ["--weighted", "minimal"]):
        base = ["limit", "--pairs", "corpus:boundary-example"] + weighted
        code_joined, joined = _run_capture(capsys,
                                           base + ["--cochar=-1,1,1,-1"])
        code_split, split = _run_capture(capsys,
                                         base + ["--cochar", "-1,1,1,-1"])
        assert code_joined == code_split != EXIT_USAGE
        assert json.loads(joined)["results"] == json.loads(split)["results"]


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


def test_invariants_sl1_builds_no_algebra(capsys):
    """The empty set of SL_1 needs no Lie algebra; lie_algebra("A", 0)
    raises."""
    code, out = _run_capture(capsys, ["invariants", "--n", "1",
                                      "--degree", "2"])
    assert code == EXIT_PASS
    graded = json.loads(out)["results"]["graded"]
    assert [g["dimension"] for g in graded] == [1, 1]


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
    # an empty grid used to report total 0 and passed true; radius 0 holds
    # only the zero cocharacter, whose limit is p itself, and passed with
    # total 1 without screening any boundary
    for radius in ("-1", "0"):
        assert _exit_code(["screen", "--n", "3", "--pairs", "1:2",
                           "--radius", radius]) == EXIT_USAGE
        assert "radius" in capsys.readouterr().err


def test_screen_grid_cap_refused_before_any_curve(monkeypatch, capsys):
    """`screen --n 6 --pairs '' --radius 10` walks 21^5 grid heads and used
    to run for more than 10 s; the heads are counted first and refused above
    the cap that USINV_CAP overrides."""
    def limit(p, lam):
        raise AssertionError("curve built before the cap refusal")

    monkeypatch.setattr(usinv.limits, "cochar_limit", limit)
    assert _exit_code(["screen", "--n", "6", "--pairs", "",
                       "--radius", "10"]) == EXIT_USAGE
    assert ("4084101 cocharacter grid heads at radius 10 exceed the cap "
            "5000; raise it with USINV_CAP") in capsys.readouterr().err
    for family, rank, radius in (("B", 3, 10), ("D", 4, 4)):
        with pytest.raises(ValueError, match="USINV_CAP"):
            cocharacter_grid(family, rank, radius)
    monkeypatch.undo()
    # SL_3 at radius 2 walks 5^2 heads
    monkeypatch.setenv("USINV_CAP", "24")
    assert _exit_code("screen --n 3 --pairs 1:2 --radius 2".split()) == (
        EXIT_USAGE)
    assert "25 cocharacter grid heads at radius 2 exceed the cap 24" in (
        capsys.readouterr().err)
    monkeypatch.setenv("USINV_CAP", "25")
    assert _exit_code("screen --n 3 --pairs 1:2 --radius 2".split()) == (
        EXIT_PASS)


def _assert_same_lines(got: str, want: str, command: str) -> None:
    """Fail on the first line where two report texts differ, naming the
    command: pytest's diff of two unequal strings of report length (about
    2 MB for `closed enumerate --n 6`) takes minutes."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for k, (line, expected) in enumerate(zip(got_lines, want_lines), 1):
        assert line == expected, f"{command}: line {k}"
    assert len(got_lines) == len(want_lines), f"{command}: line count"


def test_closed_enumerate_nonpositive_n_refused(capsys):
    # n = -2 used to report count 1
    assert _exit_code(["closed", "enumerate", "--n", "-2"]) == EXIT_USAGE
    assert _exit_code(["closed", "enumerate", "--n", "0"]) == EXIT_USAGE


def test_closed_enumerate_cost_guard(capsys):
    """n = 7 has 96,428 closed sets, past the default cap of 5000; the
    refusal names the override."""
    assert _exit_code(["closed", "enumerate", "--n", "7"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == ("usage error: closed sets for n=7 exceed the cap "
                            "5000; raise it with USINV_CAP\n")
    assert captured.out == ""


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_enumerate_report_matches_brute_force(capsys, n):
    """The report is the stdlib encoding of one built from the brute-force
    closed sets through `ClosedSubset.to_json`, byte for byte."""
    report = {
        "schema": "usinv-report/1",
        "command": ["closed", "enumerate", "--n", str(n)],
        "exit_code": EXIT_PASS,
        "results": {"n": n, "count": oracle_closed_count(n), "subsets": [
            ClosedSubset(n, frozenset(ps)).to_json()
            for ps in oracle_closed_sets(n)]},
    }
    code, out = _run_capture(capsys, ["closed", "enumerate", "--n", str(n)])
    assert code == EXIT_PASS
    want = json.dumps(report, sort_keys=True, indent=2) + "\n"
    _assert_same_lines(out, want, f"closed enumerate --n {n}")


def test_invariants_degree_zero_refused(capsys):
    # used to exit 0 with an empty graded list
    assert _exit_code(["invariants", "--n", "3", "--pairs", "1:2",
                       "--degree", "0"]) == EXIT_USAGE
    assert "degree" in capsys.readouterr().err


def test_invariants_non_closed_set_refused(capsys):
    """A non-closed subset, a negative B/C/D root or type A pairs against
    the flag order exit 3 in every command that builds on the subset, with
    the message of the one check they all share; closed check reports a
    non-closed set of positive roots with exit 1 and refuses a negative root
    or reversed pair with exit 3.  invariants used to exit 0 on 2:1 and on
    1:2,2:3 (with the non-closed set as its subset), and every command but
    stab on the B/C sets, where stab exited 1, although L1-L2 + L2 = L1 and
    L1-L2 + 2L2 = L1+L2 are positive roots outside them.  The negative roots
    L2-L1 and -2L1 passed every command but stab, and closed check reported
    2:1,1:3 as not closed with exit 1."""
    table = [
        # (subset flags, cocharacter for limit, closed check exit, message)
        ("--n 4 --pairs 1:2,2:3", "1,0,-1,0", EXIT_FAIL,
         "not transitively closed"),
        ("--n 3 --pairs 2:1", "1,0,-1", EXIT_USAGE, "flag order"),
        ("--n 3 --pairs 2:1,1:3", "1,0,-1", EXIT_USAGE, "flag order"),
        ("--family B --l 2 --roots L1-L2,L2", "1,0,-1,0,0", EXIT_FAIL,
         "root set is not closed"),
        ("--family C --l 2 --roots L1-L2,2L2", "1,0,-1,0", EXIT_FAIL,
         "root set is not closed"),
        ("--family B --l 2 --roots L2-L1", "1,0,-1,0,0", EXIT_USAGE,
         "-L1+L2 is not a positive root"),
        ("--family C --l 2 --roots=-2L1", "1,0,-1,0", EXIT_USAGE,
         "-2L1 is not a positive root"),
    ]
    for flags, cochar, closed_check, message in table:
        commands = ["point", "point --weighted minimal", "stab",
                    "stab --weighted minimal", f"limit --cochar {cochar}",
                    "screen --radius 1", "invariants --degree 1"]
        if flags.startswith("--n"):
            commands.append("check-generation --degree 1")
        for command in commands:
            name, *extra = command.split()
            argv = [name] + flags.split() + extra
            assert _exit_code(argv) == EXIT_USAGE, argv
            assert message in capsys.readouterr().err, argv
        argv = ["closed", "check"] + flags.split()
        assert _exit_code(argv) == closed_check, argv
        if closed_check == EXIT_USAGE:
            assert message in capsys.readouterr().err, argv


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


def test_json_switch_removed(capsys):
    assert _exit_code(["stab", "--pairs", "corpus:trivial",
                       "--json"]) == EXIT_USAGE


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


def test_shared_lie_algebras_are_not_mutated(capsys):
    """Each Lie algebra is built once per process and shared: after a mixed
    run of stab, screen and limit commands every algebra used still equals a
    fresh, uncached build."""
    commands = [
        "stab --pairs corpus:boundary-example --weighted minimal",
        "screen --n 4 --pairs 1:2,3:4 --alpha minimal --radius 2",
        "limit --pairs corpus:so4-borel --cochar 1,0,-1,0 --weighted minimal",
        "stab --family B --l 3 --roots L1+L2,L1+L3,L1,L1-L3 --weighted minimal",
        "screen --family C --l 2 --roots L1-L2,2L2,L1+L2,2L1 --alpha minimal "
        "--radius 1",
        "stab --pairs corpus:so4-borel",
        "stab --n 4 --pairs 1:3,2:4",
        "point --pairs corpus:sp4-closed --weighted minimal",
        "invariants --family B --l 3 --roots L1+L2,L1 --degree 1",
    ]
    for command in commands:
        run(command.split())
    capsys.readouterr()
    lie_algebra = usinv.rootsys.lie_algebra
    fresh = lie_algebra.__wrapped__
    used = [("A", 3), ("B", 3), ("C", 2), ("D", 2)]
    for family, rank in used:
        shared = lie_algebra(family, rank)
        assert shared == fresh(family, rank)
        assert shared.supports == fresh(family, rank).supports
    assert lie_algebra.cache_info().currsize >= len(used)


def test_invalid_rank_refused_on_every_call(capsys):
    for _ in range(3):
        assert _exit_code(["stab", "--n", "1"]) == EXIT_USAGE
        assert "unsupported rank 0" in capsys.readouterr().err


class _Level(enum.IntEnum):
    ONE = 1
    TWO = 2


class _Tag(str):
    pass


def test_dumps_matches_json_dumps(monkeypatch, capsys):
    """The report encoder writes what json.dumps(sort_keys=True, indent=2)
    writes, on edge cases and on the report of every golden command."""
    cases = [
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[{}]]],
        "", "quote \" backslash \\ slash /", "\x00\x01\n\t\r\x1f\x7f",
        "caf\u00e9 \u2207 \U0001d49e",
        [True, 1, False, 0, None], {"t": True, "one": 1, "f": False, "z": 0},
        [-1, -(2 ** 70), 2 ** 64, 2 ** 200],
        (1, (2, "x"), []), {"k": ((),)},
        {"10": 1, "2": 2, "1": {"b": 1, "a": [], "B": None}},
        # leaves the memo serves again, at another depth or as a tuple
        {"a": [1, 2], "b": {"c": [1, 2], "d": [[1, 2], ("x", "y")]},
         "e": ["x", "y"]},
        [[1, 2], (1, 2), ("x",), ["x"], ["caf\u00e9", "\x00\n"]],
        # equal to a memoized leaf, but not exactly int or str items
        [[1, 1], [True, True], [1, True], [True, 1], [True, True]],
        [[1, 2], [_Level.ONE, _Level.TWO], ["a", "b"], [_Tag("a"), "b"],
         [_Tag("a"), _Tag("b")]],
        [f"s{k}" for k in range(2000)],
    ]
    for obj in cases:
        assert _dumps(obj) == json.dumps(obj, sort_keys=True, indent=2), obj
    reports = []

    def record(report):
        reports.append(report)
        return _dumps(report)

    monkeypatch.setattr(usinv.cli, "_dumps", record)
    for command, _ in GOLDEN:
        run(command.split())
    capsys.readouterr()
    assert len(reports) == len(GOLDEN)
    for (command, _), report in zip(GOLDEN, reports):
        _assert_same_lines(_dumps(report),
                           json.dumps(report, sort_keys=True, indent=2),
                           command)


def test_dumps_refuses_inexact_values():
    for obj in (1.5, [0.0], {"a": 2.0}, {1: "x"}, {"a": {3: 4}}, {"a": {1, 2}},
                [1, 2.0], (0.5, 1.5)):
        with pytest.raises(TypeError):
            _dumps(obj)
