"""Rebuild `bench/reference.json`, the expected outcome of every command the
benchmark's generators can draw.

Run from the repository root (about 15 minutes on one core):

    python3 bench/build_reference.py

For each command the table stores [exit code, report digest, checked
result]: the graded dimensions of `invariants`, the histogram and pass flag
of `screen`, [dimension, equals_uS] of `stab`, the coverage of
`check-generation` and the count of `closed enumerate`.

The table is cross-checked once against the independent oracles in
`tests/helpers.py`:

- `oracle_invariant_dimension` for every closed SL_4 subset at degrees 1-3,
  the degree 1-3 part of the `check-generation` report and the degree 1-4
  part of the SL_3 full Borel report (degree 5, at 1,287 monomials, is too
  slow for the dense oracle);
- `tensor_stabilizer_dimension` for every `stab` input, at alpha = (1,...,1)
  where the tensor expansion stays small, against |S|;
- `oracle_closed_count` for `closed enumerate --n 6`.

Commands that disagree with an oracle, or that break a fact checked by
`workloads.intrinsic_ok`, are listed under "mismatches"; the benchmark counts
every run of them as failed.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import harness
import workloads

OUT = Path(__file__).resolve().parent / "reference.json"


def key(argv) -> str:
    return " ".join(argv)


def elementary(n: int, i: int, j: int) -> list:
    m = [[Fraction(0)] * n for _ in range(n)]
    m[i - 1][j - 1] = Fraction(1)
    return m


def main() -> int:
    cli = harness.load_usinv()
    sys.path.insert(0, str(harness.ROOT / "tests"))
    import helpers
    from usinv.points import build_point
    from usinv.rootsys import ambient_dim, lie_algebra, parse_root
    from usinv.subsets import ClosedSubset, closed_subset_from_roots

    table, mismatches = {}, []
    for workload in workloads.WORKLOADS:
        for argv in workloads.universe(workload):
            code, text, error, _, _ = harness.execute(cli, argv)
            if error:
                raise SystemExit(f"{key(argv)} raised {error}")
            value = workloads.outcome(argv, json.loads(text))
            table[key(argv)] = [code, workloads.digest(text), value]
            if not workloads.intrinsic_ok(argv, code, value):
                mismatches.append(key(argv))
        print(f"{workload}: {len(table)} commands so far", flush=True)

    checked = 0
    sl4_dims = {}
    for pairs in workloads.closed_pair_sets(4):
        mats = [elementary(4, i, j) for i, j in pairs]
        want = [helpers.oracle_invariant_dimension(mats, 4, d)
                for d in (1, 2, 3)]
        sl4_dims[pairs] = want
        argv = workloads.sl4_invariants_argv(pairs)
        checked += 1
        if table[key(argv)][2] != want:
            mismatches.append(key(argv))
    borel, gen = workloads.INVARIANT_FIXED
    mats = [elementary(3, i, j) for i, j in ((1, 2), (1, 3), (2, 3))]
    checked += 1
    if table[key(borel)][2][:4] != [
            helpers.oracle_invariant_dimension(mats, 3, d) for d in (1, 2, 3, 4)]:
        mismatches.append(key(borel))
    checked += 1
    if table[key(gen)][2][1] != sl4_dims[((1, 3), (2, 4))]:
        mismatches.append(key(gen))
    print(f"invariant oracle: {checked} checked", flush=True)

    algebras = {}
    for argv in workloads.universe("stab-sweep"):
        if argv[0] != "stab":
            continue
        if "--n" in argv:
            family, rank, n = "A", 5, 6
            subset = ClosedSubset(n, frozenset(
                tuple(map(int, p.split(":")))
                for p in argv[argv.index("--pairs") + 1].split(",") if p))
            index_size = n
        else:
            family, rank = argv[argv.index("--family") + 1], 3
            n = ambient_dim(family, rank)
            roots = [parse_root(r, n)
                     for r in argv[argv.index("--roots") + 1].split(",")]
            subset = closed_subset_from_roots(family, rank, roots)
            index_size = n - rank
        if family not in algebras:
            algebras[family] = list(lie_algebra(family, rank).basis)
        point = build_point(subset, family, rank, alpha=(1,) * index_size)
        dim = helpers.tensor_stabilizer_dimension(point, algebras[family])
        checked += 1
        if dim != workloads.subset_size(argv) or dim != table[key(argv)][2][0]:
            mismatches.append(key(argv))
    enum = workloads.STAB_FIXED[0]
    checked += 1
    if table[key(enum)][2] != helpers.oracle_closed_count(6):
        mismatches.append(key(enum))
    print(f"oracles: {checked} checked, {len(mismatches)} mismatches",
          flush=True)

    # one command per line keeps diffs of the table readable
    compact = {"separators": (",", ":"), "sort_keys": True}
    lines = [f"{json.dumps(k)}:{json.dumps(v, **compact)}"
             for k, v in sorted(table.items())]
    oracle = {"checked": checked, "mismatches": sorted(mismatches)}
    OUT.write_text('{"schema":"usinv-bench-reference/1",\n'
                   f'"oracle":{json.dumps(oracle, **compact)},\n'
                   '"commands":{\n' + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {OUT} ({len(table)} commands)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
