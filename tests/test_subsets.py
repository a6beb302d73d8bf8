"""Closed subsets, closure, column sets, enumeration, strong separation."""

import itertools
import random

import pytest

from usinv.exact import CostError, SelfCheckError
from usinv.rootsys import Root, parse_root, positive_roots
from usinv.statements import elementwise_less, strongly_separated
from usinv.subsets import (ClosedSubset, ColumnFamily, SubsetError,
                           closed_subset_from_roots, closure, column_sets,
                           enumerate_closed, is_closed, pairs_from_roots,
                           transitive_closure)
from helpers import (closed_subsets, oracle_closed_count, oracle_closed_sets,
                     oracle_column_sets, oracle_is_closed, oracle_roots_closed,
                     random_closed_pairs)


def test_is_closed_examples():
    assert is_closed(4, {(1, 3), (2, 4)})
    assert not is_closed(3, {(1, 2), (2, 3)})
    assert is_closed(5, set())


def test_is_closed_rejects_bad_pairs():
    with pytest.raises(SubsetError):
        is_closed(3, {(0, 1)})
    with pytest.raises(SubsetError):
        is_closed(3, {(2, 2)})


def test_transitive_closure_examples():
    c = transitive_closure(3, {(1, 2), (2, 3)})
    assert c.pairs == frozenset({(1, 2), (2, 3), (1, 3)})
    again = transitive_closure(3, c.pairs)
    assert again.pairs == c.pairs


def test_closure_idempotent_monotone_random():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 5)
        pairs = set()
        for (i, j) in itertools.permutations(range(1, n + 1), 2):
            if i < j and rng.random() < 0.4:
                pairs.add((i, j))
        c1 = transitive_closure(n, pairs)
        assert is_closed(n, c1.pairs)
        assert transitive_closure(n, c1.pairs).pairs == c1.pairs
        assert c1.pairs >= frozenset(pairs)
        bigger = transitive_closure(n, set(pairs) | {(1, 2)} if n >= 2 else pairs)
        assert bigger.pairs >= c1.pairs or not pairs


def test_so4_pattern_closure():
    # the raw pattern of the orthogonal example has column 3 rows {2,3,4};
    # closure adds row 1
    roots = [parse_root("L1-L2", 4), parse_root("L1+L2", 4)]
    raw = pairs_from_roots("D", 2, roots)
    assert {i for (i, j) in raw if j == 3} | {3} == {2, 3, 4}
    closed = transitive_closure(4, raw)
    assert {i for (i, j) in closed.pairs if j == 3} | {3} == {1, 2, 3, 4}


def test_column_sets_type_a():
    S = ClosedSubset(4, frozenset({(1, 3), (2, 4)}))
    cols = column_sets(S, "A", 3)
    assert cols[1] == {1} and cols[2] == {2}
    assert cols[3] == {1, 3} and cols[4] == {2, 4}


def test_column_sets_full_borel():
    n = 4
    pairs = {(i, j) for i, j in itertools.combinations(range(1, n + 1), 2)}
    cols = column_sets(ClosedSubset(n, frozenset(pairs)), "A", n - 1)
    for j in range(1, n + 1):
        assert cols[j] == set(range(1, j + 1))


def test_column_sets_so4_example():
    roots = [parse_root("L1-L2", 4), parse_root("L1+L2", 4)]
    S = closed_subset_from_roots("D", 2, roots)
    cols = column_sets(S, "D", 2)
    assert cols[1] == {1}
    assert cols[2] == {1, 2}
    assert cols[3] == {1, 2, 3, 4}
    assert cols[4] == {1, 4}


def test_column_sets_requires_closed_for_a():
    with pytest.raises(SubsetError):
        column_sets(ClosedSubset(3, frozenset({(1, 2), (2, 3)})), "A", 2)


def test_column_family_not_hereditary_is_self_check_failure():
    """A closed S always gives a hereditary family, so a family that is not
    one is a defect of the program: 1 in S_2 and 2 in S_3, but 1 not in
    S_3.  This used to raise SubsetError, a usage error."""
    with pytest.raises(SelfCheckError, match="not hereditary"):
        ColumnFamily(3, (frozenset({1}), frozenset({1, 2}),
                         frozenset({2, 3})))
    with pytest.raises(SelfCheckError, match="2 missing from S_2"):
        ColumnFamily(2, (frozenset({1}), frozenset({1})))


def _subsets(items):
    return itertools.chain.from_iterable(
        itertools.combinations(items, r) for r in range(len(items) + 1))


def test_closure_matches_oracle_for_type_a():
    """Every subset of the positive pairs of SL_2..SL_5: closure returns S
    itself exactly when the oracle calls S closed, and otherwise a superset
    the oracle calls closed."""
    for n in (2, 3, 4, 5):
        for chosen in _subsets(list(itertools.combinations(range(1, n + 1),
                                                           2))):
            S = ClosedSubset(n, frozenset(chosen))
            closed = closure(S, "A", n - 1)
            if oracle_is_closed(n, chosen):
                assert closed is S, chosen
            else:
                assert closed.n == n and closed.pairs > S.pairs, chosen
                assert oracle_is_closed(n, closed.pairs), chosen


def test_closure_matches_oracle_for_bcd():
    """Every subset of the positive roots of B, C, D at rank 2 and 3, as for
    type A; for a closed one, column_sets reads the pairs saturated once by
    closed_subset_from_roots and agrees with a second saturation."""
    for family, rank in itertools.product("BCD", (2, 3)):
        positive = positive_roots(family, rank).positive_roots
        for chosen in _subsets(positive):
            S = closed_subset_from_roots(family, rank, chosen)
            closed = closure(S, family, rank)
            if oracle_roots_closed(chosen, positive):
                assert closed is S, chosen
                assert column_sets(S, family, rank).sets == (
                    oracle_column_sets(family, rank, chosen)), chosen
            else:
                grown = closed.source_roots
                assert grown[:len(chosen)] == chosen, chosen
                assert len(grown) > len(chosen), chosen
                assert oracle_roots_closed(grown, positive), chosen
                assert closed == closed_subset_from_roots(family, rank,
                                                          grown)


def test_closure_refuses_negative_roots():
    """Every single reversed pair of SL_2..SL_5 and every single negative
    root of B, C, D at rank 2 and 3; a negative B/C/D root used to pass."""
    for n in (2, 3, 4, 5):
        for i, j in itertools.combinations(range(1, n + 1), 2):
            with pytest.raises(SubsetError, match="flag order"):
                closure(ClosedSubset(n, frozenset({(j, i)})), "A", n - 1)
    for family, rank in itertools.product("BCD", (2, 3)):
        for root in positive_roots(family, rank).positive_roots:
            negative = Root(tuple(-c for c in root.coeffs))
            S = closed_subset_from_roots(family, rank, [negative])
            with pytest.raises(SubsetError, match="not a positive root"):
                closure(S, family, rank)


def test_closure_refuses_wrong_n_or_missing_roots():
    with pytest.raises(SubsetError, match="has n=4"):
        closure(ClosedSubset(3, frozenset()), "A", 3)
    with pytest.raises(SubsetError, match="has n=5"):
        closure(ClosedSubset(4, frozenset(), source_roots=()), "B", 2)
    with pytest.raises(SubsetError, match="need their roots"):
        closure(ClosedSubset(4, frozenset({(1, 3)})), "D", 2)


def test_column_sets_hereditary_all_enumerated():
    for n in (2, 3, 4, 5):
        for S in closed_subsets(n):
            cols = column_sets(S, "A", n - 1)
            assert cols.is_hereditary()
            # exact round trip for type A
            for j in range(1, n + 1):
                assert cols[j] - {j} == {i for (i, jj) in S.pairs if jj == j}


def test_column_sets_hereditary_bcd_rank2():
    for family in ("B", "C", "D"):
        system = positive_roots(family, 2)
        pos = list(system.positive_roots)
        for r in range(len(pos) + 1):
            for combo in itertools.combinations(pos, r):
                if not oracle_roots_closed(combo, pos):
                    continue
                S = closed_subset_from_roots(family, 2, combo)
                assert column_sets(S, family, 2).is_hereditary()


def test_enumerate_closed_counts():
    assert len(enumerate_closed(2)) == 2
    subs3 = enumerate_closed(3)
    assert len(subs3) == 7
    assert len(subs3) == oracle_closed_count(3)
    # the only failing candidate at n=3 is {(1,2),(2,3)}
    assert ((1, 2), (2, 3)) not in subs3
    assert len(enumerate_closed(4)) == oracle_closed_count(4)


def test_enumerate_closed_guard(monkeypatch):
    """The guard is the cost cap: n = 6 (4,824 sets) passes the default cap
    of 5000, n = 7 (96,428) is refused, and a cap equal to the count passes.
    It used to be a hard-coded n <= 6."""
    assert len(enumerate_closed(6)) == 4824
    with pytest.raises(CostError, match="exceed the cap 5000; raise it "
                                        "with USINV_CAP"):
        enumerate_closed(7)
    monkeypatch.setenv("USINV_CAP", "357")
    assert len(enumerate_closed(5)) == 357
    monkeypatch.setenv("USINV_CAP", "356")
    with pytest.raises(CostError, match="cap 356"):
        enumerate_closed(5)


def test_enumerate_closed_guard_refuses_while_building():
    """The sets of each row stage are counted as they are built, so an n far
    past the cap is refused after a few stages, not after all n."""
    with pytest.raises(CostError, match="n=1000000 exceed the cap"):
        enumerate_closed(10 ** 6)


def test_enumerate_closed_n7_under_raised_cap(monkeypatch):
    """OEIS A006455 at n = 7, once USINV_CAP allows it."""
    monkeypatch.setenv("USINV_CAP", "100000")
    found = enumerate_closed(7)
    assert len(found) == 96428
    assert found[0] == () and len(found[-1]) == 21


def test_enumerate_closed_matches_oracle_membership():
    for n in (3, 4):
        enumerated = set(enumerate_closed(n))
        pairs = [(i, j) for i, j in itertools.combinations(range(1, n + 1), 2)]
        for mask in range(1 << len(pairs)):
            chosen = tuple(p for b, p in enumerate(pairs) if mask >> b & 1)
            assert (chosen in enumerated) == oracle_is_closed(n, chosen)


def test_enumerate_closed_equals_brute_force_filter():
    """Row-by-row extension returns exactly the brute-force filter over every
    pair subset, as lex-sorted pair tuples in the same (size, lex) order; the
    counts are OEIS A006455."""
    counts = []
    for n in range(1, 7):
        assert enumerate_closed(n) == oracle_closed_sets(n)
        counts.append(len(oracle_closed_sets(n)))
    assert counts == [1, 2, 7, 40, 357, 4824]


def test_enumeration_order_deterministic():
    subs = enumerate_closed(3)
    sizes = [len(ps) for ps in subs]
    assert sizes == sorted(sizes)
    assert subs[0] == ()
    assert all(type(ps) is tuple and list(ps) == sorted(set(ps))
               and all(type(p) is tuple and 1 <= p[0] < p[1] <= 3 for p in ps)
               for ps in subs)


def test_random_closed_pairs_helper():
    rng = random.Random(5)
    for _ in range(10):
        pairs = random_closed_pairs(5, rng)
        assert is_closed(5, pairs)


def test_elementwise_less():
    assert elementwise_less({1, 2}, {3})
    assert elementwise_less(set(), {1})
    assert not elementwise_less({3}, {2, 4})


def test_strongly_separated_examples():
    assert strongly_separated([{1}, {1, 2}])
    assert not strongly_separated([{1, 3}, {2, 4}])
    assert strongly_separated([{1, 2}, {1, 3}])


def test_column_family_not_always_strongly_separated():
    # the column sets of a closed subset need not be strongly separated
    S = ClosedSubset(4, frozenset({(1, 3), (2, 4)}))
    cols = column_sets(S, "A", 3)
    assert not strongly_separated([cols[j] for j in range(1, 5)])
    borel = ClosedSubset(3, frozenset({(1, 2), (1, 3), (2, 3)}))
    colsb = column_sets(borel, "A", 2)
    assert strongly_separated([colsb[j] for j in range(1, 4)])


def test_strongly_separated_rejects_empty():
    with pytest.raises(SubsetError):
        strongly_separated([set(), {1}])


def test_closed_subset_json_roundtrip():
    S = ClosedSubset(4, frozenset({(1, 3), (2, 4)}))
    js = S.to_json()
    S2 = ClosedSubset(js["n"], frozenset(tuple(p) for p in js["pairs"]))
    assert S2 == S
