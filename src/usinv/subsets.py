"""Closed subsets of positive roots, transitive closure, enumeration and
column sets; the strongly-separated test is in `statements`.

Pairs are always stored against the ambient SL_n index set; B/C/D roots map
to the entry pattern of their root matrices, saturated once.  `closure` alone
decides what a subset is: closed, or refused for a wrong n or negative root.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Optional, Sequence

from .exact import Frozen, SelfCheckError, check_cost
from .rootsys import (Root, ambient_dim, lie_algebra, positive_roots,
                      root_index)


class SubsetError(ValueError):
    pass


def _check_pairs(n: int, pairs: Iterable[tuple]) -> frozenset:
    out = set()
    for (i, j) in pairs:
        if not (1 <= i <= n and 1 <= j <= n):
            raise SubsetError(f"pair ({i},{j}) out of range for n={n}")
        if i == j:
            raise SubsetError(f"diagonal pair ({i},{j}) is not allowed")
        out.add((i, j))
    return frozenset(out)


class ClosedSubset(Frozen):
    """A set of ordered index pairs (i, j), optionally remembering the B/C/D
    roots it came from."""

    _fields = ("n", "pairs", "source_roots")

    def __init__(self, n: int, pairs: frozenset,
                 source_roots: Optional[tuple] = None):
        super().__init__(n, _check_pairs(n, pairs), source_roots)

    @property
    def size(self) -> int:
        if self.source_roots is not None:
            return len(self.source_roots)
        return len(self.pairs)

    def sorted_pairs(self) -> list:
        return sorted(self.pairs)

    def to_json(self) -> dict:
        out = {"n": self.n, "pairs": list(map(list, self.sorted_pairs()))}
        if self.source_roots is not None:
            out["roots"] = [r.name() for r in self.source_roots]
        return out


def is_closed(n: int, pairs: Iterable[tuple]) -> bool:
    """True iff (i,j),(j,k) present forces (i,k) present."""
    ps = _check_pairs(n, pairs)
    out = {}
    for i, j in ps:
        out.setdefault(i, set()).add(j)
    for i, j in ps:
        for k in out.get(j, ()):
            if k != i and (i, k) not in ps:
                return False
    return True


def transitive_closure(n: int, pairs: Iterable[tuple]) -> ClosedSubset:
    """Smallest transitively closed superset (Warshall saturation)."""
    ps = set(_check_pairs(n, pairs))
    changed = True
    while changed:
        changed = False
        for (i, j), (j2, k) in itertools.product(list(ps), repeat=2):
            if j == j2 and i != k and (i, k) not in ps:
                ps.add((i, k))
                changed = True
    return ClosedSubset(n, frozenset(ps))


def pairs_from_roots(family: str, rank: int, roots: Sequence[Root]) -> frozenset:
    """Induced SL_n pair relations: the off-diagonal entry support of each
    root generator, read off the cached Lie algebra."""
    pairs = set()
    for root in roots:
        support = lie_algebra(family, rank).supports[
            root_index(family, rank, root)]
        pairs.update((i, j) for j, col in enumerate(support, start=1)
                     for i, _ in col if i != j)
    return frozenset(pairs)


def closed_subset_from_roots(family: str, rank: int,
                             roots: Sequence[Root]) -> ClosedSubset:
    if len(set(roots)) != len(roots):
        raise SubsetError("root set has repeats")
    n = ambient_dim(family, rank)
    closed = transitive_closure(n, pairs_from_roots(family, rank, roots))
    return ClosedSubset(n, closed.pairs, source_roots=tuple(roots))


def subset_roots(subset: ClosedSubset, family: str) -> tuple:
    """The roots of S: each type A pair (i, j), in sorted order, read as the
    root L_i - L_j; for B/C/D the roots S was built from, refused with
    SubsetError when S does not carry them."""
    if family == "A":
        roots = []
        for (i, j) in subset.sorted_pairs():
            v = [0] * subset.n
            v[i - 1], v[j - 1] = 1, -1
            roots.append(Root(tuple(v)))
        return tuple(roots)
    if subset.source_roots is None:
        raise SubsetError(f"family {family} subsets need their roots")
    return subset.source_roots


def subset_basis_indices(subset: ClosedSubset, family: str,
                         rank: int) -> list:
    """Indices in lie_algebra(family, rank) of the generators whose
    derivations cut out the invariants of S."""
    return [root_index(family, rank, r) for r in subset_roots(subset, family)]


def root_closure(roots: Sequence[Root], positive: Sequence[Root]) -> tuple:
    """Smallest superset of roots closed inside a root system: every sum of
    two members that is a positive root is a member.  The given roots come
    first, then the added ones in the order of positive.  Sums are taken on
    coefficient vectors, so no Root is built for a sum that is not one."""
    pos = {r.coeffs: r for r in positive}
    given = {r.coeffs for r in roots}
    closed = set(given)
    while True:
        new = {tuple(map(operator.add, a, b))
               for a, b in itertools.combinations(closed, 2)} & pos.keys()
        if new <= closed:
            break
        closed |= new
    return tuple(roots) + tuple(r for c, r in pos.items()
                                if c in closed and c not in given)


class ColumnFamily(Frozen):
    """Column sets S_1..S_n of a closed S, so j is in S_j and the family is
    hereditary (a in S_b and b in S_c imply a in S_c), or a self-check fails."""

    _fields = ("n", "sets")

    def __init__(self, n: int, sets: tuple):
        super().__init__(n, sets)  # sets: tuple of frozensets, S_j at j-1
        for j, s in enumerate(self.sets, start=1):
            if j not in s:
                raise SelfCheckError(f"{j} missing from S_{j}")
        if not self.is_hereditary():
            raise SelfCheckError("column family is not hereditary")

    def __getitem__(self, j: int) -> frozenset:
        return self.sets[j - 1]

    def is_hereditary(self) -> bool:
        for c in range(1, self.n + 1):
            for b in self.sets[c - 1]:
                if not self.sets[b - 1] <= self.sets[c - 1]:
                    return False
        return True

    def to_json(self) -> dict:
        return {f"S_{j}": sorted(self.sets[j - 1]) for j in range(1, self.n + 1)}


def closure(subset: ClosedSubset, family: str, rank: int) -> ClosedSubset:
    """The smallest closed set of positive roots containing S: S itself when
    S is closed.  An n that does not match the family, or a negative root
    (for type A a pair (i, j) with i > j), raises SubsetError.  A B/C/D
    subset carries the roots `closed_subset_from_roots` built it from."""
    n = ambient_dim(family, rank)
    if n != subset.n:
        raise SubsetError(f"family {family} rank {rank} has n={n}, "
                          f"subset has n={subset.n}")
    if family == "A":
        if any(i > j for (i, j) in subset.pairs):
            raise SubsetError("type A pairs must respect the flag order i < j")
        if is_closed(n, subset.pairs):
            return subset
        return transitive_closure(n, subset.pairs)
    roots = subset_roots(subset, family)
    positive = positive_roots(family, rank).positive_roots
    for root in roots:
        if root not in positive:
            raise SubsetError(f"{root.name()} is not a positive root")
    closed = root_closure(roots, positive)
    if closed == roots:
        return subset
    return closed_subset_from_roots(family, rank, closed)


def column_sets(subset: ClosedSubset, family: str, rank: int) -> ColumnFamily:
    """S_j = {j} plus the rows that can be nonzero in column j of U_S.

    Every command checks its subset here: one that `closure` refuses or
    does not return unchanged is refused.  The pairs of S serve every
    family, B/C/D ones being saturated already.
    """
    if closure(subset, family, rank) != subset:
        raise SubsetError("subset is not transitively closed" if family == "A"
                          else "root set is not closed")
    return ColumnFamily(subset.n, tuple(
        frozenset({j} | {i for (i, jj) in subset.pairs if jj == j})
        for j in range(1, subset.n + 1)))


def enumerate_closed(n: int) -> list:
    """All transitively closed subsets of {(i, j): i < j}, each a tuple of
    its pairs in lex order, sorted by size and then lexicographically.

    The sets are built one row at a time from row n up.  Row i takes a
    successor set inside {i+1..n} that holds the successors of each of its
    members, the mirror of a predecessor down-set, and its pairs go in front
    of those of the rows below, so every tuple is born sorted.  Rows i..n of
    a closed set are a closed set on {i..n}, so no stage outnumbers the
    last: each stage is counted as it is built and refused with CostError
    once it passes the cost cap, so at most one row's extensions of one set
    are built past the cap.
    """
    if n < 1:
        raise SubsetError("enumeration needs n >= 1")
    subject = f"closed sets for n={n}"
    # a set on rows i..n: (the successor bitmask of each row, row i first,
    # bit n - j standing for j; its pairs)
    sets = [((), ())]
    for i in range(n, 0, -1):
        built = []
        heads = {}  # successor bitmask of row i -> its pairs (i, j)
        for succ, pairs in sets:
            ups = [0]
            for j in range(n, i, -1):  # j joins once all its successors have
                bit, s = 1 << (n - j), succ[j - i - 1]
                ups += [up | bit for up in ups if not s & ~up]
            for up in ups:
                head = heads.get(up)
                if head is None:
                    head = heads[up] = tuple(
                        (i, j) for j in range(i + 1, n + 1) if up >> (n - j) & 1)
                built.append(((up,) + succ, head + pairs))
            check_cost(len(built), subject)
        sets = built
    found = [pairs for _, pairs in sets]
    found.sort()
    found.sort(key=len)
    return found

