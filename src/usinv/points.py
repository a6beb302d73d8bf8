"""Symbolic U_S matrices, wedge-embedding points, and the exponent
conditions on the weight vector alpha; the SO parameter property of the U_S
chart is checked in `statements`.

There is one point type, `exact.MultiVector`.  The plain point p_S is the
direct sum of the wedges of the column sets S_j; the weighted point
p_{S,alpha} is the same sum with flag levels added and each summand tagged
with its power alpha_j of the flag tensor.  Tensor powers of the flag tensor
are never materialized: all downstream computations use the
Leibniz/eigenvector structure on pure tensors.  A point's default index set,
flag order sigma and flag levels come from its family and rank alone.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Optional, Sequence

from .exact import (GradedPoly, Matrix, MultiVector, Q1, SelfCheckError,
                    Summand, exp_nilpotent, mat_mul, pvar)
from .rootsys import ambient_dim, flag_permutation, lie_algebra, root_index
from .subsets import ClosedSubset, ColumnFamily, column_sets, subset_roots


class PointError(ValueError):
    pass


def product_order(subset: ClosedSubset, family: str, rank: int) -> list:
    """(leading entry, basis index) of each generator of S, in the order used
    for the U_S product chart: root height first, ties broken by the
    row-major position (i, j) of the leading entry of the generator."""
    keyed = []
    for root in subset_roots(subset, family):
        k = root_index(family, rank, root)
        support = lie_algebra(family, rank).supports[k]
        lead = min((i, j) for j, col in enumerate(support, start=1)
                   for i, _ in col)
        keyed.append((root.height(family, rank), lead, k))
    return [(lead, k) for _, lead, k in sorted(keyed)]


def _param_names(count: int) -> list:
    letters = "abcdefghijklmnopqrstuvwxyz"
    names = list(letters[:count])
    for k in range(len(letters), count):
        names.append(f"t{k + 1}")
    return names[:count]


class UnipotentPattern:
    """Symbolic product of root-subgroup exponentials, one fresh parameter
    per root, with 1's on the diagonal."""

    def __init__(self, n: int, family: str, rank: int, matrix: Matrix,
                 params: tuple, free_positions: tuple,
                 column_family: ColumnFamily):
        self.n = n
        self.family = family
        self.rank = rank
        self.matrix = matrix                  # entries are GradedPoly
        self.params = params                  # parameter names, product order
        self.free_positions = free_positions  # leading (i, j) per parameter
        self.column_family = column_family

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "family": self.family,
            "params": list(self.params),
            "free_positions": [list(p) for p in self.free_positions],
            "matrix": [[repr(e) for e in row] for row in self.matrix],
        }


def build_us(subset: ClosedSubset, family: str, rank: int) -> UnipotentPattern:
    """The symbolic chart of U_S as a product of exponentials over S."""
    cols = column_sets(subset, family, rank)
    order = product_order(subset, family, rank)
    names = _param_names(len(order))
    M = [[GradedPoly.const(1) if i == j else GradedPoly() for j in range(subset.n)]
         for i in range(subset.n)]
    for name, (_, k) in zip(names, order):
        g = lie_algebra(family, rank).basis[k]
        M = mat_mul(M, exp_nilpotent(g, GradedPoly.var(pvar(name))))
    for i, j in itertools.product(range(1, subset.n + 1), repeat=2):
        if i != j and M[i - 1][j - 1] and i not in cols[j]:
            raise SelfCheckError(f"entry ({i},{j}) escapes the column sets")
    return UnipotentPattern(subset.n, family, rank, M, tuple(names),
                            tuple(lead for lead, _ in order), cols)


def default_index_set(family: str, rank: int) -> tuple:
    """A -> all columns; B/C/D -> the last n-l columns."""
    n = ambient_dim(family, rank)
    return tuple(range(1 if family == "A" else rank + 1, n + 1))


def flag_levels(family: str, rank: int) -> int:
    """Number of flag summands in the extra term: n for A, l for B/C/D."""
    n = ambient_dim(family, rank)
    return n if family == "A" else rank


def flag_prefix_sums(diagonal: Mapping, sigma: tuple, levels: int) -> list:
    """Entry k - 1 sums diagonal[j] over j = sigma(1), ..., sigma(k), for
    k = 1..levels, an absent j counting 0.  For cocharacter weights these
    are the t-exponents of the flag wedges; for the diagonal of a matrix, its
    eigenvalues on them wherever they are eigenvectors."""
    return list(itertools.accumulate(diagonal.get(j, 0)
                                     for j in sigma[:levels]))


def _sigma_order(n: int, sigma: Optional[tuple],
                 index_set: Optional[Sequence[int]]) -> tuple:
    """(pos, order): the 1-based position of each index of the index set in
    sigma, and the index set sorted by it; sigma and the index set default
    to 1..n."""
    sigma = sigma or tuple(range(1, n + 1))
    index_set = tuple(range(1, n + 1) if index_set is None else index_set)
    pos = {j: sigma.index(j) + 1 for j in index_set}
    return pos, sorted(index_set, key=pos.__getitem__)


def alpha_valid(alpha: Sequence[int], n: int, sigma: Optional[tuple] = None,
                index_set: Optional[Sequence[int]] = None) -> bool:
    """Strict growth condition along the sigma-order of the index set:
    alpha_{j_k} > 2 * pos(j_k) * alpha_{j_{k-1}} + 2, positions taken in
    {1..n}.  All entries must be positive integers."""
    pos, order = _sigma_order(n, sigma, index_set)
    if len(alpha) != len(order):
        return False
    if any((not isinstance(a, int)) or a < 1 for a in alpha):
        return False
    by_index = dict(zip(order, alpha))
    prev = None
    for j in order:
        if prev is not None and not by_index[j] > 2 * pos[j] * by_index[prev] + 2:
            return False
        prev = j
    return True


def minimal_alpha(n: int, sigma: Optional[tuple] = None,
                  index_set: Optional[Sequence[int]] = None) -> tuple:
    """Least valid integer sequence starting at 1, in sigma-order of the
    index set."""
    pos, order = _sigma_order(n, sigma, index_set)
    vals = {}
    prev = None
    for j in order:
        vals[j] = 1 if prev is None else 2 * pos[j] * vals[prev] + 3
        prev = j
    return tuple(vals[j] for j in order)


def build_point(subset: ClosedSubset, family: str, rank: int,
                index_set: Optional[Sequence[int]] = None,
                alpha: "str | Sequence[int] | None" = None):
    """p_S (alpha None), with no flag levels, or the weighted point
    p_{S,alpha}, with the flag levels of the family and sigma.

    The weighted point always carries the flag part; alpha may be the string
    "minimal" or an explicit sequence indexed along the sigma-order of the
    index set.
    """
    n = subset.n
    cols = column_sets(subset, family, rank)
    if index_set is None:
        index_set = default_index_set(family, rank)
    index_set = tuple(index_set)
    if not index_set or any(not 1 <= j <= n for j in index_set):
        raise PointError(f"invalid index set {index_set}")
    if len(set(index_set)) != len(index_set):
        raise PointError("index set has repeats")
    if alpha is None:
        parts = [(tuple(sorted(cols[j])), f"S_{j}") for j in sorted(index_set)]
        return MultiVector.pure(n, parts)

    sigma = flag_permutation(family, rank)
    levels = flag_levels(family, rank)
    if isinstance(alpha, str):
        if alpha != "minimal":
            raise PointError(f"unknown alpha policy {alpha!r}")
        alpha_seq = minimal_alpha(n, sigma, index_set)
    else:
        # construction only needs positive integer powers; the growth
        # condition is a precondition of boundary screening, not of the
        # embedding itself
        alpha_seq = tuple(alpha)
        if len(alpha_seq) != len(index_set):
            raise PointError("alpha length must match the index set")
        if any((not isinstance(a, int)) or a < 1 for a in alpha_seq):
            raise PointError("alpha entries must be positive integers")
    _, order = _sigma_order(n, sigma, index_set)
    by_index = dict(zip(order, alpha_seq))
    summands = []
    for j in sorted(index_set):
        t = tuple(sorted(cols[j]))
        summands.append(Summand(len(t), f"S_{j}", {t: Q1}, by_index[j]))
    return MultiVector(n, summands, sigma, levels, [Q1] * levels)
