"""Statements of the paper about the points it builds, checked exactly:
the diagonal exponent inequalities, the upper-triangular wedge coefficient
identity, the SO parameter property and strongly separated column families.

No command runs these checks, and no module of the package imports this
one, so a `usinv` process never compiles it; the tests and acceptance
criteria do.  Polynomial substitution lives here too, since only the SO
parameter property substitutes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .exact import (GradedPoly, Matrix, Q0, Q1, apply_group, column_support,
                    xvar)
from .limits import LimitError
from .points import PointError, UnipotentPattern, flag_prefix_sums
from .subsets import ColumnFamily, SubsetError


def substitute(f: GradedPoly, assignment: Mapping) -> GradedPoly:
    """Substitute polynomials or constants for variables of f."""
    res = GradedPoly()
    for m, c in f.terms.items():
        term = GradedPoly.const(c)
        for v, e in m:
            if v in assignment:
                term = term * GradedPoly.coerce(assignment[v]) ** e
            else:
                term = term * GradedPoly({((v, e),): Q1})
        res = res + term
    return res


def single_linear_parameter(f: GradedPoly) -> tuple | None:
    """If the polynomial f is c*v for a single variable v, return v."""
    if len(f.terms) != 1:
        return None
    (mono, _), = f.terms.items()
    if len(mono) == 1 and mono[0][1] == 1:
        return mono[0][0]
    return None


def mat_substitute(A: Matrix, assignment: Mapping) -> Matrix:
    return [[substitute(e, assignment) if isinstance(e, GradedPoly) else e
             for e in row] for row in A]


class ExponentLemmaReport:
    def __init__(self, hypotheses_met: bool,
                 weighted_sum: Optional[int] = None,
                 sum_positive: Optional[bool] = None,
                 twice_plus: Optional[bool] = None,
                 twice_minus: Optional[bool] = None):
        self.hypotheses_met = hypotheses_met
        self.weighted_sum = weighted_sum  # E = sum of prefix sums
        self.sum_positive = sum_positive  # E > 0
        self.twice_plus = twice_plus      # 2E + w_j > 0 for all j
        self.twice_minus = twice_minus    # 2E - w_j > 0 for all j

    @property
    def all_hold(self) -> bool:
        return bool(self.hypotheses_met and self.sum_positive
                    and self.twice_plus and self.twice_minus)


def exponent_lemma_check(w: Sequence[int],
                         sigma: Optional[tuple] = None) -> ExponentLemmaReport:
    """Monomial shadow of the weighted diagonal product inequalities.

    Hypotheses: every prefix sum of w in sigma-order is >= 0 and some entry
    is positive.  Conclusions, as strict exponent positivity: E > 0,
    2E + w_j > 0 and 2E - w_j > 0 for every j, where E is the sum of the
    prefix sums (the exponent of the weighted diagonal product)."""
    n = len(w)
    sigma = sigma or tuple(range(1, n + 1))
    prefixes = flag_prefix_sums(dict(enumerate(w, start=1)), sigma, n)
    if any(pp < 0 for pp in prefixes) or not any(x > 0 for x in w):
        return ExponentLemmaReport(hypotheses_met=False)
    E = sum(prefixes)
    return ExponentLemmaReport(
        hypotheses_met=True,
        weighted_sum=E,
        sum_positive=E > 0,
        twice_plus=all(2 * E + x > 0 for x in w),
        twice_minus=all(2 * E - x > 0 for x in w),
    )


def wedge_coefficient_check(cols: ColumnFamily, s: int, t: int):
    """For symbolic upper-triangular b vanishing on the column-set positions,
    the coefficient of e_s ^ (wedge of S_t minus t) in (wedge of S_t).b is
    epsilon * b_{st} * prod of b_{ii} over S_t minus t.

    Returns (holds, epsilon) with epsilon the sign sorting the index tuple."""
    n = cols.n
    if not (1 <= s < t <= n):
        raise LimitError("need s < t within range")
    st = cols[t]
    if s in st:
        raise LimitError("s must lie outside S_t")
    b = [[GradedPoly() for _ in range(n)] for _ in range(n)]
    for i in range(1, n + 1):
        b[i - 1][i - 1] = GradedPoly.var(xvar(i, i))
        for j in range(i + 1, n + 1):
            if i not in cols[j] - {j}:
                b[i - 1][j - 1] = GradedPoly.var(xvar(i, j))
    source = tuple(sorted(st))
    image = apply_group(column_support(b), {source: Q1})
    rest = sorted(st - {t})
    target = tuple(sorted([s] + rest))
    eps = (-1) ** sum(1 for a in rest if a > s)
    expected = GradedPoly.var(xvar(s, t))
    for i in rest:
        expected = expected * GradedPoly.var(xvar(i, i))
    expected = expected * Fraction(eps)
    actual = GradedPoly.coerce(image.get(target, Q0))
    return actual == expected, eps


def so_parameter_property(u: UnipotentPattern) -> bool:
    """Zeroing all entries off the (i, i+l) diagonal that the column sets
    allow must force the (i, i+l) entries to vanish.

    Solved triangularly: repeatedly zero any parameter standing alone
    linearly in such an entry.
    """
    if u.family not in ("B", "D"):
        raise PointError("property applies to families B and D only")
    l = u.rank
    cols = u.column_family
    visible = [(i, j) for j in range(1, u.n + 1) for i in sorted(cols[j])
               if j != i and j != i + l]
    special = [(i, i + l) for i in range(1, l + 1)]
    M = [row[:] for row in u.matrix]
    changed = True
    while changed:
        changed = False
        for (i, j) in visible:
            e = M[i - 1][j - 1]
            if isinstance(e, GradedPoly):
                v = single_linear_parameter(e)
                if v is not None:
                    M = mat_substitute(M, {v: Q0})
                    changed = True
    if any(M[i - 1][j - 1] for (i, j) in visible):
        return False
    return not any(M[i - 1][j - 1] for (i, j) in special)


def elementwise_less(a: Iterable[int], b: Iterable[int]) -> bool:
    """a <e b: every element of a is below every element of b (vacuous if
    either side is empty)."""
    a, b = set(a), set(b)
    if not a or not b:
        return True
    return max(a) < min(b)


def strongly_separated(family_of_sets: Sequence[Iterable[int]]) -> bool:
    """Every pair (C1, C2) has elementwise comparable differences."""
    sets = [frozenset(s) for s in family_of_sets]
    if any(not s for s in sets):
        raise SubsetError("sets must be nonempty")
    for c1, c2 in itertools.combinations(sets, 2):
        d1, d2 = c1 - c2, c2 - c1
        if not (elementwise_less(d1, d2) or elementwise_less(d2, d1)):
            return False
    return True
