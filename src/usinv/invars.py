"""Graded invariant spaces of the right U_S action on matrix coordinates,
invariant and principal minors, and degree-bounded generation checks.

The right-translation derivation of a matrix A acts on coordinates by
D_A x_{ij} = sum_k A_{kj} x_{ik}; invariance is tested against generator
derivations only, which suffices by the commutator identity.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from typing import Optional, Sequence

from .exact import (Frozen, GradedPoly, Matrix, Q1, RowEchelon,
                    SelfCheckError, SparseMatrix, check_cost, column_support,
                    nullspace, sort_wedge, xvar)
from .rootsys import lie_algebra
from .subsets import (ClosedSubset, ColumnFamily, column_sets,
                      subset_basis_indices)


class InvariantError(ValueError):
    pass


def check_monomial_cap(n: int, d: int) -> None:
    """Refuse degree d in the n x n matrix coordinates when its monomials
    outnumber the cost cap; they are counted, not built, so nothing is
    solved before a refusal."""
    count = math.comb(n * n + d - 1, d)
    check_cost(count, f"{count} monomials of degree {d}")


def apply_derivation_poly(A: Matrix, f: GradedPoly) -> GradedPoly:
    """D_A f with D_A = sum_{i,j,k} A_{kj} x_{ik} d/dx_{ij}; a variable
    x_{ij} of f outside the n x n matrix A raises ValueError."""
    n = len(A)
    for mono in f.terms:
        for v, _ in mono:
            if v[0] == "x" and not (1 <= v[1] <= n and 1 <= v[2] <= n):
                raise ValueError(f"variable x[{v[1]},{v[2]}] lies outside "
                                 f"the {n} x {n} matrix A")
    return GradedPoly(derivation_terms(column_support(A), f.terms))


def derivation_terms(support: list, terms: dict) -> dict:
    """Terms of D_A f for the matrix A with the given column support: each
    factor x_{ij} of a monomial becomes A_{kj} x_{ik}, accumulated into one
    term dict.  Integral coefficients and support values give int terms."""
    out: dict = {}
    columns = [dict(col) for col in support]
    for mono, c in terms.items():
        for e, m2, a in _factor_images(mono, columns):
            s = out.get(m2, 0) + c * e * a
            if s:
                out[m2] = s
            else:
                out.pop(m2, None)
    return out


def derivation_rows(supports: list, monos: list) -> list:
    """Equations D_A f = 0 on f = sum_c f_c monos[c] for a nonempty list of
    generator supports, in one pass over the monomials: one row {c: coeff}
    per (generator, image monomial) in that order, c ascending, no zero row."""
    columns = [{} for _ in supports[0]]  # j - 1 -> {k: [(a, A_kj)]}
    for a, support in enumerate(supports):
        for col, entries in zip(columns, support):
            for k, val in entries:
                col.setdefault(k, []).append((a, val))
    rows: dict = {}  # image monomial -> {a: row}
    for c, mono in enumerate(monos):
        for e, m2, gens in _factor_images(mono, columns):
            per = rows.setdefault(m2, {})
            for a, val in gens:
                row = per.setdefault(a, {})
                s = row.get(c, 0) + e * val
                if s:
                    row[c] = s
                else:
                    del row[c]
    keys = sorted(rows)
    return [rows[m2][a] for a in range(len(supports)) for m2 in keys
            if rows[m2].get(a)]


def _factor_images(mono: tuple, columns: list):
    """(e, mono / x_{ij} * x_{ik}, columns[j - 1][k]) for each factor x_{ij}^e
    of mono and k in columns[j - 1], by sorted insertion; p's are constants."""
    for pos, (v, e) in enumerate(mono):
        if v[0] != "x" or not columns[v[2] - 1]:
            continue
        rest = mono[:pos] + (((v, e - 1),) if e > 1 else ()) + mono[pos + 1:]
        for k, item in columns[v[2] - 1].items():
            w = ("x", v[1], k)
            at = bisect_left(rest, (w,))
            had = rest[at][1] if at < len(rest) and rest[at][0] == w else 0
            yield e, rest[:at] + ((w, had + 1),) + rest[at + (had > 0):], item


# ---------------------------------------------------------------------------
# minors
# ---------------------------------------------------------------------------

def minor_poly(columns: Sequence[int], rows: Sequence[int]) -> GradedPoly:
    """det over the intersection of the given columns and rows of (x_{ij})."""
    cols = sorted(columns)
    rws = sorted(rows)
    if len(cols) != len(rws) or not cols:
        raise InvariantError("minor needs equally sized nonempty index sets")
    out = GradedPoly()
    for perm in itertools.permutations(range(len(cols))):
        _, sign = sort_wedge(perm)
        mono = {}
        for r, pc in enumerate(perm):
            v = xvar(rws[r], cols[pc])
            mono[v] = mono.get(v, 0) + 1
        key = tuple(sorted(mono.items()))
        out = out + GradedPoly({key: Fraction(sign)})
    return out


class Minor(Frozen):
    _fields = ("columns", "rows")

    def __init__(self, columns: tuple, rows: tuple):
        super().__init__(columns, rows)
        if len(columns) != len(rows) or not columns:
            raise InvariantError("invalid minor shape")

    @property
    def size(self) -> int:
        return len(self.columns)

    def poly(self) -> GradedPoly:
        return minor_poly(self.columns, self.rows)


def is_invariant_minor(minor: Minor, cols: ColumnFamily) -> bool:
    """Combinatorial criterion: S_j inside the column set whenever j is."""
    cset = set(minor.columns)
    return all(set(cols[j]) <= cset for j in cset)


def principal_column_sets(cols: ColumnFamily, sigma: tuple,
                          index_set: Optional[Sequence[int]] = None) -> list:
    """Deduplicated flag column sets plus the S_j, ordered by size then
    lexicographically."""
    n = cols.n
    index_set = tuple(index_set) if index_set is not None else tuple(range(1, n + 1))
    seen = {frozenset(sigma[:m]) for m in range(1, n + 1)}
    seen.update(frozenset(cols[j]) for j in index_set)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def principal_minors(cols: ColumnFamily, sigma: tuple,
                     index_set: Optional[Sequence[int]] = None) -> list:
    """Every principal invariant minor: each principal column set paired
    with all row subsets of matching size."""
    return [Minor(tuple(sorted(cset)), rows)
            for cset in principal_column_sets(cols, sigma, index_set)
            for rows in itertools.combinations(range(1, cols.n + 1), len(cset))]


# ---------------------------------------------------------------------------
# graded invariant spaces
# ---------------------------------------------------------------------------

class InvariantSpace:
    def __init__(self, degree: int, basis: list, dimension: int):
        self.degree = degree
        self.basis = basis  # homogeneous GradedPoly of that degree
        self.dimension = dimension

    def to_json(self) -> dict:
        return {"degree": self.degree, "dimension": self.dimension,
                "basis": [repr(f) for f in self.basis]}


def degree_monomials(n: int, d: int) -> list:
    """All degree-d monomials in the x_{ij}, graded-lex order."""
    vs = [xvar(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    out = []
    for combo in itertools.combinations_with_replacement(vs, d):
        mono = {}
        for v in combo:
            mono[v] = mono.get(v, 0) + 1
        out.append(tuple(sorted(mono.items())))
    return out


def invariant_space(subset: ClosedSubset, family: str, rank: int,
                    d: int) -> InvariantSpace:
    """Basis of degree-d polynomials killed by every generator derivation.

    The equations come from `derivation_rows`, one pass over the monomials
    in int (generator supports are integral); an empty S builds no rows.
    Each kernel vector is re-checked on its own coefficients, and only a
    checked vector becomes a GradedPoly.
    """
    if d < 1:
        raise InvariantError("degree must be positive")
    column_sets(subset, family, rank)  # the subset checks every command makes
    check_monomial_cap(subset.n, d)
    monos = degree_monomials(subset.n, d)
    indices = subset_basis_indices(subset, family, rank)
    supports, rows = [], []
    if indices:  # an empty S builds no algebra: SL_1 has none
        algebra = lie_algebra(family, rank)
        supports = [algebra.supports[k] for k in indices]
        rows = derivation_rows(supports, monos)
    matrix = SparseMatrix.from_rows(rows, len(monos))
    basis = []
    for vec in nullspace(matrix):
        terms = {monos[c]: v for c, v in enumerate(vec) if v}
        if any(derivation_terms(support, terms) for support in supports):
            raise SelfCheckError("invariant basis element fails re-check")
        basis.append(GradedPoly(terms))
    return InvariantSpace(d, basis, len(basis))


# ---------------------------------------------------------------------------
# generation check
# ---------------------------------------------------------------------------

class GenerationReport:
    def __init__(self, degree: int, slack_requested: int, slack_used: int,
                 covered: bool, undecided: bool, graded: Optional[list] = None,
                 witnesses: Optional[list] = None):
        self.degree = degree
        self.slack_requested = slack_requested
        self.slack_used = slack_used
        self.covered = covered
        self.undecided = undecided
        self.graded = [] if graded is None else graded  # per-degree dicts
        # uncovered invariants, repr
        self.witnesses = [] if witnesses is None else witnesses

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "slack_requested": self.slack_requested,
            "slack_used": self.slack_used,
            "covered": self.covered,
            "undecided": self.undecided,
            "graded": self.graded,
            "witnesses": self.witnesses,
        }


def _minor_products(minors: list, budget: int) -> list:
    """Products of minors with total degree within the budget, one polynomial
    per multiset (minor indices non-decreasing)."""
    polys = [(m.size, m.poly()) for m in minors]
    out = []

    def rec(start: int, degree_left: int, acc: GradedPoly):
        for idx in range(start, len(polys)):
            sz, poly = polys[idx]
            if sz > degree_left:
                continue
            prod = acc * poly
            out.append(prod)
            rec(idx, degree_left - sz, prod)

    rec(0, budget, GradedPoly.const(1))
    return out


def generation_check(subset: ClosedSubset, family: str, rank: int,
                     d: int, slack: int = 0,
                     max_slack: int = 2) -> GenerationReport:
    """Test whether every invariant of degree <= d lies in the span of
    products of principal invariant minors, modulo (det - 1) at the given
    truncation.

    A failure is never a refutation: cofactors may need higher degree, so
    failures retry with more slack and then report undecided.
    """
    if family != "A":
        raise InvariantError("generation check is implemented for family A")
    if d < 1:
        raise InvariantError("degree must be positive")
    if slack < 0:
        raise InvariantError("slack must be nonnegative")
    if max_slack < slack:
        raise InvariantError("max slack must be at least the slack")
    n = subset.n
    check_monomial_cap(n, d)
    cols = column_sets(subset, family, rank)
    sigma = tuple(range(1, n + 1))
    minors = principal_minors(cols, sigma)
    inv_spaces = [invariant_space(subset, family, rank, deg)
                  for deg in range(1, d + 1)]
    det_minus_one = minor_poly(range(1, n + 1), range(1, n + 1)) - 1

    products = _minor_products(minors, d)

    def run(s: int):
        hbound = d - n + s * n
        check_monomial_cap(n, max(d, hbound))
        ech = RowEchelon()
        for f in products:
            ech.add(f.terms)
        for deg in range(hbound + 1):
            for mono in degree_monomials(n, deg):
                ech.add((det_minus_one * GradedPoly({mono: Q1})).terms)
        failures = []
        graded = []
        for space in inv_spaces:
            missing = [f for f in space.basis if not ech.contains(f.terms)]
            graded.append({"degree": space.degree, "dimension": space.dimension,
                           "covered": not missing})
            failures.extend(missing)
        return failures, graded

    s = slack
    while True:
        failures, graded = run(s)
        if not failures or s >= max_slack:
            break
        s += 1
    covered = not failures
    return GenerationReport(
        degree=d, slack_requested=slack, slack_used=s,
        covered=covered, undecided=bool(failures),
        graded=graded, witnesses=[repr(f) for f in failures])
