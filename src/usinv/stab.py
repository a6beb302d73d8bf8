"""Exact Lie-algebra stabilizers of wedge points and weighted points, and
comparison against the span of the root generators of S.

For a weighted point the system is assembled by reduction: surviving flag
summands force A f_k = 0; any surviving weighted summand forces every flag
wedge to be an eigenvector of A, after which the summand contributes
A q_j + alpha_j * (sum of flag traces) q_j = 0.  The reduction is unit-tested
against a direct tensor expansion at small alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import (Matrix, MultiVector, Q0, Q1, SparseMatrix, Summand,
                    mat_add, mat_scale, nullspace, spans_equal, wedge_apply)
from .invars import subset_derivation_matrices
from .points import WeightedPoint
from .rootsys import MatrixLieData
from .subsets import ClosedSubset


class StabilizerError(ValueError):
    pass


@dataclass
class StabilizerReport:
    dimension: int
    basis: list                      # matrices spanning {A in g : A.p = 0}
    algebra_dim: int
    equals_uS: Optional[bool] = None
    nilpotent_part_equals_uS: Optional[bool] = None
    us_dimension: Optional[int] = None

    def to_json(self) -> dict:
        from .exact import frac_str
        out = {
            "dimension": self.dimension,
            "algebra_dim": self.algebra_dim,
            "basis": [[[frac_str(e) for e in row] for row in B]
                      for B in self.basis],
        }
        if self.equals_uS is not None:
            out["equals_uS"] = self.equals_uS
        if self.nilpotent_part_equals_uS is not None:
            out["nilpotent_part_equals_uS"] = self.nilpotent_part_equals_uS
        if self.us_dimension is not None:
            out["us_dimension"] = self.us_dimension
        return out


def _summand_rows(B: Matrix, summand: Summand, n: int) -> dict:
    """Coefficients of the derivation action of B on one wedge block."""
    v = MultiVector(n, [summand])
    w = wedge_apply(B, v, mode="derivation")
    return dict(w.summands[0].comps)


def _trace_prefix(B: Matrix, sigma: tuple, k: int) -> Fraction:
    return sum((B[sigma[i] - 1][sigma[i] - 1] for i in range(k)), start=Q0)


def _weighted_equations(p: WeightedPoint, basis: Sequence[Matrix]):
    """Rows of the linear system for a weighted point (or a limit of one)."""
    rows: dict = {}

    def put(key, col, val):
        if val:
            row = rows.setdefault(key, {})
            row[col] = row.get(col, Q0) + val

    any_summand = any(not s.is_zero() for s in p.summands)
    for r, B in enumerate(basis):
        for k in range(1, p.levels + 1):
            ft = p.flag_tuple(k)
            flag_summand = Summand(k, f"f_{k}", {ft: Q1})
            image = _summand_rows(B, flag_summand, p.n)
            if p.flag_coeffs[k - 1]:
                # surviving flag component: A f_k = 0
                for t, c in image.items():
                    put(("flag", k, t), r, c)
            elif any_summand:
                # flag wedge must be an eigenvector of A
                tr = _trace_prefix(B, p.sigma, k)
                image = dict(image)
                image[ft] = image.get(ft, Q0) - tr
                for t, c in image.items():
                    put(("eig", k, t), r, c)
        if any_summand:
            T = sum((_trace_prefix(B, p.sigma, k)
                     for k in range(1, p.levels + 1)), start=Q0)
            for s in p.summands:
                if s.is_zero():
                    continue
                image = _summand_rows(B, Summand(s.k, s.label, dict(s.comps)), p.n)
                image = dict(image)
                for t, c in s.comps.items():
                    image[t] = image.get(t, Q0) + s.alpha * T * c
                for t, c in image.items():
                    put(("sum", s.label, t), r, c)
    return rows


def _multivector_equations(p: MultiVector, basis: Sequence[Matrix]):
    rows: dict = {}
    for r, B in enumerate(basis):
        for idx, s in enumerate(p.summands):
            if s.is_zero():
                continue
            image = _summand_rows(B, Summand(s.k, s.label, dict(s.comps)), p.n)
            for t, c in image.items():
                key = ("mv", idx, t)
                if c:
                    rows.setdefault(key, {})[r] = c
    return rows


def lie_stabilizer(p, algebra: MatrixLieData) -> StabilizerReport:
    """Solve A.p = 0 for A in the span of the algebra basis."""
    if isinstance(p, MultiVector):
        if p.n != algebra.n:
            raise StabilizerError("dimension mismatch")
        if p.is_zero():
            raise StabilizerError("point is zero")
        rows = _multivector_equations(p, algebra.basis)
    elif isinstance(p, WeightedPoint):
        if p.n != algebra.n:
            raise StabilizerError("dimension mismatch")
        if p.is_zero():
            raise StabilizerError("point is zero")
        rows = _weighted_equations(p, algebra.basis)
    else:
        raise StabilizerError(f"unsupported point type {type(p).__name__}")

    d = len(algebra.basis)
    matrix = SparseMatrix.from_rows([rows[k] for k in sorted(rows)], d)
    kernel = nullspace(matrix)
    basis = []
    for vec in kernel:
        M = [[Q0] * algebra.n for _ in range(algebra.n)]
        for r, c in enumerate(vec):
            if c:
                M = mat_add(M, mat_scale(algebra.basis[r], c))
        basis.append(M)
    report = StabilizerReport(dimension=len(basis), basis=basis,
                              algebra_dim=d)
    for M in basis:
        if not annihilates(M, p):
            raise StabilizerError("reported basis element fails to annihilate")
    return report


def annihilates(A: Matrix, p) -> bool:
    """Exact check that the derivation action of A kills p."""
    if isinstance(p, MultiVector):
        return wedge_apply(A, p, mode="derivation").is_zero()
    rows = _weighted_equations(p, [A])
    return all(all(not v for v in row.values()) for row in rows.values())


def _flatten(M: Matrix) -> dict:
    return {(i, j): M[i][j] for i in range(len(M)) for j in range(len(M))
            if M[i][j]}


def _strict_upper_positions(n: int, sigma: tuple) -> list:
    inv = {v: i for i, v in enumerate(sigma)}
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
            if inv[i] < inv[j]]


def nilpotent_intersection(report: StabilizerReport, sigma: tuple) -> list:
    """Basis of the stabilizer's intersection with the strictly triangular
    part in sigma-order."""
    if not report.basis:
        return []
    n = len(report.basis[0])
    upper = set(_strict_upper_positions(n, sigma))
    rows = {}
    for r, M in enumerate(report.basis):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if (i, j) not in upper and M[i - 1][j - 1]:
                    rows.setdefault((i, j), {})[r] = M[i - 1][j - 1]
    matrix = SparseMatrix.from_rows([rows[k] for k in sorted(rows)],
                                    len(report.basis))
    out = []
    for vec in nullspace(matrix):
        M = [[Q0] * n for _ in range(n)]
        for r, c in enumerate(vec):
            if c:
                M = mat_add(M, mat_scale(report.basis[r], c))
        out.append(M)
    return out


def compare_uS(report: StabilizerReport, subset: ClosedSubset, family: str,
               rank: int, sigma: Optional[tuple] = None) -> tuple:
    """(full equality, nilpotent-part equality) of the stabilizer vs u_S."""
    from .rootsys import flag_permutation
    us = subset_derivation_matrices(subset, family, rank)
    us_vecs = [_flatten(M) for M in us]
    stab_vecs = [_flatten(M) for M in report.basis]
    full = spans_equal(stab_vecs, us_vecs)
    sigma = sigma or flag_permutation(family, rank)
    nil = nilpotent_intersection(report, sigma)
    nil_eq = spans_equal([_flatten(M) for M in nil], us_vecs)
    report.equals_uS = full
    report.nilpotent_part_equals_uS = nil_eq
    report.us_dimension = len(us)
    return full, nil_eq


def is_strictly_triangular(M: Matrix, sigma: tuple) -> bool:
    n = len(M)
    upper = set(_strict_upper_positions(n, sigma))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if M[i - 1][j - 1] and (i, j) not in upper:
                return False
    return True
