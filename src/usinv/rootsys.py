"""Root-system data and concrete matrix realizations for types A, B, C, D.

Each family's Lie algebra is a MatrixLieData, a matrix basis validated once;
`stab.lie_stabilizer` takes any validated presentation, not only these.

Conventions (fixed so that the worked examples are exact test vectors):
the bilinear form pairs e_i with e_{l+i} — symmetric for B/D (plus
Q(e_n, e_n) = 1 when n = 2l+1), antisymmetric for C.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import Optional

from .exact import (Frozen, Matrix, Q1, RowEchelon, column_support, eij,
                    zeros)

FAMILIES = ("A", "B", "C", "D")


class RootSystemError(ValueError):
    pass


class Root(Frozen):
    """Integer coefficient vector over the diagonal functionals L_1..L_n.

    For B/C/D only the first l coordinates are used (L_{l+i} = -L_i on the
    torus); forms L_i - L_j, L_i + L_j, L_i and 2L_i are all representable.
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple):
        super().__init__(coeffs)
        if not any(coeffs):
            raise RootSystemError("zero vector is not a root")

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coeffs))

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def support(self) -> list:
        return [(i + 1, c) for i, c in enumerate(self.coeffs) if c]

    def name(self) -> str:
        parts = []
        for i, c in self.support():
            if c == 1:
                parts.append(("+" if parts else "") + f"L{i}")
            elif c == -1:
                parts.append(f"-L{i}")
            else:
                sign = "+" if (c > 0 and parts) else ""
                parts.append(f"{sign}{c}L{i}")
        return "".join(parts)

    def height(self, family: str, rank: int) -> int:
        """Sum of coefficients over the simple roots of the family."""
        sup = dict(self.support())
        if family == "A":
            (i, j) = sorted(sup)
            return j - i
        l = rank
        idx = sorted(sup)
        if len(idx) == 2:
            i, j = idx
            if sup[i] + sup[j] == 0:
                return j - i
            if family == "B":
                return 2 * l + 2 - i - j
            if family == "C":
                return 2 * l + 1 - i - j
            return 2 * l - i - j  # D
        (i,) = idx
        if sup[i] == 1:  # short root of B
            return l - i + 1
        return 2 * (l - i) + 1  # long root 2L_i of C

    def __repr__(self) -> str:
        return f"Root({self.name()})"


def parse_root(text: str, n: int) -> Root:
    """Parse names like 'L1-L2', 'L1+L2', '2L1', 'L3', spaces removed: terms
    [0-9]*L[0-9]+ joined by signs, the first sign optional; anything else is
    refused."""
    token = text.replace(" ", "")
    if not re.fullmatch(r"[+-]?[0-9]*L[0-9]+([+-][0-9]*L[0-9]+)*", token):
        raise RootSystemError(f"cannot parse root {text!r}")
    coeffs = [0] * n
    for sign, mult, idx in re.findall(r"([+-]?)([0-9]*)L([0-9]+)", token):
        if not 1 <= int(idx) <= n:
            raise RootSystemError(f"index out of range in root {text!r}")
        coeffs[int(idx) - 1] += (-1 if sign == "-" else 1) * int(mult or 1)
    return Root(tuple(coeffs))


class RootSystem(Frozen):
    _fields = ("family", "rank", "n", "positive_roots")

    def __init__(self, family: str, rank: int, n: int, positive_roots: tuple):
        super().__init__(family, rank, n, positive_roots)


def ambient_dim(family: str, rank: int) -> int:
    if family == "A":
        return rank + 1
    if family == "B":
        return 2 * rank + 1
    if family in ("C", "D"):
        return 2 * rank
    raise RootSystemError(f"unsupported family {family!r}")


@functools.lru_cache(maxsize=None)
def positive_roots(family: str, rank: int) -> RootSystem:
    """All positive roots, sorted lexicographically on coefficient vectors.
    Memoized: the result is immutable."""
    if family not in FAMILIES:
        raise RootSystemError(f"unsupported family {family!r}")
    if rank < 1 or (family == "D" and rank < 2):
        raise RootSystemError(f"unsupported rank {rank} for family {family}")
    n = ambient_dim(family, rank)
    roots = []

    def vec(pairs):
        v = [0] * n
        for i, c in pairs:
            v[i - 1] = c
        return Root(tuple(v))

    if family == "A":
        for i, j in itertools.combinations(range(1, n + 1), 2):
            roots.append(vec([(i, 1), (j, -1)]))
    else:
        l = rank
        for i, j in itertools.combinations(range(1, l + 1), 2):
            roots.append(vec([(i, 1), (j, -1)]))
            roots.append(vec([(i, 1), (j, 1)]))
        if family == "B":
            for i in range(1, l + 1):
                roots.append(vec([(i, 1)]))
        if family == "C":
            for i in range(1, l + 1):
                roots.append(vec([(i, 2)]))
    roots.sort(key=lambda r: r.coeffs)
    return RootSystem(family, rank, n, tuple(roots))


def bilinear_form(family: str, rank: int) -> Optional[Matrix]:
    """The invariant form Q, or None for type A."""
    if family == "A":
        return None
    n = ambient_dim(family, rank)
    l = rank
    Q = zeros(n)
    for i in range(l):
        if family == "C":
            Q[i][l + i] = Q1
            Q[l + i][i] = -Q1
        else:
            Q[i][l + i] = Q1
            Q[l + i][i] = Q1
    if family == "B":
        Q[n - 1][n - 1] = Q1
    return Q


def root_subgroup_matrix(family: str, rank: int, root: Root) -> Matrix:
    """Nilpotent generator g_alpha in the fixed basis.

    exp(t*g_alpha) lies in the group: determinant 1, and for B/C/D the
    identity Q(gv, gw) = Q(v, w) holds exactly.
    """
    n = ambient_dim(family, rank)
    if root.n != n:
        raise RootSystemError("root has wrong ambient dimension")
    roots = positive_roots(family, rank).positive_roots
    if root not in roots and -root not in roots:
        raise RootSystemError(f"{root.name()} is not a root of {family}{rank}")
    sup = dict(root.support())
    if family == "A":
        (i, j) = sorted(sup)
        return eij(n, i, j) if sup[i] == 1 else eij(n, j, i)
    l = rank
    idx = sorted(sup)
    if len(idx) == 2:
        a, b = idx
        ca, cb = sup[a], sup[b]
        if ca + cb == 0:
            if ca == 1:  # L_a - L_b
                return _pair(n, (a, b), (l + b, l + a))
            return _pair(n, (b, a), (l + a, l + b))
        sign = Q1 if family == "C" else -Q1
        if ca == 1:  # L_a + L_b
            return _pair(n, (b, l + a), (a, l + b), sign)
        # -(L_a + L_b)
        return _pair(n, (l + a, b), (l + b, a), sign)
    (a,) = idx
    c = sup[a]
    if family == "C":
        if c == 2:
            return eij(n, a, l + a)
        return eij(n, l + a, a)
    # short roots of B
    if c == 1:
        return _pair(n, (a, n), (n, l + a))
    return _pair(n, (l + a, n), (n, a))


def _pair(n: int, first: tuple, second: tuple, c=-Q1) -> Matrix:
    """E_first + c * E_second for two distinct 1-based positions."""
    M = eij(n, *first)
    M[second[0] - 1][second[1] - 1] = c
    return M


def flag_permutation(family: str, rank: int) -> tuple:
    """Permutation sigma ordering a flag preserved by the positive Borel."""
    n = ambient_dim(family, rank)
    if family == "A":
        return tuple(range(1, n + 1))
    l = rank
    order = list(range(1, l + 1))
    if family == "B":
        order.append(2 * l + 1)
    order.extend(range(2 * l, l, -1))
    return tuple(order)


class MatrixLieData(Frozen):
    """A Lie algebra presented by a matrix basis.

    basis spans the algebra; torus_basis is the diagonal part; form is the
    invariant bilinear form when one exists.  supports holds the
    column_support of each basis element, computed once here; it is not a
    field, so equality and repr leave it out.
    """

    _fields = ("n", "basis", "torus_basis", "form")

    def __init__(self, n: int, basis: tuple, torus_basis: tuple,
                 form: Optional[Matrix] = None):
        super().__init__(n, basis, torus_basis, form)
        named = [(f"basis element {k}", B) for k, B in enumerate(self.basis)]
        named += [(f"torus basis element {k}", T)
                  for k, T in enumerate(self.torus_basis)]
        if self.form is not None:
            named.append(("form", self.form))
        for name, M in named:
            if len(M) != self.n or any(len(row) != self.n for row in M):
                raise RootSystemError(f"{name} is not {self.n} x {self.n}")
        supports = tuple(column_support(B) for B in self.basis)
        object.__setattr__(self, "supports", supports)
        entries = [{(i - 1, j): a for j, col in enumerate(support)
                    for i, a in col} for support in supports]
        ech = RowEchelon()
        for k, vec in enumerate(entries):
            if not ech.add(vec):
                raise RootSystemError(f"basis element {k} is linearly dependent")
        for T in self.torus_basis:
            for i in range(self.n):
                for j in range(self.n):
                    if i != j and T[i][j]:
                        raise RootSystemError("torus basis element is not diagonal")
        if self.form is not None:
            form = [(i, j, q) for i, row in enumerate(self.form)
                    for j, q in enumerate(row) if q]
            for k, vec in enumerate(entries):
                # B^T Q + Q B over the nonzero entries of B and Q
                skew: dict = {}
                for (i, j), b in vec.items():
                    for r, c, q in form:
                        if r == i:
                            skew[j, c] = skew.get((j, c), 0) + b * q
                        if c == i:
                            skew[r, j] = skew.get((r, j), 0) + q * b
                if any(skew.values()):
                    raise RootSystemError(
                        f"basis element {k} is not compatible with the form")


@functools.cache
def lie_algebra(family: str, rank: int) -> MatrixLieData:
    """The standard presentation of sl/so/sp as MatrixLieData.  Memoized:
    built and validated once per (family, rank) per process and shared by
    every caller, which must not mutate it.

    Basis order: torus first, then root vectors sorted by coefficient
    vector (negatives by their positive partner, after it).
    """
    n = ambient_dim(family, rank)
    if family == "A":
        torus = tuple(_pair(n, (i, i), (i + 1, i + 1)) for i in range(1, n))
    else:
        l = rank
        torus = tuple(_pair(n, (i, i), (l + i, l + i)) for i in range(1, l + 1))
    system = positive_roots(family, rank)
    basis = list(torus)
    for root in system.positive_roots:
        basis.append(root_subgroup_matrix(family, rank, root))
        basis.append(root_subgroup_matrix(family, rank, -root))
    return MatrixLieData(n=n, basis=tuple(basis), torus_basis=torus,
                         form=bilinear_form(family, rank))


@functools.cache
def root_index(family: str, rank: int, root: Root) -> int:
    """Index of the generator of a positive or negative root in the basis of
    lie_algebra(family, rank): rank + 2 * position among the positive roots,
    plus 1 for a negative root.  Needs no algebra to be built.  Memoized."""
    roots = positive_roots(family, rank).positive_roots
    if root in roots:
        return rank + 2 * roots.index(root)
    if -root in roots:
        return rank + 2 * roots.index(-root) + 1
    raise RootSystemError(f"{root.name()} is not a root of {family}{rank}")


def root_system_to_json(system: RootSystem) -> dict:
    width = system.n if system.family == "A" else system.rank
    return {
        "family": system.family,
        "rank": system.rank,
        "n": system.n,
        "roots": [list(r.coeffs[:width]) for r in system.positive_roots],
    }

