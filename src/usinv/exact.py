"""Exact arithmetic substrate: rationals, sparse polynomials, exterior algebra,
and sparse linear algebra on one incremental reduced row echelon form.
Polynomial substitution, which no command needs, is in `statements`.

`MultiVector` is the one point type: a labeled direct sum of wedge powers.
The plain point p_S has no flag levels; the weighted point p_{S,alpha} adds
flag levels along a permutation sigma and tags each summand with its power
alpha_j of the flag tensor, which is 0 on a point with no flag levels.

Coefficients are exact: an `int` wherever a value is integral, else a
`fractions.Fraction`, or a `GradedPoly` over those.  Integral values stay
`int` because integer arithmetic is several times cheaper than `Fraction`
arithmetic (`int_if_integral` narrows a `Fraction` on the way in), and every
division goes through `Fraction`, so no floating point arises anywhere.
Callers with integral input, such as the invariant equations, assemble their
matrices in `int`.  `nullspace` first presolves: a row with one entry forces
its column to 0 in every kernel vector, so the column is dropped from every
other row, to a fixed point.  What is left is eliminated in one
`RowEchelon`; the forced columns' unit rows and its pivots are the unique
reduced echelon form of the whole matrix.

Wedge tuples are strictly increasing and 1-based.  A Leibniz term replaces
one factor of a sorted tuple, so its sign comes from the position where the
new index is inserted; inversion counting remains only in `sort_wedge` and
`apply_group`.

The two policies every module shares live here too: `SelfCheckError` for a
failed self-check, and `check_cost`, the one cost guard.  So do `Value` and
`Frozen`, the bases of the package's records: the package defines no
dataclass, because importing `dataclasses` (which loads `inspect`) and
running its generated code took longer than a `stab` command computes.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_left
from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping, Optional, Sequence, Union

Q0 = Fraction(0)
Q1 = Fraction(1)


def int_if_integral(c):
    """c as an int when it is an integral Fraction; any other value, a
    non-integral Fraction or a GradedPoly included, unchanged.  The exact
    type test skips `isinstance`, which pays `ABCMeta.__instancecheck__` on
    every int because Fraction is a `numbers.Rational`."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


class SelfCheckError(RuntimeError):
    """An internal self-check failed: a defect of the program, never of the
    input, so it is deliberately not a ValueError."""


class CostError(ValueError):
    """Estimated work over the cost cap, or a cap that is not a positive
    integer: a usage error."""


DEFAULT_CAP = 5000


def check_cost(count: int, subject: str) -> None:
    """The one cost guard: refuse `count` units of work, named by `subject`,
    above the cap, DEFAULT_CAP unless USINV_CAP overrides it with a positive
    integer; any other USINV_CAP is refused."""
    text = os.environ.get("USINV_CAP") or str(DEFAULT_CAP)
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise CostError(f"USINV_CAP must be a positive integer, not {text!r}")
    if count > cap:
        raise CostError(f"{subject} exceed the cap {cap}; "
                        f"raise it with USINV_CAP")


class Value:
    """Equality and repr by the attributes named in `_fields`; an instance
    of another class is never equal.  Unhashable, as a mutable record."""

    _fields: tuple = ()
    __hash__ = None

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"


class Frozen(Value):
    """An immutable `Value`.  `__init__` stores the fields, in `_fields`
    order, and their tuple, which equality and hashing read, so an instance
    hashes as that tuple; assigning or deleting any attribute afterwards
    raises AttributeError."""

    def __init__(self, *values):
        # object.__setattr__ keeps the attributes in the instance's inline
        # values; writing to self.__dict__ would make every later read slower
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_values", values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def xvar(i: int, j: int) -> tuple:
    """Matrix-entry variable x_{ij} (1-based)."""
    return ("x", i, j)


def pvar(name: str) -> tuple:
    """Named free parameter."""
    return ("p", name)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------

class GradedPoly:
    """Sparse multivariate polynomial over Fraction.

    Terms map a monomial (sorted tuple of (variable, exponent) pairs, all
    exponents positive) to a nonzero Fraction.  Variables are tuples such as
    ("x", i, j) or ("p", "a"); any fixed total order on them works and tuple
    order is used throughout for determinism.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, Fraction] | None = None):
        self.terms: dict[tuple, Fraction] = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[mono] = c

    @staticmethod
    def const(c) -> "GradedPoly":
        c = Fraction(c)
        return GradedPoly({(): c} if c else {})

    @staticmethod
    def var(v: tuple) -> "GradedPoly":
        return GradedPoly({((v, 1),): Q1})

    @staticmethod
    def coerce(x) -> "GradedPoly":
        if isinstance(x, GradedPoly):
            return x
        return GradedPoly.const(x)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((), Q0)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.const(other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other) -> "GradedPoly":
        other = GradedPoly.coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Q0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        res = GradedPoly()
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "GradedPoly":
        res = GradedPoly()
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other) -> "GradedPoly":
        return self + (-GradedPoly.coerce(other))

    def __rsub__(self, other) -> "GradedPoly":
        return GradedPoly.coerce(other) + (-self)

    def __mul__(self, other) -> "GradedPoly":
        other = GradedPoly.coerce(other)
        out: dict[tuple, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, Q0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        res = GradedPoly()
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "GradedPoly":
        if e < 0:
            raise ValueError("negative power")
        res = GradedPoly.const(1)
        base = self
        while e:
            if e & 1:
                res = res * base
            base = base * base
            e >>= 1
        return res

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            vs = "*".join(f"{_var_str(v)}^{e}" if e > 1 else _var_str(v)
                          for v, e in m)
            if not vs:
                parts.append(str(c))
            elif c == 1:
                parts.append(vs)
            elif c == -1:
                parts.append(f"-{vs}")
            else:
                parts.append(f"{c}*{vs}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def mono_mul(m1: tuple, m2: tuple) -> tuple:
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _var_str(v: tuple) -> str:
    if v[0] == "x":
        return f"x[{v[1]},{v[2]}]"
    return str(v[1])


# GradedPoly is falsy exactly when it has no terms, so `not c` tests any
# coefficient for zero
Coeff = Union[Fraction, int, GradedPoly]


# ---------------------------------------------------------------------------
# dense matrices over Fraction / GradedPoly (small n)
# ---------------------------------------------------------------------------

Matrix = list  # list of rows; entry (i, j) 1-based lives at M[i-1][j-1]


def zeros(n: int, m: int | None = None) -> Matrix:
    m = n if m is None else m
    return [[Q0 for _ in range(m)] for _ in range(n)]


def identity(n: int) -> Matrix:
    M = zeros(n)
    for i in range(n):
        M[i][i] = Q1
    return M


def eij(n: int, i: int, j: int, c: Coeff = Q1) -> Matrix:
    """Matrix with single entry c at 1-based position (i, j)."""
    M = zeros(n)
    M[i - 1][j - 1] = c
    return M


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A: Matrix, c: Coeff) -> Matrix:
    return [[c * a for a in row] for row in A]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    k, m = len(B), len(B[0])
    Bt = list(zip(*B))
    return [[sum((row[t] * Bt[c][t] for t in range(k)), start=Q0)
             for c in range(m)] for row in A]


def mat_is_zero(A: Matrix) -> bool:
    return not any(c for row in A for c in row)


def exp_nilpotent(X: Matrix, scale: Coeff = Q1) -> Matrix:
    """exp(scale*X) for nilpotent X; terminates because some power vanishes."""
    n = len(X)
    out = identity(n)
    power = identity(n)
    k = 0
    while True:
        k += 1
        power = mat_mul(power, X)
        if mat_is_zero(power):
            return out
        if k > n:
            raise ValueError("matrix is not nilpotent")
        c = scale ** k * Fraction(1, factorial(k))
        out = mat_add(out, mat_scale(power, c))


# ---------------------------------------------------------------------------
# multivectors: labeled direct sums of wedge powers
# ---------------------------------------------------------------------------

def sort_wedge(idx: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort a wedge index tuple; return (ascending tuple, sign), sign 0 on repeats."""
    idx = tuple(idx)
    if len(set(idx)) != len(idx):
        return idx, 0
    inversions = sum(1 for a, b in itertools.combinations(idx, 2) if a > b)
    return tuple(sorted(idx)), -1 if inversions % 2 else 1


class Summand(Value):
    """One wedge-power component: degree k, label, sparse coefficients, and
    the power alpha of the flag tensor it is tagged with (0 on a point with
    no flag levels; the power is stored, never expanded)."""

    _fields = ("k", "label", "comps", "alpha")

    def __init__(self, k: int, label: str, comps: dict, alpha: int = 0):
        self.k = k
        self.label = label
        # strictly increasing tuple -> Fraction | GradedPoly
        self.comps = comps
        self.alpha = alpha

    def is_zero(self) -> bool:
        return not any(self.comps.values())


class MultiVector(Value):
    """Element of a labeled direct sum of wedge powers of C^n: the plain
    point p_S, or with flag levels the weighted point p_{S,alpha}.

    A weighted point adds `levels` flag summands: flag_coeffs[k-1] is the
    coefficient of e_{sigma(1)} ^ ... ^ e_{sigma(k)}, each 1 on a fresh point
    and possibly 0 on a limit of one.
    """

    _fields = ("n", "summands", "sigma", "levels", "flag_coeffs")

    def __init__(self, n: int, summands: list, sigma: tuple = (),
                 levels: int = 0, flag_coeffs: Optional[list] = None):
        self.n = n
        self.summands = summands  # list[Summand]
        self.sigma = sigma
        self.levels = levels
        self.flag_coeffs = [] if flag_coeffs is None else flag_coeffs

    def is_zero(self) -> bool:
        return (all(s.is_zero() for s in self.summands)
                and not any(self.flag_coeffs))

    def flag_tuple(self, k: int) -> tuple:
        # sign-free: every equation involving the flag wedge is homogeneous
        # in it, so the sorted tuple is the right basis key
        t, _ = sort_wedge(self.sigma[:k])
        return t

    def alphas(self) -> dict:
        return {s.label: s.alpha for s in self.summands}

    @staticmethod
    def pure(n: int, parts: Sequence[tuple[Sequence[int], str]]) -> "MultiVector":
        """Direct sum of unit pure wedges: [(indices, label), ...]."""
        summands = []
        for idx, label in parts:
            t, sign = sort_wedge(idx)
            if sign == 0:
                summands.append(Summand(len(idx), label, {}))
            else:
                summands.append(Summand(len(t), label, {t: Fraction(sign)}))
        return MultiVector(n, summands)

    def to_json(self) -> dict:
        if not self.levels:
            return {
                "shape": [{"k": s.k, "label": s.label} for s in self.summands],
                "components": [
                    {"summand": s.label, "idx": list(t), "coeff": frac_str(c)}
                    for s in self.summands
                    for t, c in sorted(s.comps.items())
                    if c
                ],
            }
        return {
            "n": self.n,
            "sigma": list(self.sigma),
            "flag_levels": self.levels,
            "summands": [{
                "label": s.label,
                "alpha": s.alpha,
                "k": s.k,
                "components": [{"idx": list(t), "coeff": frac_str(c)}
                               for t, c in sorted(s.comps.items())],
            } for s in self.summands],
            "flag": [{"level": k, "coeff": frac_str(c)}
                     for k, c in enumerate(self.flag_coeffs, start=1)],
        }


def column_support(A: Matrix) -> list:
    """Nonzero entries of A by column: entry j - 1 lists (row, value) of
    column j, rows 1-based and ascending; integral values as int."""
    return [[(r, int_if_integral(a)) for r, a in enumerate(col, start=1) if a]
            for col in zip(*A)]


def wedge_apply(A: Matrix, v: MultiVector, mode: str = "group") -> MultiVector:
    """Apply a matrix to a multivector.

    Group mode sends a pure wedge e_{i1} ^ ... ^ e_{ik} to the wedge of the
    columns of A at those indices; derivation mode applies the Leibniz rule
    one factor at a time.  Results are re-sorted to strictly increasing
    tuples with signs.  A point with flag levels is refused: its flag part
    and alpha powers would be dropped from the image.
    """
    if len(A) != v.n or any(len(row) != v.n for row in A):
        raise ValueError(f"matrix must be {v.n} x {v.n} for this multivector")
    if v.levels:
        raise ValueError("wedge_apply takes a point with no flag levels")
    support = column_support(A)
    if mode == "group":
        images = [apply_group(support, s.comps) for s in v.summands]
    elif mode == "derivation":
        index = column_index([support], v.n)
        images = [leibniz(index, s.comps).get(0, {}) for s in v.summands]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return MultiVector(v.n, [Summand(s.k, s.label, image)
                             for s, image in zip(v.summands, images)])


def _add_term(comps: dict, t: tuple, c) -> None:
    if t in comps:
        s = comps[t] + c
        if s:
            comps[t] = s
        else:
            del comps[t]
    elif c:
        comps[t] = c


def apply_group(support: list, comps: Mapping) -> dict:
    """Group image of sparse wedge components under the matrix with the given
    column support: each tuple goes to the wedge of the columns at its
    indices, re-sorted with signs."""
    out: dict = {}
    for t, c in comps.items():
        for choice in itertools.product(*(support[i - 1] for i in t)):
            rows = tuple(r for r, _ in choice)
            st, sign = sort_wedge(rows)
            if sign == 0:
                continue
            prod = c
            for _, a in choice:
                prod = prod * a
            _add_term(out, st, prod if sign > 0 else -prod)
    return out


def column_index(supports: Sequence[list], n: int) -> list:
    """Nonzero entries of several n x n matrices by column, from their column
    supports: entry j - 1 lists (r, i, a) for the entry a at row i of column
    j of matrix r, r ascending."""
    return [[(r, i, a) for r, support in enumerate(supports)
             for i, a in support[j]] for j in range(n)]


def leibniz(index: list, comps: Mapping) -> dict:
    """Derivation images of sparse wedge components under every matrix of a
    column index, as {r: {tuple: coeff}} for each matrix r that reaches a
    term; an image that cancels out is an empty dict.

    Factor j of each tuple t is replaced by every row i of column j.  The
    diagonal term keeps t, a row already in t gives a repeated factor and
    drops out, and any other row is inserted into the rest of t at its
    sorted position q, with sign (-1)^(pos - q) for the factor's position
    pos in t.
    """
    out: dict = {}
    for t, c in comps.items():
        if not c:
            continue
        for pos, j in enumerate(t):
            rest = t[:pos] + t[pos + 1:]
            for r, i, a in index[j - 1]:
                if i == j:
                    u, term = t, c * a
                elif i in rest:
                    continue
                else:
                    q = bisect_left(rest, i)
                    u = rest[:q] + (i,) + rest[q:]
                    term = c * a if (pos - q) % 2 == 0 else -(c * a)
                image = out.get(r)
                if image is None:
                    out[r] = {u: term}
                elif u in image:
                    s = image[u] + term
                    if s:
                        image[u] = s
                    else:
                        del image[u]
                else:
                    image[u] = term
    return out


# ---------------------------------------------------------------------------
# sparse exact linear algebra
# ---------------------------------------------------------------------------

class SparseMatrix:
    """Sparse matrix over the rationals with 0-based (row, col) keys; each
    entry is an int when integral and a Fraction otherwise."""

    def __init__(self, rows: int, cols: int, entries: Optional[dict] = None):
        self.rows = rows
        self.cols = cols
        self.entries = {} if entries is None else entries

    @staticmethod
    def from_rows(rows: Sequence[Mapping[int, "int | Fraction"]],
                  cols: int) -> "SparseMatrix":
        entries = {(r, c): int_if_integral(v) for r, row in enumerate(rows)
                   for c, v in row.items() if v}
        return SparseMatrix(len(rows), cols, entries)


class RowEchelon:
    """Incremental reduced row echelon form over the rationals, with
    arbitrary mutually comparable keys as coordinates.

    Invariant: each pivot row has its least key as pivot, with coefficient 1
    there, and no entry at any other pivot key.  This is the only elimination
    engine: span membership, ranks and kernels all go through it.

    Entries are int or Fraction and mix freely; integral input is kept as
    int, so rows with +-1 pivots are eliminated in integer arithmetic: such a
    row is kept, or negated, as it is.  The one division, normalizing any
    other pivot, goes through Fraction.
    """

    def __init__(self):
        self.pivots: dict = {}  # pivot key -> normalized row dict

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: Mapping) -> dict:
        """Remainder of vec after clearing every pivot key; pivot rows carry
        no other pivot keys, so one pass over those keys suffices."""
        out = {k: int_if_integral(v) for k, v in vec.items() if v}
        for key in [k for k in out if k in self.pivots]:
            c = out[key]
            for k, v in self.pivots[key].items():
                s = out.get(k, 0) - c * v
                if s:
                    out[k] = s
                else:
                    del out[k]
        return out

    def add(self, vec: Mapping) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        rem = self.reduce(vec)
        if not rem:
            return False
        key = min(rem)
        pivot = rem[key]
        if pivot == 1:
            row = rem
        elif pivot == -1:
            row = {k: -v for k, v in rem.items()}
        else:
            # 1 / int would be a float
            inv = 1 / Fraction(pivot)
            row = {k: int_if_integral(v * inv) for k, v in rem.items()}
        # clear the new pivot key from the other pivot rows
        for prow in self.pivots.values():
            c = prow.get(key)
            if c:
                for k, v in row.items():
                    s = prow.get(k, 0) - c * v
                    if s:
                        prow[k] = s
                    else:
                        del prow[k]
        self.pivots[key] = row
        return True

    def contains(self, vec: Mapping) -> bool:
        return not self.reduce(vec)


def nullspace(m: SparseMatrix) -> list[list["int | Fraction"]]:
    """Deterministic kernel basis read off the reduced echelon form.

    A presolve runs first: each row with exactly one entry forces its
    column, forced columns are dropped from the other rows, and rows left
    empty are dropped.  A row may become a singleton only once another
    column is forced, so this repeats until no pass forces a new column;
    each pass is linear in the entries left.  A forced column c is 0 in every
    kernel vector, so it is never free, and its reduced row is the unit row
    {c: 1}: the row's entries at free columns f are minus the kernel
    vectors' values at c, all 0.  The reduced rows of the other pivots are
    0 at every forced column, so they are the reduced echelon form of the
    rows left over.

    The rows left over go into one `RowEchelon`.  Rows whose column sets
    are disjoint never touch each other there: clearing a pivot key from a
    row that lacks it changes nothing, so splitting the rows into blocks of
    columns that share a row would give the same pivots.  The unit rows and
    those pivots are the reduced row echelon form of the whole matrix, which
    is unique, so the basis is the same as for one elimination of all rows.

    Each free column f yields one basis vector with 1 at f, 0 at every other
    free column and -pivots[p][f] at each pivot column p.  The pivot columns
    are the greedy column basis of m, so the basis depends only on m.
    """
    rows: list[dict] = [{} for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        if v:
            rows[r][c] = v
    rows = [row for row in rows if row]
    forced: set = set()
    while True:
        new = {next(iter(row)) for row in rows if len(row) == 1}
        if not new:
            break
        forced |= new
        rest = []
        for row in rows:
            if len(row) > 1:
                if not new.isdisjoint(row):
                    row = {c: v for c, v in row.items() if c not in new}
                if row:
                    rest.append(row)
        rows = rest
    ech = RowEchelon()
    for row in rows:
        ech.add(row)
    pivots: dict = {c: {c: 1} for c in forced}
    pivots.update(ech.pivots)
    basis = {f: [Q0] * m.cols for f in range(m.cols) if f not in pivots}
    for f, vec in basis.items():
        vec[f] = 1
    for p, prow in pivots.items():
        for f, c in prow.items():
            if f != p:
                basis[f][p] = -c
    return list(basis.values())


def spans_equal(vectors_a: Iterable[Mapping], vectors_b: Iterable[Mapping]) -> bool:
    ech_a = RowEchelon()
    for v in vectors_a:
        ech_a.add(v)
    ech_b = RowEchelon()
    for v in vectors_b:
        ech_b.add(v)
    if ech_a.rank != ech_b.rank:
        return False
    return all(ech_a.contains(row) for row in ech_b.pivots.values())


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def frac_str(c: Coeff) -> str:
    if type(c) is int:
        return f"{c}/1"
    if isinstance(c, GradedPoly):
        if c.is_constant():
            c = c.constant_value()
        else:
            return repr(c)
    # int and Fraction both carry numerator and denominator
    return f"{c.numerator}/{c.denominator}"

