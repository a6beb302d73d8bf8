"""Independent oracles for the test suite: brute-force enumeration, dense
rational elimination, an independent derivation on dense exponent vectors,
GL_n dimensions by the hook content formula, a direct tensor expansion
of weighted points, and the root generators and heights as hand-written
tables.

These deliberately avoid the production code paths they are used to check;
two exceptions reuse a production step on purpose.  `whole_matrix_nullspace`
eliminates every row in one `RowEchelon`, to check the singleton-row presolve
of `exact.nullspace`, and `oracle_column_sets` saturates the induced pairs of
a B/C/D root set a second time, to check that `closed_subset_from_roots`
saturates them once for good.  `closed_subsets` is no oracle: it wraps the
enumerated pair tuples for tests that sweep over `ClosedSubset` objects.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from usinv.exact import RowEchelon
from usinv.rootsys import ambient_dim
from usinv.subsets import (ClosedSubset, enumerate_closed, pairs_from_roots,
                           transitive_closure)

Q0 = Fraction(0)
Q1 = Fraction(1)


# ---------------------------------------------------------------------------
# determinants by cofactor expansion
# ---------------------------------------------------------------------------

def cofactor_det(M):
    """Determinant by expansion along the first row."""
    m = len(M)
    if m == 0:
        return Q1
    total = Q0
    for c in range(m):
        minor = [row[:c] + row[c + 1:] for row in M[1:]]
        total += (-1) ** c * M[0][c] * cofactor_det(minor)
    return total


def minor(A, rows, cols):
    """Minor of A on the given 1-based rows and columns."""
    return cofactor_det([[A[r - 1][c - 1] for c in cols] for r in rows])


def transpose(M):
    return [list(col) for col in zip(*M)]


# ---------------------------------------------------------------------------
# closed subsets by brute force
# ---------------------------------------------------------------------------

def oracle_is_closed(n, pairs):
    """Transitivity via boolean matrix squaring."""
    M = [[False] * n for _ in range(n)]
    for (i, j) in pairs:
        M[i - 1][j - 1] = True
    for i in range(n):
        for j in range(n):
            two_step = any(M[i][k] and M[k][j] for k in range(n))
            if two_step and i != j and not M[i][j]:
                return False
    return True


def oracle_roots_closed(roots, positive):
    """Whether no sum of two of the roots is a positive root outside them,
    on coefficient vectors."""
    chosen = {r.coeffs for r in roots}
    pos = {r.coeffs for r in positive}
    return all(s in chosen or s not in pos
               for a, b in itertools.combinations(chosen, 2)
               for s in [tuple(x + y for x, y in zip(a, b))])


def oracle_column_sets(family, rank, roots):
    """Column sets S_1..S_n of a closed B/C/D root set, entry j - 1 for S_j,
    from the transitive closure of its induced pairs."""
    n = ambient_dim(family, rank)
    pairs = transitive_closure(n, pairs_from_roots(family, rank, roots)).pairs
    return tuple(frozenset({j} | {i for (i, jj) in pairs if jj == j})
                 for j in range(1, n + 1))


@functools.cache
def oracle_closed_sets(n):
    """Closed subsets of the upper pairs by exhaustive filter over every pair
    subset, each a lex-sorted tuple of pairs, sorted by (size, lex)."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = (tuple(pairs[b] for b in range(len(pairs)) if mask >> b & 1)
              for mask in range(1 << len(pairs)))
    return sorted((ps for ps in chosen if oracle_is_closed(n, ps)),
                  key=lambda ps: (len(ps), ps))


def oracle_closed_count(n):
    """Count closed subsets of the upper pairs by exhaustive filter."""
    return len(oracle_closed_sets(n))


def closed_subsets(n):
    """`enumerate_closed(n)` as `ClosedSubset` objects, in its order."""
    return [ClosedSubset(n, frozenset(ps)) for ps in enumerate_closed(n)]


# ---------------------------------------------------------------------------
# dense rational elimination
# ---------------------------------------------------------------------------

def dense_rref(rows):
    """Textbook Gauss-Jordan elimination on dense Fraction rows: the nonzero
    rows of the reduced row echelon form, each with pivot 1."""
    rows = [list(map(Fraction, r)) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        pv = rows[row][col]
        rows[row] = [x / pv for x in rows[row]]
        for r in range(len(rows)):
            if r != row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[row])]
        row += 1
        if row == len(rows):
            break
    return rows[:row]


def dense_rank(rows):
    return len(dense_rref(rows))


def dense_nullity(rows, ncols):
    return ncols - dense_rank(rows) if rows else ncols


def dense_kernel(rows, ncols):
    """Kernel basis of dense rows over ncols columns, one vector per free
    column of the reduced row echelon form."""
    rref = dense_rref(rows)
    pivots = [next(c for c, x in enumerate(r) if x) for r in rref]
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Q0] * ncols
        vec[f] = Q1
        for r, p in zip(rref, pivots):
            vec[p] = -r[f]
        out.append(vec)
    return out


def whole_matrix_nullspace(m):
    """Kernel basis of a SparseMatrix with all of its rows in one
    RowEchelon, without the singleton-row presolve of `exact.nullspace`; an
    oracle for that presolve only."""
    rows = [{} for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    ech = RowEchelon()
    for row in rows:
        ech.add(row)
    basis = {f: [Q0] * m.cols for f in range(m.cols) if f not in ech.pivots}
    for f, vec in basis.items():
        vec[f] = Q1
    for p, prow in ech.pivots.items():
        for f, c in prow.items():
            if f != p:
                basis[f][p] = -c
    return list(basis.values())


def same_span(a, b):
    """Whether two lists of dense vectors span the same space."""
    return dense_rank(a) == dense_rank(b) == dense_rank(list(a) + list(b))


def pair_generators(subset):
    """The matrix units E_ij, one per pair (i, j) of a type A subset, in
    sorted pair order: the generators of u_S."""
    out = []
    for i, j in sorted(subset.pairs):
        M = [[Q0] * subset.n for _ in range(subset.n)]
        M[i - 1][j - 1] = Q1
        out.append(M)
    return out


# ---------------------------------------------------------------------------
# root generators and heights by hand-written tables
# ---------------------------------------------------------------------------

def oracle_root_matrix(family, rank, root):
    """The generator of a root, spelled out case by case: every entry of
    every B/C/D pattern and its sign written by hand.  Form e_i <-> e_{l+i}
    (antisymmetric for C, plus e_n <-> e_n for B)."""
    n = ambient_dim(family, rank)
    l = rank
    M = [[Q0] * n for _ in range(n)]

    def put(*entries):
        for (i, j), c in entries:
            M[i - 1][j - 1] = Fraction(c)
        return M

    sup = dict(root.support())
    idx = sorted(sup)
    if family == "A":
        i, j = idx
        return put(((i, j), 1) if sup[i] == 1 else ((j, i), 1))
    if len(idx) == 2:
        a, b = idx
        if sup[a] + sup[b] == 0:
            if sup[a] == 1:                       # L_a - L_b
                return put(((a, b), 1), ((l + b, l + a), -1))
            return put(((b, a), 1), ((l + a, l + b), -1))
        sign = 1 if family == "C" else -1
        if sup[a] == 1:                           # L_a + L_b
            return put(((b, l + a), 1), ((a, l + b), sign))
        return put(((l + a, b), 1), ((l + b, a), sign))
    (a,) = idx
    if family == "C":                             # +-2L_a
        return put(((a, l + a) if sup[a] == 2 else (l + a, a), 1))
    if sup[a] == 1:                               # L_a of B
        return put(((a, n), 1), ((n, l + a), -1))
    return put(((l + a, n), 1), ((n, a), -1))


def oracle_height(family, rank, root):
    """Height of a positive root, case by case per family and root shape."""
    sup = dict(root.support())
    idx = sorted(sup)
    l = rank
    if family == "A":
        i, j = idx
        return j - i
    if len(idx) == 2:
        i, j = idx
        if sup[i] + sup[j] == 0:
            return j - i
        return {"B": 2 * l + 2, "C": 2 * l + 1, "D": 2 * l}[family] - i - j
    (i,) = idx
    return l - i + 1 if sup[i] == 1 else 2 * (l - i) + 1


def is_strictly_triangular(M, sigma):
    """Whether every nonzero entry (i, j) of M has i before j in sigma."""
    pos = {v: k for k, v in enumerate(sigma)}
    n = len(M)
    return all(not M[i - 1][j - 1] or pos[i] < pos[j]
               for i in range(1, n + 1) for j in range(1, n + 1))


def reference_compare_uS(basis, us, sigma):
    """(full, nilpotent-part) equality of span(basis) with span(us) on
    flattened matrix entries.  The nilpotent part is the meet of span(basis)
    with the matrices that are strictly upper triangular in sigma order."""
    n = len(sigma)
    pos = {v: k for k, v in enumerate(sigma)}

    def flat(M):
        return [Fraction(M[i][j]) for i in range(n) for j in range(n)]

    vecs = [flat(M) for M in basis]
    off_upper = [i * n + j for i in range(n) for j in range(n)
                 if pos[i + 1] >= pos[j + 1]]
    rows = [[v[e] for v in vecs] for e in off_upper]
    nil = [[sum(y * v[e] for y, v in zip(ys, vecs)) for e in range(n * n)]
           for ys in dense_kernel(rows, len(vecs))]
    us_vecs = [flat(M) for M in us]
    return same_span(vecs, us_vecs), same_span(nil, us_vecs)


# ---------------------------------------------------------------------------
# independent derivation on dense exponent vectors
# ---------------------------------------------------------------------------

def dense_monomials(nvars, degree):
    """Exponent tuples of the given total degree, lexicographic."""
    def rec(pos, left):
        if pos == nvars - 1:
            yield (left,)
            return
        for e in range(left, -1, -1):
            for rest in rec(pos + 1, left - e):
                yield (e,) + rest
    return list(rec(0, degree))


def dense_derivation_image(A, mono, n):
    """D_A on an exponent tuple over variables x_{11},...,x_{nn} (row-major).

    Returns {exponent tuple: Fraction}."""
    out = {}
    for v in range(n * n):
        e = mono[v]
        if not e:
            continue
        i, j = divmod(v, n)
        for k in range(n):
            a = A[k][j]
            if not a:
                continue
            target = v - j + k  # x_{i,k+1}
            new = list(mono)
            new[v] -= 1
            new[target] += 1
            key = tuple(new)
            out[key] = out.get(key, Q0) + Fraction(e) * a
    return {k: v for k, v in out.items() if v}


def oracle_invariant_dimension(generator_matrices, n, degree):
    """Dimension of degree-d polynomials killed by all generator
    derivations, by dense elimination."""
    monos = dense_monomials(n * n, degree)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for A in generator_matrices:
        images = [dense_derivation_image(A, m, n) for m in monos]
        targets = sorted({t for img in images for t in img})
        for t in targets:
            rows.append([images[c].get(t, Q0) for c in range(len(monos))])
    return dense_nullity(rows, len(monos))


# ---------------------------------------------------------------------------
# GL_n representation dimensions by the hook content formula
# ---------------------------------------------------------------------------

def partitions(d, max_parts):
    """Partitions of d with at most max_parts parts, parts non-increasing."""
    def rec(left, largest, parts):
        if left == 0:
            yield ()
            return
        if parts == 0:
            return
        for k in range(min(left, largest), 0, -1):
            for rest in rec(left - k, k, parts - 1):
                yield (k,) + rest
    return list(rec(d, d, max_parts))


def gl_dimension(shape, n):
    """dim V_lambda of GL_n: the product over the boxes of the diagram of
    (n + content) / hook length."""
    conj = [sum(part > c for part in shape)
            for c in range(max(shape, default=0))]
    out = Q1
    for r, part in enumerate(shape):
        for c in range(part):
            hook = (part - c) + (conj[c] - r) - 1
            out *= Fraction(n + c - r, hook)
    return out


def polynomial_unipotent_invariants(n, d):
    """Dimension of the degree-d polynomials on n x n matrices that are
    invariant under the upper unitriangular group acting on one side: by
    the Cauchy decomposition C[Mat_n]_d = sum over lambda |- d with at most
    n rows of V_lambda^* (x) V_lambda, each V_lambda has a one-dimensional
    space of highest weight vectors, so this is the sum of dim V_lambda
    (Fulton, Young Tableaux, ch. 8)."""
    return sum(gl_dimension(shape, n) for shape in partitions(d, n))


# ---------------------------------------------------------------------------
# direct tensor expansion of weighted points
# ---------------------------------------------------------------------------

def _wedge_derivation(A, t, n):
    """Leibniz action of A on a pure ascending wedge, ascending output."""
    out = {}
    for pos, i in enumerate(t):
        for k in range(n):
            a = A[k][i - 1]
            if not a:
                continue
            new = list(t)
            new[pos] = k + 1
            if len(set(new)) != len(new):
                continue
            inv = sum(1 for x, y in itertools.combinations(new, 2) if x > y)
            key = tuple(sorted(new))
            sign = -1 if inv % 2 else 1
            out[key] = out.get(key, Q0) + sign * a
    return {k: v for k, v in out.items() if v}


def tensor_stabilizer_dimension(point, basis):
    """Stabilizer dimension from the fully expanded tensor representation.

    Every block of the weighted point is materialized as a list of pure
    wedge factors; the derivation acts slot by slot."""
    n = point.n
    blocks = []
    flags = [tuple(sorted(point.sigma[:k])) for k in range(1, point.levels + 1)]
    for s in point.summands:
        comps = {t: c for t, c in s.comps.items() if c}
        if not comps:
            continue
        if len(comps) != 1:
            raise ValueError("oracle expects pure summands")
        ((t0, c0),) = comps.items()
        factors = [t0]
        for _ in range(s.alpha):
            factors.extend(flags)
        blocks.append((factors, c0))
    for k, c in enumerate(point.flag_coeffs, start=1):
        if c:
            blocks.append(([flags[k - 1]], c))

    rows = {}
    for r, A in enumerate(basis):
        for bi, (factors, c0) in enumerate(blocks):
            for pos in range(len(factors)):
                image = _wedge_derivation(A, factors[pos], n)
                for t, coeff in image.items():
                    key = (bi,) + tuple(factors[:pos]) + (t,) + tuple(factors[pos + 1:])
                    row = rows.setdefault(key, {})
                    row[r] = row.get(r, Q0) + coeff * c0
    dense = []
    for key in sorted(rows):
        dense.append([rows[key].get(r, Q0) for r in range(len(basis))])
    return dense_nullity(dense, len(basis))


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------

def random_rational_matrix(n, rng, den=3, num=4):
    return [[Fraction(rng.randint(-num, num), rng.randint(1, den))
             for _ in range(n)] for _ in range(n)]


def random_closed_pairs(n, rng):
    """A random transitively closed set of upper pairs."""
    pairs = set()
    for (i, j) in itertools.combinations(range(1, n + 1), 2):
        if rng.random() < 0.4:
            pairs.add((i, j))
    changed = True
    while changed:
        changed = False
        for (i, j) in list(pairs):
            for (j2, k) in list(pairs):
                if j == j2 and i != k and (i, k) not in pairs:
                    pairs.add((i, k))
                    changed = True
    return frozenset(pairs)
