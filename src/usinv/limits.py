"""One-parameter degeneration engine: monomial-curve limits and codimension
screening over cocharacter grids.  The diagonal exponent inequalities and the
upper-triangular wedge coefficient identity are checked in `statements`.

Limits are taken along monomial curves lambda(t) = diag(t^{w_1},...,t^{w_n}),
optionally conjugated by constant unipotent matrices; every coefficient is an
exact Laurent ledger in t, so divergence detection never suffers cancellation
errors.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .exact import (Frozen, Matrix, MultiVector, Q0, Summand, apply_group,
                    check_cost, column_support)
from .points import (alpha_valid, build_point, default_index_set,
                     flag_prefix_sums)
from .rootsys import ambient_dim, flag_permutation, lie_algebra
from .stab import lie_stabilizer
from .subsets import ClosedSubset


class LimitError(ValueError):
    pass


class Cocharacter(Frozen):
    """Integer diagonal weight vector; the curve diag(t^{w_1},...,t^{w_n}).

    Family constraints: A needs weight sum 0; B/C/D need w_{l+i} = -w_i
    (and w_n = 0 for B).  Any other family is refused.
    """

    _fields = ("family", "rank", "weights")

    def __init__(self, family: str, rank: int, weights: tuple):
        super().__init__(family, rank, weights)
        w = self.weights
        if any(not isinstance(x, int) for x in w):
            raise LimitError("weights must be integers")
        if self.family == "A":
            if sum(w) != 0:
                raise LimitError("type A weights must sum to zero")
        elif self.family in ("B", "C", "D"):
            l = self.rank
            if len(w) != ambient_dim(self.family, l):
                raise LimitError("weight vector has wrong length")
            for i in range(l):
                if w[l + i] != -w[i]:
                    raise LimitError("weights must satisfy w_{l+i} = -w_i")
            if self.family == "B" and w[-1] != 0:
                raise LimitError("type B needs w_n = 0")
        else:
            raise LimitError(f"unsupported family {self.family!r}")


class LimitOutcome:
    def __init__(self, kind: str, value: Optional[MultiVector] = None,
                 ledger: Optional[dict] = None,
                 negative_witness: Optional[tuple] = None):
        self.kind = kind    # "converges" | "diverges"
        self.value = value  # the limit point when finite
        # component key -> t-exponent
        self.ledger = {} if ledger is None else ledger
        self.negative_witness = negative_witness  # (key, exponent), divergent

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "ledger": [{"key": _key_str(k), "exponent": e}
                       for k, e in sorted(self.ledger.items(),
                                          key=lambda kv: _key_str(kv[0]))],
        }
        if self.negative_witness is not None:
            out["negative_witness"] = {
                "key": _key_str(self.negative_witness[0]),
                "exponent": self.negative_witness[1],
            }
        if self.kind == "converges" and self.value is not None:
            out["value"] = self.value.to_json()
        return out


def _key_str(key) -> str:
    head = key[0]
    if head == "flag":
        return f"flag[{key[1]}]"
    idx = key[1]
    return f"{head}[" + ",".join(str(x) for x in idx) + "]"


def _is_unitriangular(M: Matrix, sigma: tuple) -> bool:
    n = len(M)
    inv = {v: i for i, v in enumerate(sigma)}
    for i in range(n):
        if M[i][i] != 1:
            return False
        for j in range(n):
            if i != j and M[i][j] and not inv[i + 1] < inv[j + 1]:
                return False
    return True


def _graded_apply(comps: dict, weights: tuple, shift: int,
                  u: Optional[list], uprime: Optional[list]) -> dict:
    """Exponent ledger of (wedge . u . lambda(t) . uprime) for one block,
    every exponent raised by `shift`; u and uprime are column supports.

    Returns {tuple: {exponent: coefficient}}, exponents ascending."""
    if u is not None:
        comps = apply_group(u, comps)
    slices: dict[int, dict] = {}
    for t, c in comps.items():
        e = shift + sum(weights[i - 1] for i in t)
        slices.setdefault(e, {})[t] = c
    out: dict = {}
    for e, comp in sorted(slices.items()):
        if uprime is not None:
            comp = apply_group(uprime, comp)
        for t, c in comp.items():
            if c:
                out.setdefault(t, {})[e] = c
    return out


def cochar_limit(p: MultiVector, lam: Cocharacter, u: Optional[Matrix] = None,
                 uprime: Optional[Matrix] = None) -> LimitOutcome:
    """Limit of (u.p).lambda(t).uprime as t -> 0.

    Divergence means some symbolically nonzero coefficient carries a negative
    t-exponent; otherwise the exponent-zero part is returned and the ledger
    records the leading exponent of every nonzero component.  Each summand's
    exponents are raised by alpha_j times the sum E of the flag prefix sums,
    and each flag level enters the ledger with its prefix sum.  On a point
    with flag levels the conjugators must be unitriangular in sigma-order;
    with none, E is 0 and there is no flag, so any conjugators do.
    """
    w = lam.weights
    if len(w) != p.n:
        raise LimitError("weight length mismatch")
    for M in (u, uprime):
        if M is None:
            continue
        if len(M) != p.n or any(len(row) != p.n for row in M):
            raise LimitError(f"conjugators must be {p.n} x {p.n} matrices")
        if p.levels and not _is_unitriangular(M, p.sigma):
            raise LimitError("conjugators must be unipotent upper "
                             "triangular in sigma-order")
    supports = [None if M is None else column_support(M) for M in (u, uprime)]
    ledger: dict = {}
    negative: Optional[tuple] = None

    def note(key, lead: int):
        nonlocal negative
        ledger[key] = min(lead, ledger.get(key, lead))
        if lead < 0 and negative is None:
            negative = (key, lead)

    def limit_block(comps: dict, label: str, shift: int) -> dict:
        """The exponent-zero part of one block, its exponents noted."""
        comp0 = {}
        for t, lau in _graded_apply(comps, w, shift, *supports).items():
            note((label, t), min(lau))
            if 0 in lau:
                comp0[t] = lau[0]
        return comp0

    prefixes = flag_prefix_sums(dict(enumerate(w, start=1)), p.sigma,
                                p.levels)
    E = sum(prefixes)
    summands = [Summand(s.k, s.label,
                        limit_block(s.comps, s.label or f"c{idx}",
                                    s.alpha * E), s.alpha)
                for idx, s in enumerate(p.summands)]
    flags = []
    for k, (c, e) in enumerate(zip(p.flag_coeffs, prefixes), start=1):
        if c:
            note(("flag", k), e)
        flags.append(c if c and e == 0 else Q0)
    value = MultiVector(p.n, summands, p.sigma, p.levels, flags)
    if negative is not None:
        return LimitOutcome("diverges", ledger=ledger,
                            negative_witness=negative)
    return LimitOutcome("converges", value, ledger)


# ---------------------------------------------------------------------------
# codimension screening
# ---------------------------------------------------------------------------

class ScreenReport:
    def __init__(self, family: str, rank: int, radius: int,
                 us_dimension: int, total: int = 0, diverged: int = 0,
                 converged: int = 0, histogram: Optional[dict] = None,
                 witnesses: Optional[list] = None):
        self.family = family
        self.rank = rank
        self.radius = radius
        self.us_dimension = us_dimension
        self.total = total
        self.diverged = diverged
        self.converged = converged
        # excess -> count
        self.histogram = {} if histogram is None else histogram
        # excess-1 cocharacters
        self.witnesses = [] if witnesses is None else witnesses

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "rank": self.rank,
            "radius": self.radius,
            "us_dimension": self.us_dimension,
            "total": self.total,
            "diverged": self.diverged,
            "converged": self.converged,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "witnesses": [{"weights": list(w), "stab_dimension": d}
                          for (w, d) in self.witnesses],
            "passed": self.passed,
        }


def cocharacter_grid(family: str, rank: int, radius: int):
    """All cocharacters with entries bounded by the radius, family
    constraints enforced, in lexicographic order of the weight vectors.
    Radius 0 is refused: its grid holds only the zero cocharacter, whose
    limit is the point itself, so a screen over it screens no boundary.
    The grid walks (2 * radius + 1) ** rank heads (rank = n - 1 for type A),
    counted before any curve is built and refused above the cost cap."""
    if radius < 1:
        raise LimitError("radius must be at least 1")
    heads = (2 * radius + 1) ** rank
    check_cost(heads, f"{heads} cocharacter grid heads at radius {radius}")
    n = ambient_dim(family, rank)
    out = []
    if family == "A":
        for head in itertools.product(range(-radius, radius + 1), repeat=n - 1):
            last = -sum(head)
            if abs(last) <= radius:
                out.append(Cocharacter(family, rank, head + (last,)))
    else:
        l = rank
        for head in itertools.product(range(-radius, radius + 1), repeat=l):
            w = list(head) + [-x for x in head]
            if family == "B":
                w.append(0)
            out.append(Cocharacter(family, rank, tuple(w)))
    out.sort(key=lambda c: c.weights)
    return out


def grosshans_screen(subset: ClosedSubset, family: str, rank: int,
                     alpha, radius: int) -> ScreenReport:
    """Sweep monomial curves and flag any finite limit whose stabilizer
    dimension exceeds dim u_S by exactly one (a codimension-1 boundary
    witness).  Labeled screening, not proof."""
    algebra = lie_algebra(family, rank)
    if alpha is not None and not isinstance(alpha, str):
        index_set = default_index_set(family, rank)
        if not alpha_valid(tuple(alpha), ambient_dim(family, rank),
                           flag_permutation(family, rank), index_set):
            raise LimitError("alpha does not satisfy the growth condition")
    p = build_point(subset, family, rank, alpha=alpha)
    us_dim = subset.size
    report = ScreenReport(family, rank, radius, us_dim)
    for lam in cocharacter_grid(family, rank, radius):
        report.total += 1
        outcome = cochar_limit(p, lam)
        if outcome.kind == "diverges":
            report.diverged += 1
            continue
        report.converged += 1
        q = outcome.value
        if q.is_zero():
            # the zero limit is fixed by the whole algebra
            stab_dim = len(algebra.basis)
        else:
            stab_dim = lie_stabilizer(q, algebra).dimension
        excess = stab_dim - us_dim
        report.histogram[excess] = report.histogram.get(excess, 0) + 1
        if excess == 1:
            report.witnesses.append((lam.weights, stab_dim))
    return report
