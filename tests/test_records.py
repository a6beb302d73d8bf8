"""Record classes: value types compare, hash and refuse assignment by their
fields, and reports get fresh default containers: what a dataclass would
generate, kept by plain classes that do not import `dataclasses`."""

import pytest

from usinv.exact import MultiVector, SparseMatrix, Summand
from usinv.invars import GenerationReport, Minor
from usinv.limits import Cocharacter, LimitOutcome, ScreenReport
from usinv.rootsys import (MatrixLieData, Root, RootSystem, lie_algebra,
                           positive_roots)
from usinv.stab import StabilizerReport
from usinv.statements import ExponentLemmaReport
from usinv.subsets import ClosedSubset, ColumnFamily


def _algebra():
    a = lie_algebra("C", 2)
    return MatrixLieData(a.n, a.basis, a.torus_basis, form=a.form)


# (factory of equal fresh instances, fields in constructor order, hashable)
VALUES = {
    "Root": (lambda: Root((1, -1, 0)), ("coeffs",), True),
    "RootSystem": (lambda: RootSystem(
        "B", 2, 5, positive_roots("B", 2).positive_roots),
                   ("family", "rank", "n", "positive_roots"), True),
    "MatrixLieData": (_algebra, ("n", "basis", "torus_basis", "form"), False),
    "ClosedSubset": (lambda: ClosedSubset(4, [(1, 3), (2, 4)]),
                     ("n", "pairs", "source_roots"), True),
    "ColumnFamily": (lambda: ColumnFamily(
        2, (frozenset({1}), frozenset({1, 2}))), ("n", "sets"), True),
    "Minor": (lambda: Minor((1, 2), (2, 3)), ("columns", "rows"), True),
    "Cocharacter": (lambda: Cocharacter("A", 2, (1, 0, -1)),
                    ("family", "rank", "weights"), True),
    "Summand": (lambda: Summand(2, "S_2", {(1, 2): 1}, 1),
                ("k", "label", "comps", "alpha"), False),
    "MultiVector": (lambda: MultiVector(
        3, [Summand(1, "S_1", {(1,): 1})], (1, 2, 3), 1, [1]),
        ("n", "summands", "sigma", "levels", "flag_coeffs"), False),
}
FROZEN = {"Root", "RootSystem", "MatrixLieData", "ClosedSubset",
          "ColumnFamily", "Minor", "Cocharacter"}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_semantics(name):
    make, fields, hashable = VALUES[name]
    a, b = make(), make()
    values = tuple(getattr(a, f) for f in fields)
    assert a is not b and a == b and not a != b
    assert type(a)(*values) == a
    other = type(f"Other{name}", (type(a),), {})
    assert other(*values) != a and a != other(*values)
    assert a != values
    if hashable:
        assert hash(a) == hash(b) and len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)
    if name in FROZEN:
        with pytest.raises(AttributeError):
            setattr(a, fields[0], values[0])
        with pytest.raises(AttributeError):
            delattr(a, fields[0])
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a == b
    else:
        setattr(a, fields[0], None)
        assert a != b


def test_algebra_equality_ignores_supports():
    a = _algebra()
    assert a.supports == lie_algebra("C", 2).supports
    assert a == lie_algebra("C", 2)
    assert "supports" not in repr(a)


def test_repr_names_the_fields():
    assert repr(ClosedSubset(3, [(1, 2)])) == (
        "ClosedSubset(n=3, pairs=frozenset({(1, 2)}), source_roots=None)")
    assert repr(Root((1, -1))) == "Root(L1-L2)"


@pytest.mark.parametrize("make, attrs", [
    (lambda: ScreenReport("A", 3, 5, 0), ("histogram", "witnesses")),
    (lambda: GenerationReport(3, 0, 0, True, False), ("graded", "witnesses")),
    (lambda: LimitOutcome("converges"), ("ledger",)),
    (lambda: SparseMatrix(2, 2), ("entries",)),
    (lambda: MultiVector(2, []), ("flag_coeffs",)),
], ids=["ScreenReport", "GenerationReport", "LimitOutcome", "SparseMatrix",
        "MultiVector"])
def test_default_containers_are_fresh(make, attrs):
    a, b = make(), make()
    for attr in attrs:
        box = getattr(a, attr)
        assert not box and box is not getattr(b, attr)
        if isinstance(box, dict):
            box[1] = 1
        else:
            box.append(1)
        assert not getattr(b, attr) and not getattr(make(), attr)


def test_keyword_construction():
    report = StabilizerReport(dimension=0, basis=[], algebra_dim=3, kernel=[])
    assert (report.equals_uS, report.nilpotent_part_equals_uS,
            report.us_dimension) == (None, None, None)
    assert report.to_json() == {"dimension": 0, "algebra_dim": 3,
                                "basis": []}
    lemma = ExponentLemmaReport(hypotheses_met=False)
    assert lemma.weighted_sum is None and not lemma.all_hold
    outcome = LimitOutcome("diverges", ledger={"k": -1},
                           negative_witness=("k", -1))
    assert outcome.value is None and outcome.ledger == {"k": -1}
    assert ClosedSubset(n=3, pairs={(1, 2)}, source_roots=()).size == 0
    assert Cocharacter(family="A", rank=1, weights=(1, -1)).weights == (1, -1)
    assert Summand(k=1, label="S_1", comps={}).alpha == 0
    assert MultiVector(n=2, summands=[], levels=0).sigma == ()
