"""A family outside A/B/C/D has no index set, flag order or flag levels."""

import pytest

from usinv.points import build_point, build_us, default_index_set, flag_levels
from usinv.subsets import ClosedSubset, column_sets


def test_matrix_family_refused():
    subset = ClosedSubset(3, frozenset({(1, 2)}))
    calls = [lambda: column_sets(subset, "Matrix", 2),
             lambda: build_point(subset, "Matrix", 2),
             lambda: build_point(subset, "Matrix", 2, alpha="minimal"),
             lambda: build_us(subset, "Matrix", 2),
             lambda: default_index_set("Matrix", 2),
             lambda: flag_levels("Matrix", 2)]
    for call in calls:
        with pytest.raises(ValueError, match="unsupported family 'Matrix'"):
            call()
