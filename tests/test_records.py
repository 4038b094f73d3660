"""Records: immutable named tuples that compare and hash by value.

Construction still validates where it did: `BimatrixGame` here, and
`MixedProfile` in `test_nash.py::test_mixed_profile_validation`.
"""

from fractions import Fraction as F

import pytest

from ewlgames import (
    Q_OP,
    BimatrixGame,
    MeasurementPair,
    MixedProfile,
    UnitaryParams,
    VariantKind,
    build_extension,
    classify,
    find_isomorphism,
    make_game,
    support_enumeration,
    variant,
)
from ewlgames.selfcheck import Claim


def _pd():
    return make_game(("C", "D"), ("C", "D"), [[(3, 3), (0, 5)], [(5, 0), (1, 1)]])


# Each builds a fresh instance of one record kind on every call.
RECORDS = {
    "BimatrixGame": _pd,
    "StrategyBijection": lambda: find_isomorphism(_pd(), variant(_pd(), VariantKind.ROW_SWAP)),
    "UnitaryParams": lambda: UnitaryParams.exact_pi(F(1, 2), F(1, 4), F(3, 4)),
    "MeasurementPair": lambda: MeasurementPair.from_game(_pd()),
    "ExtensionClass": lambda: classify(UnitaryParams.exact_pi(F(1, 2), F(1, 4), F(3, 4))),
    "ExtendedGame": lambda: build_extension(_pd(), Q_OP),
    "MixedProfile": lambda: MixedProfile((F(1, 2), F(1, 2)), (F(1, 3), F(2, 3))),
    "EquilibriumReport": lambda: support_enumeration(build_extension(_pd(), Q_OP).game),
    "Claim": lambda: Claim("census", True, "24", "24"),
}


@pytest.mark.parametrize("build", RECORDS.values(), ids=RECORDS.keys())
def test_record_is_immutable(build):
    record = build()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    # A subclass without `__slots__ = ()` would take this into a `__dict__`.
    with pytest.raises(AttributeError):
        record.note = "added"
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("build", RECORDS.values(), ids=RECORDS.keys())
def test_equal_records_compare_and_hash_equal(build):
    a, b = build(), build()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) and repr(a).startswith(f"{type(a).__name__}(")


@pytest.mark.parametrize(
    "rows, cols, payoffs, message",
    [
        ((), ("C",), (), "at least one strategy"),
        (("A",), (), ((),), "at least one strategy"),
        (("A", "A"), ("C",), (((0, 0),), ((0, 0),)), "duplicate row label"),
        (("A",), ("C", "C"), (((0, 0), (0, 0)),), "duplicate column label"),
        (("A", "B"), ("C",), (((0, 0),),), "number of row labels"),
        (("A",), ("C", "D"), (((0, 0),),), "number of column labels"),
    ],
    ids=["no-rows", "no-cols", "duplicate-row", "duplicate-col", "rows-short", "cols-short"],
)
def test_game_construction_validates(rows, cols, payoffs, message):
    with pytest.raises(ValueError, match=message):
        BimatrixGame(rows, cols, payoffs)
    with pytest.raises(ValueError, match=message):
        BimatrixGame(row_labels=rows, col_labels=cols, payoffs=payoffs)
