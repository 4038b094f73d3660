"""Acceptance suite: every advertised numeric result at its stated tolerance.

One test per criterion; each prints its own PASS line so that
``pytest tests/test_acceptance.py -v -s`` reads as a checklist.  The whole
suite is exact except where a float tolerance is explicitly part of the
statement, and it runs in a few seconds.
"""

import math
import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from ewlgames import (
    I_OP,
    IX_OP,
    InvarianceKind,
    MixedProfile,
    Q_OP,
    UnitaryParams,
    VariantKind,
    build_extension,
    classify,
    closed_form_payoff,
    empirical_invariance,
    find_isomorphism,
    make_game,
    random_generic_game,
    support_enumeration,
    variant,
)
from ewlgames.selfcheck import (
    dilemma_game,
    max_oracle_deviation,
    random_dilemma_values,
)
from family_oracle import build_type_matrix

HALF = F(1, 2)
PD = make_game(("C", "D"), ("C", "D"), [[(3, 3), (0, 5)], [(5, 0), (1, 1)]])

HALF_SUPPORT = MixedProfile((HALF, F(0), HALF), (HALF, F(0), HALF))


def _ok(message):
    print(f"PASS: {message}")


def _random_float_params(rng):
    return UnitaryParams.from_radians(
        rng.uniform(0.0, math.pi),
        rng.uniform(0.0, 2.0 * math.pi),
        rng.uniform(0.0, 2.0 * math.pi),
    )


def test_01_q_extension_has_unique_pure_equilibrium():
    report = support_enumeration(build_extension(PD, Q_OP).game)
    assert report.pure == ((2, 2, (F(3), F(3))),)
    assert report.mixed == ()
    assert not report.degenerate
    _ok("Q-extension of the dilemma: unique pure equilibrium (Q, Q), payoff (3, 3)")


def test_02_row_swapped_variant_has_unique_mixed_equilibrium():
    ext = build_extension(variant(PD, VariantKind.ROW_SWAP), Q_OP)
    report = support_enumeration(ext.game)
    assert report.pure == ()
    assert report.mixed == ((HALF_SUPPORT, (F(5, 2), F(5, 2))),)
    assert not report.degenerate
    _ok(
        "row-swapped variant: no pure equilibrium, unique mixed "
        "((1/2,0,1/2),(1/2,0,1/2)) with payoff (5/2, 5/2)"
    )


def test_03_column_swapped_variant_mixed_equilibrium():
    ext = build_extension(variant(PD, VariantKind.COL_SWAP), Q_OP)
    report = support_enumeration(ext.game)
    assert (HALF_SUPPORT, (F(5, 2), F(5, 2))) in report.mixed
    assert report.pure == ()
    _ok("column-swapped variant: mixed equilibrium ((1/2,0,1/2),(1/2,0,1/2))")


def test_04_rows_columns_swapped_variant_full_support_equilibrium():
    ext = build_extension(variant(PD, VariantKind.ROW_COL_SWAP), Q_OP)
    report = support_enumeration(ext.game)
    full = (F(14, 25), F(2, 25), F(9, 25))
    assert report.pure == ()
    assert report.mixed == ((MixedProfile(full, full), (F(51, 25), F(51, 25))),)
    _ok(
        "rows+columns-swapped variant: unique equilibrium "
        "((14/25,2/25,9/25),(14/25,2/25,9/25)), payoff 51/25 per player"
    )


def test_05_non_invariance_witness():
    first = build_extension(PD, Q_OP).game
    second = build_extension(variant(PD, VariantKind.ROW_SWAP), Q_OP).game
    # Independent exhaustive search over all 3! * 3! bijection pairs.
    tried = 0
    for rp in permutations(range(3)):
        for cp in permutations(range(3)):
            tried += 1
            assert any(
                first.payoff(i, j) != second.payoff(rp[i], cp[j])
                for i in range(3)
                for j in range(3)
            )
    assert tried == 36
    assert find_isomorphism(first, second) is None
    _ok("the two Q-extensions are non-isomorphic (all 36 bijection pairs exhausted)")


def test_06_invariant_operator_census():
    counts = {kind: 0 for kind in InvarianceKind}
    for i in range(8):
        for j in range(8):
            cls = classify(UnitaryParams.exact_pi(HALF, F(i, 4), F(j, 4)))
            counts[cls.kind] += 1
    assert counts[InvarianceKind.TYPE_I] == 4
    assert counts[InvarianceKind.TYPE_II] == 4
    assert counts[InvarianceKind.TYPE_III] == 16
    assert counts[InvarianceKind.NON_INVARIANT] == 40
    _ok("census at theta=pi/2: exactly 24 invariant operators = 4 + 4 + 16")


def test_07_classifier_agrees_with_empirical_invariance():
    rng = random.Random(2024)
    games = [random_generic_game(rng) for _ in range(20)]
    grid = [
        UnitaryParams.exact_pi(HALF, F(i, 4), F(j, 4)) for i in range(8) for j in range(8)
    ]
    off_grid = [_random_float_params(rng) for _ in range(50)]
    disagreements = 0
    for game in games:
        for params in grid + off_grid:
            if classify(params).invariant != empirical_invariance(game, params):
                disagreements += 1
    assert disagreements == 0
    _ok(
        "classifier == empirical invariance on 20 random generic games x "
        "(64 grid operators + 50 off-grid float triples), zero disagreements"
    )


def test_08_general_dilemma_crossed_average_equilibrium():
    rng = random.Random(8)
    quarter = MixedProfile((F(1, 4), F(1, 4), HALF), (F(1, 4), F(1, 4), HALF))
    for _ in range(5):
        r, s, t, p = random_dilemma_values(rng)
        ext = build_type_matrix(dilemma_game(r, s, t, p), InvarianceKind.TYPE_II)
        report = support_enumeration(ext.game)
        value = (r + s + t + p) / 4
        assert report.pure == ()
        assert report.mixed == ((quarter, (value, value)),)
        assert not report.degenerate
    _ok(
        "crossed-average extension of 5 random dilemmas: unique equilibrium "
        "((1/4,1/4,1/2),(1/4,1/4,1/2)) paying (R+S+T+P)/4, by exhaustion"
    )


def test_09_oracle_equivalence():
    worst = max_oracle_deviation(samples=1000, seed=99, n_games=5)
    assert worst <= 1e-12
    _ok(
        "closed form vs statevector: max deviation "
        f"{worst:.2e} <= 1e-12 over 5 games x 1000 seeded strategy pairs"
    )


def test_10_classical_embedding():
    rng = random.Random(10)
    for _ in range(100):
        game = random_generic_game(rng)
        ext = build_extension(game, _random_float_params(rng))
        for i in range(2):
            for j in range(2):
                assert ext.game.payoff(i, j) == game.payoff(i, j)
    for _ in range(10):
        game = random_generic_game(rng)
        for i, p1 in enumerate((I_OP, IX_OP)):
            for j, p2 in enumerate((I_OP, IX_OP)):
                got = closed_form_payoff(p1, p2, game)
                want = game.payoff(i, j)
                assert abs(got[0] - float(want[0])) <= 1e-12
                assert abs(got[1] - float(want[1])) <= 1e-12
    _ok(
        "classical embedding: top-left block exact on 100 random extensions; "
        "closed form reproduces all four classical cells within 1e-12"
    )


def test_11_classical_mixing_family_identity():
    rng = random.Random(11)
    for _ in range(20):
        game = random_generic_game(rng)
        ext = build_type_matrix(game, InvarianceKind.TYPE_I).game
        for j in range(3):
            top, bottom = ext.payoff(0, j), ext.payoff(1, j)
            assert ext.payoff(2, j) == ((top[0] + bottom[0]) / 2, (top[1] + bottom[1]) / 2)
        for i in range(3):
            left, right = ext.payoff(i, 0), ext.payoff(i, 1)
            assert ext.payoff(i, 2) == ((left[0] + right[0]) / 2, (left[1] + right[1]) / 2)
    _ok(
        "family I on 20 random games: the new row/column is exactly the "
        "half-half mixture of the classical ones"
    )
