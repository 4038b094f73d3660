"""The 3x3 extension builder, invariance classifier, and family matrices."""

import math
import random
import warnings
from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest

from ewlgames import (
    EXT_LABELS,
    ExtensionClass,
    I_OP,
    IX_OP,
    InvarianceKind,
    Q_OP,
    UnitaryParams,
    VariantKind,
    build_extension,
    classify,
    closed_form_payoff,
    empirical_invariance,
    extended_to_json_dict,
    find_isomorphism,
    make_game,
    outcome_weights,
    random_generic_game,
    variant,
)
from family_oracle import build_type_matrix, oracle_extension_grid
from invariance_oracle import oracle_invariant, slow_empirical_invariance

HALF = F(1, 2)


def cells(grid):
    return tuple(tuple((F(a), F(b)) for a, b in row) for row in grid)


# Tabulated Q-extensions of the four presentations of the dilemma.
PD3_BASE = cells([[(3, 3), (0, 5), (1, 1)], [(5, 0), (1, 1), (0, 5)], [(1, 1), (5, 0), (3, 3)]])
PD3_ROWS = cells([[(5, 0), (1, 1), (0, 5)], [(3, 3), (0, 5), (1, 1)], [(0, 5), (3, 3), (5, 0)]])
PD3_COLS = cells([[(0, 5), (3, 3), (5, 0)], [(1, 1), (5, 0), (3, 3)], [(5, 0), (1, 1), (0, 5)]])
PD3_BOTH = cells([[(1, 1), (5, 0), (3, 3)], [(0, 5), (3, 3), (5, 0)], [(3, 3), (0, 5), (1, 1)]])

TYPE_II_OP = UnitaryParams.exact_pi(HALF, HALF, HALF)


def grid_operator(i, j):
    return UnitaryParams.exact_pi(HALF, F(i, 4), F(j, 4))


def invariant_grid_operators():
    return [
        grid_operator(i, j)
        for i in range(8)
        for j in range(8)
        if classify(grid_operator(i, j)).invariant
    ]


# --- the Q-extension and its presentations -----------------------------------


@pytest.mark.parametrize(
    "kind, expected",
    [
        (None, PD3_BASE),
        (VariantKind.ROW_SWAP, PD3_ROWS),
        (VariantKind.COL_SWAP, PD3_COLS),
        (VariantKind.ROW_COL_SWAP, PD3_BOTH),
    ],
)
def test_q_extension_matches_tabulated_matrices(pd, kind, expected):
    source = pd if kind is None else variant(pd, kind)
    ext = build_extension(source, Q_OP)
    assert ext.exact
    assert ext.game.payoffs == expected
    assert ext.game.row_labels == EXT_LABELS and ext.game.col_labels == EXT_LABELS


def test_extension_rejects_non_2x2():
    g = make_game(("A",), ("B",), [[(0, 0)]])
    with pytest.raises(ValueError):
        build_extension(g, Q_OP)


def test_crossed_average_extension_cells(pd):
    # Substituting (R, S, T, P) = (3, 0, 5, 1) into the crossed-average family.
    ext = build_extension(pd, TYPE_II_OP)
    assert ext.exact
    assert ext.game.payoff(0, 2) == (F(3), F(1, 2))
    assert ext.game.payoff(1, 2) == (F(3, 2), F(4))
    assert ext.game.payoff(2, 0) == (F(1, 2), F(3))
    assert ext.game.payoff(2, 1) == (F(4), F(3, 2))
    assert ext.game.payoff(2, 2) == (F(9, 4), F(9, 4))
    assert ext.game.payoffs == build_type_matrix(pd, InvarianceKind.TYPE_II).game.payoffs


def test_classical_block_always_embedded_exactly(pd):
    rng = random.Random(77)
    for _ in range(10):
        g = random_generic_game(rng)
        p = UnitaryParams.from_radians(
            rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        )
        ext = build_extension(g, p)
        assert not ext.exact
        for i in range(2):
            for j in range(2):
                assert ext.game.payoff(i, j) == g.payoff(i, j)


# --- classifier ---------------------------------------------------------------


@pytest.mark.parametrize(
    "params, kind, witness",
    [
        (UnitaryParams.exact_pi(HALF, 0, 0), InvarianceKind.TYPE_I, (0, 0)),
        (UnitaryParams.exact_pi(HALF, 1, 0), InvarianceKind.TYPE_I, (2, 2)),
        (TYPE_II_OP, InvarianceKind.TYPE_II, (0, 2)),
        (UnitaryParams.exact_pi(HALF, F(1, 4), F(3, 4)), InvarianceKind.TYPE_III, (-1, 2)),
        (UnitaryParams.exact_pi(HALF, F(7, 4), F(1, 4)), InvarianceKind.TYPE_III, (3, 4)),
    ],
)
def test_classify_invariant_operators(params, kind, witness):
    cls = classify(params)
    assert cls.kind is kind and cls.witness == witness


@pytest.mark.parametrize(
    "params",
    [
        Q_OP,  # theta = 0
        UnitaryParams.exact_pi(1, 0, 0),
        UnitaryParams.exact_pi(HALF, 0, HALF),  # parity exclusion
        UnitaryParams.exact_pi(HALF, F(1, 4), 0),  # off the half-pi lattice in one angle
        UnitaryParams.exact_pi(F(1, 4), F(1, 4), F(1, 4)),  # wrong theta
        UnitaryParams.exact_pi(HALF, F(1, 8), F(1, 8)),  # off the quarter-pi grid
    ],
)
def test_classify_non_invariant_operators(params):
    cls = classify(params)
    assert cls.kind is InvarianceKind.NON_INVARIANT and cls.witness is None


def test_census_of_quarter_pi_grid():
    counts = {kind: 0 for kind in InvarianceKind}
    for i in range(8):
        for j in range(8):
            counts[classify(grid_operator(i, j)).kind] += 1
    assert counts[InvarianceKind.TYPE_I] == 4
    assert counts[InvarianceKind.TYPE_II] == 4
    assert counts[InvarianceKind.TYPE_III] == 16
    assert counts[InvarianceKind.NON_INVARIANT] == 40


def test_operators_with_one_weight_table_share_class_and_extensions():
    # The 320 exact operators of the canonical sweep: theta on the Niven
    # grid, alpha and beta on quarters of pi.  `sweep` reuses a row for
    # every operator with the same weight table, which is sound only if the
    # table fixes the class and the extension of every game.
    rng = random.Random(97)
    games = [random_generic_game(rng), random_generic_game(rng)]
    thetas = (F(0), F(1, 3), HALF, F(2, 3), F(1))
    seen = {}
    for t in thetas:
        for i in range(8):
            for j in range(8):
                params = UnitaryParams.exact_pi(t, F(i, 4), F(j, 4))
                weights, exact = outcome_weights(params)
                assert exact
                found = (classify(params).kind, [build_extension(g, params).game for g in games])
                assert seen.setdefault(weights, found) == found
    assert len(seen) == 45


def test_classify_float_parameters_snap_to_grid():
    half_pi = math.pi / 2
    on_grid = UnitaryParams.from_radians(half_pi, half_pi, half_pi)
    assert on_grid.pi_multiples == (HALF, HALF, HALF)
    assert classify(on_grid).kind is InvarianceKind.TYPE_II
    nudged = UnitaryParams.from_radians(half_pi + 4e-10, half_pi - 4e-10, half_pi)
    assert nudged.pi_multiples == (HALF, HALF, HALF)
    assert classify(nudged).kind is InvarianceKind.TYPE_II
    off = UnitaryParams.from_radians(half_pi, half_pi + 1e-5, half_pi)
    assert classify(off).kind is InvarianceKind.NON_INVARIANT
    # The float tolerance is 1e-9 rad on each of theta, alpha and beta.
    within = UnitaryParams.from_radians(half_pi, half_pi + 9e-10, half_pi)
    assert within.pi_multiples == (HALF, HALF, HALF)
    assert classify(within).kind is InvarianceKind.TYPE_II
    beyond = UnitaryParams.from_radians(half_pi, half_pi + 1.1e-9, half_pi)
    assert beyond.pi_multiples is None and beyond.alpha == half_pi + 1.1e-9
    assert classify(beyond).kind is InvarianceKind.NON_INVARIANT
    # theta may overshoot pi by the tolerance; phases snap modulo 2*pi.
    flip = UnitaryParams.from_radians(math.pi + 5e-10, -half_pi / 2, 2 * math.pi - 5e-10)
    assert flip.pi_multiples == (F(1), F(7, 4), F(0))
    with pytest.raises(ValueError, match="outside"):
        UnitaryParams.from_radians(math.pi + 2e-9, 0.0, 0.0)
    # pi/6 is not on the grid where extensions are exact.
    assert UnitaryParams.from_radians(math.pi / 6, 0.0, 0.0).pi_multiples is None
    # k = l = 1: on the lattice, but odd k and l fit no family.
    odd = UnitaryParams.from_radians(half_pi, half_pi, 0.0)
    assert classify(odd) == ExtensionClass(InvarianceKind.NON_INVARIANT)
    exact_iii = UnitaryParams.exact_pi(HALF, F(7, 4), F(1, 4))
    float_iii = UnitaryParams.from_radians(exact_iii.theta, exact_iii.alpha, exact_iii.beta)
    assert classify(float_iii) == classify(exact_iii)
    assert classify(float_iii) == ExtensionClass(InvarianceKind.TYPE_III, (3, 4))


# --- family matrices -----------------------------------------------------------


def test_family_i_matrix(pd):
    ext = build_type_matrix(pd, InvarianceKind.TYPE_I)
    assert ext.game.payoffs == cells(
        [
            [(3, 3), (0, 5), ("3/2", 4)],
            [(5, 0), (1, 1), (3, "1/2")],
            [(4, "3/2"), ("1/2", 3), ("9/4", "9/4")],
        ]
    )


def test_family_iii_matrix_is_flat(pd):
    ext = build_type_matrix(pd, InvarianceKind.TYPE_III)
    avg = (F(9, 4), F(9, 4))
    for i, j in [(0, 2), (1, 2), (2, 0), (2, 1), (2, 2)]:
        assert ext.game.payoff(i, j) == avg


def test_family_matrices_of_zero_game():
    zero = make_game(("A", "B"), ("C", "D"), [[(0, 0), (0, 0)], [(0, 0), (0, 0)]])
    for kind in (InvarianceKind.TYPE_I, InvarianceKind.TYPE_II, InvarianceKind.TYPE_III):
        ext = build_type_matrix(zero, kind)
        assert all(c == (F(0), F(0)) for row in ext.game.payoffs for c in row)


def test_family_matrix_rejects_non_invariant(pd):
    with pytest.raises(ValueError):
        build_type_matrix(pd, InvarianceKind.NON_INVARIANT)


def test_family_i_is_classical_mixing():
    rng = random.Random(19)
    for _ in range(5):
        g = random_generic_game(rng)
        ext = build_type_matrix(g, InvarianceKind.TYPE_I).game
        for j in range(3):
            left, right = ext.payoff(0, j), ext.payoff(1, j)
            mix = ((left[0] + right[0]) / 2, (left[1] + right[1]) / 2)
            assert ext.payoff(2, j) == mix
        for i in range(3):
            top, bottom = ext.payoff(i, 0), ext.payoff(i, 1)
            mix = ((top[0] + bottom[0]) / 2, (top[1] + bottom[1]) / 2)
            assert ext.payoff(i, 2) == mix


# --- exact evaluation against the float route -----------------------------------


def test_all_24_invariant_operators_collapse_to_their_family(pd):
    ops = invariant_grid_operators()
    assert len(ops) == 24
    rng = random.Random(24)
    for g in [pd] + [random_generic_game(rng) for _ in range(4)]:
        for p in ops:
            kind = classify(p).kind
            assert build_extension(g, p).game.payoffs == build_type_matrix(g, kind).game.payoffs


def test_float_cells_match_closed_form_off_grid():
    rng = random.Random(12)
    for _ in range(200):
        g = random_generic_game(rng)
        p = UnitaryParams.from_radians(
            rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        )
        ext = build_extension(g, p)
        assert not ext.exact
        checks = [
            ((0, 2), closed_form_payoff(I_OP, p, g)),
            ((1, 2), closed_form_payoff(IX_OP, p, g)),
            ((2, 0), closed_form_payoff(p, I_OP, g)),
            ((2, 1), closed_form_payoff(p, IX_OP, g)),
            ((2, 2), closed_form_payoff(p, p, g)),
        ]
        for (i, j), want in checks:
            got = ext.game.payoff(i, j)
            assert abs(float(got[0]) - want[0]) <= 1e-12
            assert abs(float(got[1]) - want[1]) <= 1e-12


def test_float_route_agrees_with_exact_route_on_grid(pd):
    # from_radians would snap these angles back onto the grid, so the float
    # route is reached through the raw constructor.
    rng = random.Random(55)
    games = [pd, random_generic_game(rng)]
    for g in games:
        for p in invariant_grid_operators():
            exact = build_extension(g, p)
            as_float = build_extension(g, UnitaryParams(p.theta, p.alpha, p.beta))
            assert exact.exact and not as_float.exact
            for i in range(3):
                for j in range(3):
                    want, got = exact.game.payoff(i, j), as_float.game.payoff(i, j)
                    assert abs(float(want[0]) - float(got[0])) <= 1e-12
                    assert abs(float(want[1]) - float(got[1])) <= 1e-12


def _scaled(game, scale):
    return make_game(
        game.row_labels,
        game.col_labels,
        [[(a * scale, b * scale) for a, b in row] for row in game.payoffs],
    )


NEAR_GRID_OFFSETS = (0.0, 1e-17, 3e-10, -7e-10, 1.5e-9, 1e-8, 1e-6)


def _near_grid_radians(rng):
    """Float angles on, near or off the grid, mostly at theta = pi/2."""
    theta = HALF if rng.random() < 0.7 else rng.choice([F(0), F(1, 3), F(2, 3), F(1)])
    multiples = (theta, F(rng.randrange(8), 4), F(rng.randrange(8), 4))
    t, a, b = (float(v) * math.pi + rng.choice(NEAR_GRID_OFFSETS) for v in multiples)
    return min(max(t, 0.0), math.pi), a, b


def test_classify_agrees_with_empirical_invariance_near_the_grid():
    # Generic games at payoff scales 1e-6 to 1e6: a payoff tolerance would
    # call an operator 1.5e-9 off the grid invariant at the small scales.
    rng = random.Random(2024)
    for _ in range(400):
        g = _scaled(random_generic_game(rng), F(10) ** rng.randint(-6, 6))
        p = UnitaryParams.from_radians(*_near_grid_radians(rng))
        assert classify(p).invariant == empirical_invariance(g, p), p


def test_from_radians_decides_whether_the_extension_is_exact(pd):
    rng = random.Random(31)
    angles = [_near_grid_radians(rng) for _ in range(200)]
    angles += [
        (rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        for _ in range(50)
    ]
    exact = 0
    for theta, alpha, beta in angles:
        p = UnitaryParams.from_radians(theta, alpha, beta)
        assert (p.pi_multiples is not None) == build_extension(pd, p).exact
        exact += p.pi_multiples is not None
    assert 0 < exact < len(angles)


@pytest.mark.parametrize(
    "theta, alpha, beta",
    [
        (F(1, 3), F(1, 4), F(7, 4)),  # theta = pi/3: exact off the invariant grid
        (F(2, 3), F(3, 2), F(1, 2)),
        (0, F(1, 2), 0),
        (1, F(3, 4), F(5, 4)),
        (HALF, F(1, 2), 0),  # non-invariant but exactly evaluable
    ],
)
def test_exact_cells_match_closed_form(pd, theta, alpha, beta):
    p = UnitaryParams.exact_pi(theta, alpha, beta)
    ext = build_extension(pd, p)
    assert ext.exact
    checks = [
        ((0, 2), closed_form_payoff(UnitaryParams.exact_pi(0, 0, 0), p, pd)),
        ((1, 2), closed_form_payoff(UnitaryParams.exact_pi(1, 0, 0), p, pd)),
        ((2, 0), closed_form_payoff(p, UnitaryParams.exact_pi(0, 0, 0), pd)),
        ((2, 1), closed_form_payoff(p, UnitaryParams.exact_pi(1, 0, 0), pd)),
        ((2, 2), closed_form_payoff(p, p, pd)),
    ]
    for (i, j), want in checks:
        got = ext.game.payoff(i, j)
        assert abs(float(got[0]) - want[0]) <= 1e-12
        assert abs(float(got[1]) - want[1]) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 8, 12])
def test_integer_route_matches_fraction_formula(d):
    # Every operator with theta, alpha, beta = i*pi/d: the exact cells equal
    # the Fraction formula's, and the float cells agree with its floats.
    rng = random.Random(2010)
    games = [random_generic_game(rng) for _ in range(2)]
    operators = [
        UnitaryParams.exact_pi(F(i, d), F(j, d), F(k, d))
        for i in range(d + 1)
        for j in range(2 * d)
        for k in range(2 * d)
    ]
    for g in games:
        for p in operators:
            ext = build_extension(g, p)
            want, exact = oracle_extension_grid(g, p)
            assert ext.exact == exact, p
            if exact:
                assert ext.game.payoffs == want, p
                continue
            for got_row, want_row in zip(ext.game.payoffs, want):
                for got, expected in zip(got_row, want_row):
                    assert abs(float(got[0]) - float(expected[0])) <= 1e-12, p
                    assert abs(float(got[1]) - float(expected[1])) <= 1e-12, p


def test_irrational_angles_fall_back_to_float(pd):
    p = UnitaryParams.exact_pi(F(1, 4), F(1, 8), 0)
    ext = build_extension(pd, p)
    assert not ext.exact


# --- empirical invariance --------------------------------------------------------


def test_q_extension_is_not_invariant(pd):
    assert empirical_invariance(pd, Q_OP) is False


def test_family_operators_are_invariant(pd):
    rng = random.Random(91)
    games = [pd, random_generic_game(rng), random_generic_game(rng)]
    for g in games:
        for p in invariant_grid_operators():
            assert empirical_invariance(g, p) is True


def test_classifier_matches_empirical_check_on_eighth_pi_grid(pd):
    # Denser sweep than the quarter-pi census: theta in {pi/4, pi/2},
    # alpha and beta anywhere on the eighth-pi lattice.
    rng = random.Random(15)
    games = [pd, random_generic_game(rng)]
    thetas = (F(1, 4), HALF)
    for g in games:
        for t in thetas:
            for i in range(16):
                for j in range(16):
                    p = UnitaryParams.exact_pi(t, F(i, 8), F(j, 8))
                    assert classify(p).invariant == empirical_invariance(g, p)


def test_classify_agrees_with_the_weight_array_oracle():
    # Every operator with theta in sixths of pi and alpha, beta in eighths:
    # the whole exact grid and the float operators between its points.
    invariant = 0
    for i in range(7):
        for j in range(16):
            for k in range(16):
                p = UnitaryParams.exact_pi(F(i, 6), F(j, 8), F(k, 8))
                verdict = oracle_invariant(p)
                assert classify(p).invariant == verdict, p.pi_multiples
                invariant += verdict
    assert invariant == 24


def test_grid_point_marks_the_exact_extensions(pd):
    for i in range(13):
        for j in range(16):
            for k in range(16):
                p = UnitaryParams.exact_pi(F(i, 12), F(j, 8), F(k, 8))
                assert (p.grid_point is not None) == build_extension(pd, p).exact, p.pi_multiples


def test_from_radians_keeps_the_grid_point_within_tolerance():
    # from_radians clamps a theta that overshoots [0, pi] by up to FLOAT_TOL.
    nudges = list(product((-5e-10, 5e-10), repeat=3))
    points = 0
    for i in range(13):
        for j in range(8):
            for k in range(8):
                p = UnitaryParams.exact_pi(F(i, 12), F(j, 4), F(k, 4))
                if p.grid_point is None:
                    continue
                points += 1
                for dt, da, db in nudges:
                    q = UnitaryParams.from_radians(p.theta + dt, p.alpha + da, p.beta + db)
                    assert q.grid_point == p.grid_point, (p.pi_multiples, dt, da, db)
    assert points == 5 * 8 * 8


def test_invariance_check_warns_on_non_generic_game():
    tied = make_game(("A", "B"), ("C", "D"), [[(1, 1), (1, 2)], [(2, 1), (2, 2)]])
    with pytest.warns(UserWarning, match="non-generic"):
        empirical_invariance(tied, TYPE_II_OP)


def _invariance_outcome(check, game, params):
    """A check's verdict, or its ValueError, with the (category, message) of each warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            verdict = check(game, params)
        except ValueError as exc:
            verdict = f"ValueError: {exc}"
    return verdict, [(w.category, str(w.message)) for w in caught]


def _tie_heavy_game(rng):
    cells = [[(rng.randrange(3), rng.randrange(3)) for _ in range(2)] for _ in range(2)]
    return make_game(("A", "B"), ("C", "D"), cells)


def test_empirical_invariance_matches_the_slow_check():
    # The payoff shortcut against the check that builds every extension:
    # generic games on the sixths x eighths lattice, tie-heavy games on the
    # exact grid, float operators, and games both must refuse.
    rng = random.Random(1817)
    lattice = [
        UnitaryParams.exact_pi(F(i, 6), F(j, 8), F(k, 8))
        for i in range(7)
        for j in range(16)
        for k in range(16)
    ]
    exact_grid = [
        UnitaryParams.exact_pi(t, F(j, 4), F(k, 4))
        for t in (0, F(1, 3), HALF, F(2, 3), 1)
        for j in range(8)
        for k in range(8)
    ]
    cases = [(random_generic_game(rng), p) for _ in range(2) for p in lattice]
    cases += [(_tie_heavy_game(rng), p) for _ in range(6) for p in exact_grid]
    for _ in range(300):
        game = random_generic_game(rng) if rng.random() < 0.5 else _tie_heavy_game(rng)
        angles = (rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        cases.append((game, UnitaryParams.from_radians(*angles)))
    # The row swap of this game passes the payoff comparison, yet no
    # bijection carries one extension onto the other.
    decoy = make_game(("A", "B"), ("C", "D"), [[(0, 0), (2, 2)], [(2, 0), (2, 2)]])
    decoy_op = UnitaryParams.exact_pi(0, F(1, 4), 0)
    cases.append((decoy, decoy_op))
    # Beyond the float range: a payoff, and a new payoff that overflows.
    for big in ("1e400", "1e308"):
        game = make_game(("A", "B"), ("C", "D"), [[(big, 1), (big, 5)], [(5, 0), (1, 1)]])
        cases.append((game, UnitaryParams.from_radians(0.8, 0.3, 1.1)))
    three = make_game("abc", "xyz", [[(i, j) for j in range(3)] for i in range(3)])
    cases.append((three, Q_OP))
    verdicts = Counter()
    for game, p in cases:
        want = _invariance_outcome(slow_empirical_invariance, game, p)
        assert _invariance_outcome(empirical_invariance, game, p) == want, (game.payoffs, p)
        verdicts[want[0]] += 1
    assert _invariance_outcome(empirical_invariance, decoy, decoy_op)[0] is False
    assert min(verdicts[True], verdicts[False]) > 100
    assert sum(isinstance(v, str) for v in verdicts) == 3


def test_invariant_isomorphisms_fix_the_new_strategy(pd):
    for p in invariant_grid_operators():
        base = build_extension(pd, p)
        for kind in VariantKind:
            other = build_extension(variant(pd, kind), p)
            bij = find_isomorphism(base.game, other.game)
            assert bij is not None
            assert bij.row_perm[2] == 2 and bij.col_perm[2] == 2


# --- serialization ----------------------------------------------------------------


def test_extended_json_dict(pd):
    data = extended_to_json_dict(build_extension(pd, TYPE_II_OP))
    assert data["class"] == "TypeII"
    assert data["exact"] is True
    assert data["params"] == {"theta": "1/2pi", "alpha": "1/2pi", "beta": "1/2pi"}
    assert data["rows"] == ["I", "iX", "U"]
    assert data["payoffs"][2][2] == ["9/4", "9/4"]


def test_extended_json_dict_float(pd):
    p = UnitaryParams.from_radians(0.3, 0.7, 0.1)
    data = extended_to_json_dict(build_extension(pd, p))
    assert data["class"] == "NonInvariant"
    assert data["exact"] is False
    assert data["params"]["theta"] == pytest.approx(0.3)
