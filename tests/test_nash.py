"""Equilibrium solving: pure best responses and exact vertex enumeration."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import nash_oracle
from ewlgames import (
    MixedProfile,
    UnitaryParams,
    build_extension,
    make_game,
    mixed_payoff,
    nash,
    pure_equilibria,
    random_generic_game,
    snapped,
    support_enumeration,
    verify_equilibrium,
)

# The four 3x3 games obtained by extending the dilemma's presentations with
# the Q operator, in tabulated form, plus the crossed-average family matrix.
PD3_BASE = [[(3, 3), (0, 5), (1, 1)], [(5, 0), (1, 1), (0, 5)], [(1, 1), (5, 0), (3, 3)]]
PD3_ROWS = [[(5, 0), (1, 1), (0, 5)], [(3, 3), (0, 5), (1, 1)], [(0, 5), (3, 3), (5, 0)]]
PD3_COLS = [[(0, 5), (3, 3), (5, 0)], [(1, 1), (5, 0), (3, 3)], [(5, 0), (1, 1), (0, 5)]]
PD3_BOTH = [[(1, 1), (5, 0), (3, 3)], [(0, 5), (3, 3), (5, 0)], [(3, 3), (0, 5), (1, 1)]]
QQ3PD = [
    [(3, 3), (0, 5), (3, "1/2")],
    [(5, 0), (1, 1), ("3/2", 4)],
    [("1/2", 3), (4, "3/2"), ("9/4", "9/4")],
]

LABELS3 = ("I", "iX", "Q")


def game3(cells):
    return make_game(LABELS3, LABELS3, cells)


def profile(p1, p2):
    return MixedProfile(tuple(F(x) for x in p1), tuple(F(x) for x in p2))


HALF_SUPPORT = profile((F(1, 2), 0, F(1, 2)), (F(1, 2), 0, F(1, 2)))


# --- linear solver ---------------------------------------------------------


def eliminate(rows, rhs):
    """Solve a square rational system with `nash._eliminate`, after scaling it to integers.

    Asserts that `_eliminate` returns the `Fraction` oracle's solution, in
    lowest terms, when that solution is unique, and None when the system is
    singular.  Returns the oracle's answer, (particular, nullspace).
    """
    int_rows, _ = nash._integer_matrix([[*row, r] for row, r in zip(rows, rhs)])
    solved = nash._eliminate(int_rows)
    expected = nash_oracle.solve_rational_system(rows, rhs)
    if expected[0] is None or expected[1]:
        assert solved is None
    else:
        nums, den = solved
        assert den > 0 and math.gcd(den, *nums) == 1
        assert [F(v, den) for v in nums] == expected[0]
    return expected


def test_solver_unique_solution():
    sol, null = eliminate([[F(2), F(1)], [F(1), F(-1)]], [F(4), F(-1)])
    assert sol == [F(1), F(2)] and null == []
    assert nash._eliminate([[2, 1, 4], [1, -1, -1]]) == ([1, 2], 1)
    # No row is combined into another here, so each keeps its common factor
    # until the final reduction to lowest terms: 2x = 4, then 4x = 2 and 6y = 3.
    assert nash._eliminate([[2, 4]]) == ([2], 1)
    assert nash._eliminate([[4, 0, 2], [0, 6, 3]]) == ([1, 1], 2)


def test_solver_inconsistent():
    sol, null = eliminate([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)])
    assert sol is None


def test_solver_underdetermined_nullspace():
    # Consistent but singular: a whole line of solutions, so no vertex.
    sol, null = eliminate([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)])
    assert sol is not None and len(null) == 1
    assert nash._eliminate([[1, 1, 1], [2, 2, 2]]) is None


@pytest.mark.parametrize(
    "rows, rhs, unique",
    [
        # A redundant but consistent equation: the third row is the sum of
        # the first two, so the square system is singular.
        (
            [[F(1), F(1), F(0)], [F(1), F(-1), F(1)], [F(2), F(0), F(1)]],
            [F(3), F(1), F(4)],
            False,
        ),
        # A zero leading column: x0 is free, and the pivot search finds no pivot.
        (
            [[F(0), F(2), F(1)], [F(0), F(1), F(-1)], [F(0), F(0), F(1)]],
            [F(1), F(2), F(0)],
            False,
        ),
        # Denominators of about 1e9, as on snapped float-built games.
        (
            [[F(1, 999999937), F(2, 999999929)], [F(3, 10**9 + 7), F(-1, 10**9 + 9)]],
            [F(1), F(5, 999999893)],
            True,
        ),
    ],
    ids=["overdetermined-consistent", "zero-leading-column", "denominators-1e9"],
)
def test_solver_matches_fraction_oracle(rows, rhs, unique):
    sol, null = eliminate(rows, rhs)
    assert (sol is not None and not null) == unique
    if unique:
        for row, r in zip(rows, rhs):
            assert sum(a * x for a, x in zip(row, sol)) == r


# --- pure equilibria -------------------------------------------------------


def test_pure_equilibria_dilemma(pd):
    assert pure_equilibria(pd) == [(1, 1, (F(1), F(1)))]


def test_pure_equilibria_base_extension():
    assert pure_equilibria(game3(PD3_BASE)) == [(2, 2, (F(3), F(3)))]


def test_pure_equilibria_rows_extension_empty():
    g = game3(PD3_ROWS)
    # Independent oracle: brute-force best-response check over all 9 cells.
    brute = []
    for i in range(3):
        for j in range(3):
            a, b = g.payoff(i, j)
            row_best = max(g.payoff(k, j)[0] for k in range(3))
            col_best = max(g.payoff(i, l)[1] for l in range(3))
            if a == row_best and b == col_best:
                brute.append((i, j))
    assert brute == []
    assert pure_equilibria(g) == []


# --- support enumeration on the reference games ----------------------------


def test_matching_pennies_equilibrium():
    g = make_game(("H", "T"), ("H", "T"), [[(1, -1), (-1, 1)], [(-1, 1), (1, -1)]])
    report = support_enumeration(g)
    assert report.pure == ()
    assert report.mixed == (
        (profile((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))), (F(0), F(0))),
    )
    assert not report.degenerate


def test_base_extension_unique_pure():
    report = support_enumeration(game3(PD3_BASE))
    assert report.pure == ((2, 2, (F(3), F(3))),)
    assert report.mixed == ()
    assert not report.degenerate


def test_rows_extension_unique_mixed():
    report = support_enumeration(game3(PD3_ROWS))
    assert report.pure == ()
    assert report.mixed == ((HALF_SUPPORT, (F(5, 2), F(5, 2))),)
    assert not report.degenerate


def test_cols_extension_unique_mixed():
    report = support_enumeration(game3(PD3_COLS))
    assert report.pure == ()
    assert report.mixed == ((HALF_SUPPORT, (F(5, 2), F(5, 2))),)


def test_both_swapped_extension_full_support():
    report = support_enumeration(game3(PD3_BOTH))
    full = (F(14, 25), F(2, 25), F(9, 25))
    assert report.pure == ()
    assert report.mixed == ((profile(full, full), (F(51, 25), F(51, 25))),)
    assert not report.degenerate


def test_crossed_average_family_unique_mixed():
    report = support_enumeration(game3(QQ3PD))
    quarter = profile((F(1, 4), F(1, 4), F(1, 2)), (F(1, 4), F(1, 4), F(1, 2)))
    assert report.pure == ()
    assert report.mixed == ((quarter, (F(9, 4), F(9, 4))),)


def test_solve_1x1_game():
    report = support_enumeration(make_game(("A",), ("B",), [[(2, 3)]]))
    assert report.pure == ((0, 0, (F(2), F(3))),)
    assert report.mixed == ()


# --- expected payoffs and verification --------------------------------------


def test_mixed_payoff_crossed_average_family():
    quarter = profile((F(1, 4), F(1, 4), F(1, 2)), (F(1, 4), F(1, 4), F(1, 2)))
    assert mixed_payoff(game3(QQ3PD), quarter) == (F(9, 4), F(9, 4))


def test_mixed_payoff_degenerate_mixture_is_cell(pd):
    for i in range(2):
        for j in range(2):
            prof = profile([int(i == k) for k in range(2)], [int(j == k) for k in range(2)])
            assert mixed_payoff(pd, prof) == pd.payoff(i, j)


def test_mixed_payoff_full_support_value():
    full = (F(14, 25), F(2, 25), F(9, 25))
    assert mixed_payoff(game3(PD3_BOTH), profile(full, full)) == (F(51, 25), F(51, 25))


def test_mixed_payoff_dimension_mismatch(pd):
    with pytest.raises(ValueError):
        mixed_payoff(pd, HALF_SUPPORT)


def test_verify_equilibrium_cases(pd):
    quarter = profile((F(1, 4), F(1, 4), F(1, 2)), (F(1, 4), F(1, 4), F(1, 2)))
    assert verify_equilibrium(game3(QQ3PD), quarter)
    assert not verify_equilibrium(pd, profile((1, 0), (1, 0)))  # (C, C) is not stable


def test_mixed_profile_validation():
    with pytest.raises(ValueError):
        MixedProfile((F(1, 2), F(1, 2)), (F(-1, 2), F(3, 2)))
    with pytest.raises(ValueError):
        MixedProfile((F(1, 2), F(1, 4)), (F(1), F(0)))


# --- the one-pass checker against the two-pass oracle ----------------------


CHECKER_SHAPES = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
tie_heavy_payoffs = st.integers(min_value=0, max_value=2)
rational_payoffs = st.fractions(min_value=-5, max_value=5, max_denominator=9)


@st.composite
def mixtures(draw, size):
    """A pure strategy, or rational weights (zeros likely) normalized to sum to one."""
    if draw(st.booleans()):
        k = draw(st.integers(0, size - 1))
        return tuple(F(int(i == k)) for i in range(size))
    weight = st.just(F(0)) | st.fractions(min_value=0, max_value=3, max_denominator=5)
    weights = draw(st.lists(weight, min_size=size, max_size=size).filter(any))
    return tuple(w / sum(weights) for w in weights)


def reported_profiles(game):
    """Every equilibrium in the game's report, the pure ones as profiles."""
    n, m = game.shape
    report = support_enumeration(game)
    pure = [
        profile([int(k == i) for k in range(n)], [int(k == j) for k in range(m)])
        for i, j, _ in report.pure
    ]
    return pure + [prof for prof, _ in report.mixed]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checker_matches_two_pass_oracle(data):
    n, m = data.draw(st.sampled_from(CHECKER_SHAPES))
    payoffs = data.draw(st.sampled_from([tie_heavy_payoffs, rational_payoffs]))
    values = data.draw(st.lists(st.tuples(payoffs, payoffs), min_size=n * m, max_size=n * m))
    g = grid_game(values, n, m)
    kind = data.draw(st.sampled_from(["drawn", "equilibrium", "wrong-shape"]))
    if kind == "wrong-shape":
        wrong = data.draw(st.sampled_from([(n % 3 + 1, m), (n, m % 3 + 1)]))
        prof = MixedProfile(data.draw(mixtures(wrong[0])), data.draw(mixtures(wrong[1])))
        for check in (verify_equilibrium, mixed_payoff, nash_oracle.verify_equilibrium,
                      nash_oracle.mixed_payoff):
            with pytest.raises(ValueError):
                check(g, prof)
        return
    if kind == "equilibrium":
        prof = data.draw(st.sampled_from(reported_profiles(g)))
    else:
        prof = MixedProfile(data.draw(mixtures(n)), data.draw(mixtures(m)))
    assert verify_equilibrium(g, prof) == nash_oracle.verify_equilibrium(g, prof)
    assert mixed_payoff(g, prof) == nash_oracle.mixed_payoff(g, prof)


# --- solver properties ------------------------------------------------------


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 3)])
def test_every_reported_equilibrium_verifies(shape):
    rng = random.Random(11)
    for _ in range(8):
        g = random_generic_game(rng, *shape)
        report = support_enumeration(g)
        for i, j, _ in report.pure:
            p1 = tuple(F(int(i == k)) for k in range(shape[0]))
            p2 = tuple(F(int(j == k)) for k in range(shape[1]))
            assert verify_equilibrium(g, MixedProfile(p1, p2))
        for prof, pay in report.mixed:
            assert verify_equilibrium(g, prof)
            assert mixed_payoff(g, prof) == pay


@pytest.mark.parametrize("shape", [(2, 2), (3, 3)])
def test_equilibrium_exists_on_random_games(shape):
    rng = random.Random(23)
    for _ in range(20):
        report = support_enumeration(random_generic_game(rng, *shape))
        assert report.pure or report.mixed


def test_singleton_supports_coincide_with_pure():
    rng = random.Random(37)
    for _ in range(10):
        g = random_generic_game(rng, 3, 3)
        report = support_enumeration(g)
        assert report.pure == tuple(pure_equilibria(g))


def test_constant_shift_leaves_equilibria_unchanged():
    rng = random.Random(41)
    shift = F(7, 3)
    for _ in range(5):
        g = random_generic_game(rng, 3, 3)
        shifted = make_game(
            g.row_labels,
            g.col_labels,
            [[(c[0] + shift, c[1]) for c in row] for row in g.payoffs],
        )
        base, moved = support_enumeration(g), support_enumeration(shifted)
        assert [p[:2] for p in base.pure] == [p[:2] for p in moved.pure]
        assert [m[0] for m in base.mixed] == [m[0] for m in moved.mixed]
        for (_, pay_a), (_, pay_b) in zip(base.mixed, moved.mixed):
            assert pay_b == (pay_a[0] + shift, pay_a[1])


@pytest.mark.parametrize("cells", [PD3_BOTH, QQ3PD])
def test_symmetric_game_equilibria_closed_under_player_swap(cells):
    g = game3(cells)
    # b-matrix is the transpose of the a-matrix, so swapping players is a symmetry.
    assert all(
        g.payoff(i, j)[0] == g.payoff(j, i)[1] for i in range(3) for j in range(3)
    )
    report = support_enumeration(g)
    mixed = {(prof.p1, prof.p2) for prof, _ in report.mixed}
    assert mixed == {(p2, p1) for p1, p2 in mixed}
    pure = {(i, j) for i, j, _ in report.pure}
    assert pure == {(j, i) for i, j in pure}


def test_zero_game_is_degenerate():
    zero = make_game(("A", "B"), ("C", "D"), [[(0, 0), (0, 0)], [(0, 0), (0, 0)]])
    report = support_enumeration(zero)
    assert report.degenerate
    assert {(i, j) for i, j, _ in report.pure} == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_duplicate_column_continuum_flagged():
    # Player 2 is indifferent between two identical columns, so any mix of
    # them (against the row best response) is an equilibrium.
    g = make_game(
        ("A", "B"),
        ("C", "D"),
        [[(1, 1), (1, 1)], [(0, 0), (0, 0)]],
    )
    report = support_enumeration(g)
    assert report.degenerate


small_ints = st.integers(min_value=-6, max_value=6)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(small_ints, small_ints), min_size=4, max_size=4))
def test_reported_equilibria_always_verify(values):
    g = make_game(
        ("A", "B"),
        ("C", "D"),
        [[values[0], values[1]], [values[2], values[3]]],
    )
    report = support_enumeration(g)
    assert report.pure or report.mixed
    for prof, _ in report.mixed:
        assert verify_equilibrium(g, prof)


# --- differential tests against the Fraction Gauss-Jordan oracle -----------


def grid_game(values, rows, cols):
    """A game whose payoff pairs are ``values`` in row-major order."""
    labels1 = tuple(f"r{i}" for i in range(rows))
    labels2 = tuple(f"c{j}" for j in range(cols))
    return make_game(
        labels1, labels2, [[values[i * cols + j] for j in range(cols)] for i in range(rows)]
    )


def assert_matches_oracle(game):
    report = support_enumeration(game)
    assert report == nash_oracle.support_enumeration(game)
    return report


@pytest.mark.parametrize("shape", [(2, 2), (3, 3)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_matches_oracle_on_small_integer_games(shape, data):
    rows, cols = shape
    values = data.draw(
        st.lists(st.tuples(small_ints, small_ints), min_size=rows * cols, max_size=rows * cols)
    )
    assert_matches_oracle(grid_game(values, rows, cols))


def tie_heavy_games(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield grid_game([(rng.randrange(3), rng.randrange(3)) for _ in range(9)], 3, 3)


def test_matches_oracle_on_tie_heavy_pool():
    # Payoffs in {0, 1, 2} make many supports underdetermined, which is
    # where the vertex search and the degenerate flag can go wrong.
    degenerate = sum(assert_matches_oracle(g).degenerate for g in tie_heavy_games(3, 300))
    assert degenerate > 50


@pytest.mark.parametrize("snap", [False, True], ids=["exact", "snapped-float"])
def test_matches_oracle_on_extensions(snap):
    rng = random.Random(59)
    quarters = [F(k, 4) for k in range(8)]
    for _ in range(25):
        base = random_generic_game(rng)
        if snap:
            params = UnitaryParams.from_radians(
                rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
            )
        else:
            params = UnitaryParams.exact_pi(
                rng.choice([F(0), F(1, 3), F(1, 2), F(2, 3), F(1)]),
                rng.choice(quarters),
                rng.choice(quarters),
            )
        ext = build_extension(base, params)
        assert ext.exact != snap
        assert_matches_oracle(snapped(ext.game) if snap else ext.game)


# Player 1's and player 2's payoffs.  In the whole game only column c2 is
# strictly dominated; then r2, c1 and r1 go in turn, each dominated only
# once the one before it is gone.
CHAIN_A = [[3, 1, 0], [2, 2, 0], [1, 0, 5]]
CHAIN_B = [[3, 2, 0], [4, 1, 0], [1, 5, 0]]


def test_iterated_dominance_chain_matches_oracle():
    game = grid_game([(a, b) for ra, rb in zip(CHAIN_A, CHAIN_B) for a, b in zip(ra, rb)], 3, 3)
    b_by_col = [list(col) for col in zip(*CHAIN_B)]
    everything = [0, 1, 2]
    assert not any(nash._dominated(CHAIN_A, i, everything, everything) for i in everything)
    assert [j for j in everything if nash._dominated(b_by_col, j, everything, everything)] == [2]
    assert nash._undominated(CHAIN_A, b_by_col) == ([0], [0])
    report = assert_matches_oracle(game)
    assert report.pure == ((0, 0, (3, 3)),) and not report.mixed and not report.degenerate


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 2), (1, 3), (4, 4), (2, 4)])
def test_matches_oracle_on_other_shapes(shape):
    rng = random.Random(61)
    for _ in range(15):
        values = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(shape[0] * shape[1])]
        assert_matches_oracle(grid_game(values, *shape))


@pytest.mark.parametrize("player", [0, 1])
def test_positive_scaling_leaves_equilibria_unchanged(player):
    rng = random.Random(67)
    factor = F(7, 3)
    pool = [random_generic_game(rng, 3, 3) for _ in range(5)]
    pool += list(tie_heavy_games(71, 20))
    for g in pool:
        scaled = make_game(
            g.row_labels,
            g.col_labels,
            [
                [(c[0] * factor, c[1]) if player == 0 else (c[0], c[1] * factor) for c in row]
                for row in g.payoffs
            ],
        )
        base, moved = support_enumeration(g), support_enumeration(scaled)
        assert [p[:2] for p in base.pure] == [p[:2] for p in moved.pure]
        assert [m[0] for m in base.mixed] == [m[0] for m in moved.mixed]
        assert base.degenerate == moved.degenerate
