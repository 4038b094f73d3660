"""Equilibrium solving: pure best responses and exact vertex enumeration."""

import itertools
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
    nash,
    outcome_weights,
    pure_equilibria,
    random_generic_game,
    snapped,
    support_enumeration,
    verify_equilibrium,
)
from ewlgames.games import _integer_matrix, _integer_payoffs

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


# --- the integer-elimination oracle's linear solver ----------------------------


def eliminate(rows, rhs):
    """Solve a square rational system with `nash_oracle.eliminate`, after scaling it to integers.

    Asserts that `eliminate` returns the `Fraction` oracle's solution, in
    lowest terms, when that solution is unique, and None when the system is
    singular.  Returns the `Fraction` oracle's answer, (particular, nullspace).
    """
    width = len(rows[0]) + 1
    ints, _ = _integer_matrix([v for row, r in zip(rows, rhs) for v in (*row, r)])
    int_rows = [ints[i:i + width] for i in range(0, len(ints), width)]
    solved = nash_oracle.eliminate(int_rows)
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
    assert nash_oracle.eliminate([[2, 1, 4], [1, -1, -1]]) == ([1, 2], 1)
    # No row is combined into another here, so each keeps its common factor
    # until the final reduction to lowest terms: 2x = 4, then 4x = 2 and 6y = 3.
    assert nash_oracle.eliminate([[2, 4]]) == ([2], 1)
    assert nash_oracle.eliminate([[4, 0, 2], [0, 6, 3]]) == ([1, 1], 2)


def test_solver_inconsistent():
    sol, null = eliminate([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)])
    assert sol is None


def test_solver_underdetermined_nullspace():
    # Consistent but singular: a whole line of solutions, so no vertex.
    sol, null = eliminate([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)])
    assert sol is not None and len(null) == 1
    assert nash_oracle.eliminate([[1, 1, 1], [2, 2, 2]]) is None


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
    assert nash_oracle.mixed_payoff(game3(QQ3PD), quarter) == (F(9, 4), F(9, 4))


def test_mixed_payoff_degenerate_mixture_is_cell(pd):
    for i in range(2):
        for j in range(2):
            prof = profile([int(i == k) for k in range(2)], [int(j == k) for k in range(2)])
            assert nash_oracle.mixed_payoff(pd, prof) == pd.payoff(i, j)


def test_mixed_payoff_full_support_value():
    full = (F(14, 25), F(2, 25), F(9, 25))
    assert nash_oracle.mixed_payoff(game3(PD3_BOTH), profile(full, full)) == (F(51, 25), F(51, 25))


def test_mixed_payoff_dimension_mismatch(pd):
    with pytest.raises(ValueError):
        nash_oracle.mixed_payoff(pd, HALF_SUPPORT)


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
        for check in (verify_equilibrium, nash_oracle.verify_equilibrium,
                      nash_oracle.mixed_payoff):
            with pytest.raises(ValueError):
                check(g, prof)
        return
    if kind == "equilibrium":
        prof = data.draw(st.sampled_from(reported_profiles(g)))
    else:
        prof = MixedProfile(data.draw(mixtures(n)), data.draw(mixtures(m)))
    assert verify_equilibrium(g, prof) == nash_oracle.verify_equilibrium(g, prof)


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
            assert nash_oracle.mixed_payoff(g, prof) == pay


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
    # The record's pure entries, which the sweep reads, carry the report's
    # positions and, as integer pairs, its payoffs.
    pure = nash._solve(_integer_payoffs(game)).pure
    assert [(i, j) for i, j, _ in pure] == [(i, j) for i, j, _ in report.pure]
    assert [tuple(F(*v) for v in pay) for *_, pay in pure] == [pay for *_, pay in report.pure]
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
    report = assert_matches_oracle(game)
    assert report.pure == ((0, 0, (3, 3)),) and not report.mixed and not report.degenerate


def widened(report, row, col):
    """The report with a never-played row inserted at ``row`` and a column at ``col``."""

    def shift(i, at):
        return i + (i >= at)

    def zero_at(p, at):
        return p[:at] + (F(0),) + p[at:]

    return nash.EquilibriumReport(
        tuple((shift(i, row), shift(j, col), pay) for i, j, pay in report.pure),
        tuple(
            (MixedProfile(zero_at(prof.p1, row), zero_at(prof.p2, col)), pay)
            for prof, pay in report.mixed
        ),
        report.degenerate,
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_strictly_dominated_strategies_change_nothing(data):
    # A strictly dominated strategy is in no equilibrium, so adding one to
    # each player moves every equilibrium's indices and pads its mixtures
    # with a zero, and changes nothing else.  Checked without the oracle.
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    payoff = st.integers(-4, 4)
    grid = [[data.draw(st.tuples(payoff, payoff)) for _ in range(m)] for _ in range(n)]
    base = support_enumeration(grid_game([c for r in grid for c in r], n, m))

    # A row whose player-1 payoffs are one below row `below`'s, at position `row`.
    below, row = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n))
    grid.insert(row, [(a - 1, data.draw(payoff)) for a, _ in grid[below]])
    # Then a column whose player-2 payoffs are one below column `left`'s, at `col`.
    left, col = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m))
    for r in grid:
        r.insert(col, (data.draw(payoff), r[left][1] - 1))
    game = grid_game([c for r in grid for c in r], n + 1, m + 1)
    assert support_enumeration(game) == widened(base, row, col)


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


# --- Cramer's rule and bordered minors against the two vertex oracles ---------


def solver_matrices(game):
    """Player 1's payoffs by row and player 2's by column, as `_vertices` gets them."""
    n, m = game.shape
    matrices = []
    for values, width in (([a for row in game.payoffs for a, _ in row], m),
                          ([b for col in zip(*game.payoffs) for _, b in col], n)):
        # Scaled to integers and shifted to be at least one, as `_solve` does.
        ints, _ = _integer_matrix(values)
        shift = 1 - min(ints)
        matrices.append([[v + shift for v in ints[i:i + width]] for i in range(0, n * m, width)])
    return matrices


def assert_vertices_match_oracle(game):
    """Both players' `_vertices` equal all three vertex oracles', dict for dict.

    The oracles are Gauss-Jordan elimination per system, Cramer's rule with
    dot-product slacks, and Cramer's rule with bordered slacks over one dict
    of minors per row set, each minor a Laplace sum; the last two also find
    the vertices in the same order.  Each player's polytope is checked over
    every strategy of both players, as the solver enumerates it.
    """
    n, m = game.shape
    rows, cols = list(range(n)), list(range(m))
    a_by_row, b_by_col = solver_matrices(game)
    for args in ((b_by_col, n, rows, cols), (a_by_row, m, cols, rows)):
        found = list(nash._vertices(args[0]).items())
        assert found == list(nash_oracle.laplace_vertices(*args).items())
        assert found == list(nash_oracle.dot_product_vertices(*args).items())
        assert dict(found) == nash_oracle.vertices(*args)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_vertices_match_elimination_oracle(data):
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    payoffs = data.draw(st.sampled_from([tie_heavy_payoffs, rational_payoffs]))
    values = data.draw(st.lists(st.tuples(payoffs, payoffs), min_size=n * m, max_size=n * m))
    assert_vertices_match_oracle(grid_game(values, n, m))


def test_vertices_match_elimination_oracle_on_tie_heavy_pool():
    for g in tie_heavy_games(5, 200):
        assert_vertices_match_oracle(g)


def test_vertices_match_elimination_oracle_on_snapped_extensions():
    rng = random.Random(73)
    for _ in range(40):
        params = UnitaryParams.from_radians(
            rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        )
        ext = build_extension(random_generic_game(rng), params)
        assert not ext.exact
        assert_vertices_match_oracle(snapped(ext.game))


@pytest.mark.parametrize(
    "constraints",
    [
        # Rows 0 and 2 are equal, so no system of size 2 finds (1/3, 0) again.
        [[3, 1], [2, 4], [3, 1]],
        # One column: no system of size 2 at all.
        [[3], [2], [3]],
        # Three tied maxima in column 0, and a constant column 2.
        [[5, 1, 2], [5, 2, 2], [5, 1, 2]],
    ],
    ids=["equal-rows", "one-column", "three-rows"],
)
def test_tied_column_maxima_give_one_vertex_tight_on_every_tied_row(constraints):
    # Column 0 reaches its maximum in rows 0 and 2 (and 1 in the last case),
    # so support {0} has one vertex, x = e_0 over that maximum, on which
    # every one of those constraints is tight.
    size, top = len(constraints[0]), constraints[0][0]
    tight = sum(1 << k for k, row in enumerate(constraints) if row[0] == top)
    assert tight in (0b101, 0b111)
    found = list(nash._vertices(constraints).items())
    assert found[0] == (((1,) + (0,) * (size - 1), top), ((1 << size) - 2, tight))
    args = (constraints, size, list(range(size)), [0, 1, 2])
    assert found == list(nash_oracle.laplace_vertices(*args).items())
    assert found == list(nash_oracle.dot_product_vertices(*args).items())
    assert dict(found) == nash_oracle.vertices(*args)


def test_cramer_plan_holds_only_the_levels_some_system_reads():
    # Level k holds the systems of size k, or the bordered minors of those of
    # size k - 1; a polytope with one column has no system of size 2 at all.
    for n_rows in range(1, 6):
        for n_cols in range(1, 6):
            plan = nash._cramer_plan(n_rows, n_cols)
            solves = [any(systems for _, systems in supports) for _, supports in plan]
            assert all(solves[k] or (k and solves[k - 1]) for k in range(len(plan)))
            count = sum(len(systems) for _, supports in plan for _, systems in supports)
            sizes = range(2, min(n_rows, n_cols) + 1)
            assert count == sum(math.comb(n_rows, k) * math.comb(n_cols, k) for k in sizes)
    assert [nash._cramer_plan(n, 1) for n in range(1, 6)] == [[]] * 5
    assert sum(len(systems) for _, supports in nash._cramer_plan(3, 3) for _, systems in supports) == 10


def test_vertices_match_oracles_where_the_opponent_keeps_two_more_strategies():
    # In each shape one player's opponent has at least two more strategies
    # than that player, so a vertex of full support still has constraints
    # outside its tight set, and their slacks are read off minors one size
    # past the largest support.
    rng = random.Random(79)
    for n, m in [(4, 1), (1, 4), (2, 1), (1, 2), (4, 2), (2, 4), (5, 2)]:
        for _ in range(25):
            game = grid_game([(rng.randrange(3), rng.randrange(3)) for _ in range(n * m)], n, m)
            assert_vertices_match_oracle(game)


# --- one polytope for both players of a symmetric game -------------------------


def canonical_tables():
    """One operator for each distinct outcome-weight table of the canonical sweep grid.

    The grid is theta in {0, 1/3, 1/2, 2/3, 1}*pi, with alpha and beta over
    the eight quarter-pi multiples.
    """
    thetas = [F(0), F(1, 3), F(1, 2), F(2, 3), F(1)]
    quarters = [F(k, 4) for k in range(8)]
    tables = {}
    for point in itertools.product(thetas, quarters, quarters):
        params = UnitaryParams.exact_pi(*point)
        tables.setdefault(outcome_weights(params), params)
    return list(tables.values())


def symmetric_tie_heavy_games(seed, count):
    """Seeded 3x3 games with A's payoffs in {0, 1, 2} and B = A^T."""
    rng = random.Random(seed)
    for _ in range(count):
        a = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
        yield grid_game([(a[i][j], a[j][i]) for i in range(3) for j in range(3)], 3, 3)


@pytest.mark.parametrize("swap_rows, calls", [(False, 1), (True, 2)], ids=["pd", "row-swapped-pd"])
def test_symmetric_game_enumerates_one_polytope(pd, swap_rows, calls, monkeypatch):
    # The PD's extension is symmetric, so one vertex enumeration serves both
    # players; its row swap is not.
    game = make_game(pd.row_labels[::-1], pd.col_labels, pd.payoffs[::-1]) if swap_rows else pd
    counted = []

    def vertices(*args):
        counted.append(args)
        return original(*args)

    original = nash._vertices
    monkeypatch.setattr(nash, "_vertices", vertices)
    tables = canonical_tables()
    assert len(tables) == 45
    for params in tables:
        ext = build_extension(game, params).game
        counted.clear()
        support_enumeration(ext)
        assert len(counted) == calls
        assert_matches_oracle(ext)


def test_symmetric_tie_heavy_games_match_oracles():
    for game in symmetric_tie_heavy_games(83, 100):
        assert_matches_oracle(game)
        assert_vertices_match_oracle(game)
