"""Exact bimatrix games: construction, variants, and isomorphism search."""

import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ewlgames import (
    BimatrixGame,
    UnitaryParams,
    VariantKind,
    build_extension,
    find_isomorphism,
    game_from_json_dict,
    game_to_json_dict,
    is_generic,
    make_game,
    random_generic_game,
    rational,
    snapped,
    variant,
)
from ewlgames.games import SNAP_DENOMINATOR
from ewlgames.ewl import FLOAT_TOL
import isomorphism_oracle

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def games_2x2(draw):
    cells = [[(draw(rationals), draw(rationals)) for _ in range(2)] for _ in range(2)]
    return make_game(("A", "B"), ("C", "D"), cells)


def test_make_game_stores_exact_payoffs(pd):
    assert pd.shape == (2, 2)
    assert pd.payoff(0, 1) == (F(0), F(5))
    assert all(isinstance(v, F) for v in pd.player_values(0))


def test_make_game_parses_fraction_strings():
    g = make_game(("A",), ("B",), [[("2/3", "-7/2")]])
    assert g.payoff(0, 0) == (F(2, 3), F(-7, 2))


def test_make_game_minimal_1x1():
    g = make_game(("A",), ("B",), [[(0, 0)]])
    assert g.shape == (1, 1)


def test_make_game_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate"):
        make_game(("A", "A"), ("B", "C"), [[(0, 0), (0, 0)], [(0, 0), (0, 0)]])


@pytest.mark.parametrize(
    "payoffs",
    [
        [[(0, 0), (0, 0)]],  # one row missing
        [[(0, 0)], [(0, 0)]],  # one column missing
    ],
)
def test_make_game_rejects_dimension_mismatch(payoffs):
    with pytest.raises(ValueError):
        make_game(("A", "B"), ("C", "D"), payoffs)


def test_make_game_rejects_non_pair_cells():
    with pytest.raises(ValueError):
        make_game(("A",), ("B",), [[(1, 2, 3)]])


def test_variant_row_swap(pd):
    g = variant(pd, VariantKind.ROW_SWAP)
    assert g.payoffs == (((F(5), F(0)), (F(1), F(1))), ((F(3), F(3)), (F(0), F(5))))
    assert g.row_labels == ("D", "C")
    assert g.col_labels == ("C", "D")


def test_variant_col_swap(pd):
    g = variant(pd, VariantKind.COL_SWAP)
    assert g.payoffs == (((F(0), F(5)), (F(3), F(3))), ((F(1), F(1)), (F(5), F(0))))
    assert g.col_labels == ("D", "C")


def test_variant_row_col_swap(pd):
    g = variant(pd, VariantKind.ROW_COL_SWAP)
    assert g.payoffs == (((F(1), F(1)), (F(5), F(0))), ((F(0), F(5)), (F(3), F(3))))
    assert g.row_labels == ("D", "C")
    assert g.col_labels == ("D", "C")


def test_variant_rejects_non_2x2():
    g = make_game(("A",), ("B",), [[(0, 0)]])
    with pytest.raises(ValueError):
        variant(g, VariantKind.ROW_SWAP)


@pytest.mark.parametrize("kind", list(VariantKind))
@given(g=games_2x2())
def test_variant_is_an_involution(kind, g):
    assert variant(variant(g, kind), kind) == g


def test_identity_bijection_found_first(pd):
    bij = find_isomorphism(pd, pd)
    assert bij is not None and bij.row_perm == (0, 1) and bij.col_perm == (0, 1)


def test_relabeled_3x3_games_are_isomorphic():
    # A 3x3 game and a presentation with rows cycled and columns reversed;
    # all payoffs distinct, so the bijection is unique.
    cells = {(i, j): (F(3 * i + j + 1), F(7 * (3 * i + j) + 2)) for i in range(3) for j in range(3)}
    first = BimatrixGame(
        ("A", "B", "C"),
        ("D", "E", "F"),
        tuple(tuple(cells[i, j] for j in range(3)) for i in range(3)),
    )
    second = BimatrixGame(
        ("A'", "B'", "C'"),
        ("D'", "E'", "F'"),
        (
            (cells[2, 2], cells[2, 1], cells[2, 0]),
            (cells[0, 2], cells[0, 1], cells[0, 0]),
            (cells[1, 2], cells[1, 1], cells[1, 0]),
        ),
    )
    bij = find_isomorphism(first, second)
    assert bij is not None
    assert bij.row_perm == (1, 2, 0) and bij.col_perm == (2, 1, 0)
    assert bij.row_map == (("A", "B'"), ("B", "C'"), ("C", "A'"))
    assert bij.col_map == (("D", "F'"), ("E", "E'"), ("F", "D'"))
    # The defining condition: payoffs agree cell by cell under the bijection.
    for i in range(3):
        for j in range(3):
            assert first.payoff(i, j) == second.payoff(bij.row_perm[i], bij.col_perm[j])


def test_row_swap_variant_gives_row_swap_bijection(pd):
    bij = find_isomorphism(pd, variant(pd, VariantKind.ROW_SWAP))
    assert bij is not None
    assert bij.row_perm == (1, 0) and bij.col_perm == (0, 1)


@pytest.mark.parametrize("kind", list(VariantKind))
def test_every_variant_is_isomorphic(pd, kind):
    other = variant(pd, kind)
    bij = find_isomorphism(pd, other)
    assert bij is not None
    for i in range(2):
        for j in range(2):
            assert pd.payoff(i, j) == other.payoff(bij.row_perm[i], bij.col_perm[j])


def test_isomorphism_is_symmetric(pd):
    rng = random.Random(5)
    other = variant(pd, VariantKind.ROW_COL_SWAP)
    unrelated = random_generic_game(rng)
    assert (find_isomorphism(pd, other) is None) == (find_isomorphism(other, pd) is None)
    assert (find_isomorphism(pd, unrelated) is None) == (find_isomorphism(unrelated, pd) is None)


def test_no_isomorphism_across_shapes(pd):
    g = make_game(("A",), ("B",), [[(0, 0)]])
    assert find_isomorphism(pd, g) is None


def test_isomorphism_tolerance_for_float_payoffs(pd):
    bumped = make_game(
        ("C", "D"),
        ("C", "D"),
        [
            [(F(3) + F(1, 10**12), 3), (0, 5)],
            [(5, 0), (1, 1)],
        ],
    )
    assert find_isomorphism(pd, bumped) is None
    assert find_isomorphism(pd, bumped, tol=1e-9) is not None


def test_isomorphism_tolerance_is_exact_at_the_bound(pd):
    # FLOAT_TOL read as its exact binary value, a little above 1e-9.
    tol = F(FLOAT_TOL)
    for bump, found in ((tol, True), (tol + F(1, 10**30), False)):
        bumped = make_game(("C", "D"), ("C", "D"), [[(3 + bump, 3), (0, 5)], [(5, 0), (1, 1)]])
        assert (find_isomorphism(pd, bumped, tol=FLOAT_TOL) is not None) == found


@pytest.mark.parametrize("tol", [-1, float("nan"), float("inf")])
def test_isomorphism_rejects_bad_tolerance(pd, tol):
    with pytest.raises(ValueError, match="tolerance"):
        find_isomorphism(pd, pd, tol=tol)


# --- differential test against the brute-force Fraction search ---------------

EXTREMES = (F(10**400), F(-(10**400)), F(1, 10**400), F(0), F(1))
payoff_pools = st.sampled_from(
    [
        st.sampled_from([F(0), F(1), F(2)]),  # tie-heavy
        rationals,
        st.sampled_from(EXTREMES),  # 1e400 and 1/10**400
    ]
)
offsets = st.sampled_from([F(0), F(FLOAT_TOL) / 2, F(FLOAT_TOL), 2 * F(FLOAT_TOL)])


def _grid_game(grid, rows, cols) -> BimatrixGame:
    return BimatrixGame(tuple(rows), tuple(cols), tuple(tuple(row) for row in grid))


@st.composite
def isomorphism_cases(draw):
    """A game, a second game and a tolerance.

    The second game is either drawn on its own or a presentation of the first
    with rows and columns permuted, one cell then offset by 0, tol/2, tol or
    2*tol for tol = FLOAT_TOL.
    """
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pool = draw(payoff_pools)
    grid = [[(draw(pool), draw(pool)) for _ in range(m)] for _ in range(n)]
    a = _grid_game(grid, (f"r{i}" for i in range(n)), (f"c{j}" for j in range(m)))
    if draw(st.booleans()):
        rows = draw(st.permutations(range(n)))
        cols = draw(st.permutations(range(m)))
        other = [[list(grid[i][j]) for j in cols] for i in rows]
        i, j, p = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1)), draw(st.integers(0, 1))
        other[i][j][p] += draw(st.sampled_from([1, -1])) * draw(offsets)
        b = _grid_game(
            [[tuple(c) for c in row] for row in other],
            (f"R{i}" for i in rows),
            (f"C{j}" for j in cols),
        )
    else:
        rn, rm = draw(st.sampled_from([(n, m), (m, n), (3, 3)]))
        b = _grid_game(
            [[(draw(pool), draw(pool)) for _ in range(rm)] for _ in range(rn)],
            (f"R{i}" for i in range(rn)),
            (f"C{j}" for j in range(rm)),
        )
    return a, b, draw(st.sampled_from([0.0, FLOAT_TOL]))


@settings(max_examples=300, deadline=None)
@given(case=isomorphism_cases())
def test_isomorphism_matches_oracle(case):
    a, b, tol = case
    assert find_isomorphism(a, b, tol) == isomorphism_oracle.find_isomorphism(a, b, tol)
    assert find_isomorphism(b, a, tol) == isomorphism_oracle.find_isomorphism(b, a, tol)


# Float radians of operators that `classify` calls invariant (theta = pi/2,
# beta - alpha a multiple of pi), built raw so that they stay on the float
# route: rounding turns their exact ties into near-ties, which only the
# tolerant search matches.
invariant_float_angles = st.builds(
    lambda k, j: (math.pi / 2, k * math.pi / 4, (k + 4 * j) % 8 * math.pi / 4),
    st.integers(0, 7),
    st.integers(0, 1),
)


@settings(max_examples=100, deadline=None)
@given(
    g=games_2x2(),
    kind=st.sampled_from(list(VariantKind)),
    angles=st.tuples(st.floats(0, math.pi), st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
    | invariant_float_angles,
    tol=st.sampled_from([0.0, FLOAT_TOL]),
)
def test_isomorphism_matches_oracle_on_float_extensions(g, kind, angles, tol):
    params = UnitaryParams(*angles)
    base = build_extension(g, params).game
    other = build_extension(variant(g, kind), params).game
    assert find_isomorphism(base, other, tol) == isomorphism_oracle.find_isomorphism(base, other, tol)


def test_is_generic(pd):
    assert is_generic(pd)
    zero = make_game(("A", "B"), ("C", "D"), [[(0, 0), (0, 0)], [(0, 0), (0, 0)]])
    assert not is_generic(zero)
    assert is_generic(random_generic_game(random.Random(3)))


@pytest.mark.parametrize("player", [0, 1])
def test_equal_payoffs_spelled_differently_are_not_generic(player):
    # "1/2", "2/4" and "0.5" are one number, so any two of them tie.
    for first, second in [("1/2", "2/4"), ("1/2", "0.5"), ("2/4", "0.5")]:
        cells = [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]
        cells[0][0][player], cells[1][1][player] = first, second
        assert not is_generic(make_game(("A", "B"), ("C", "D"), cells))


@given(g=games_2x2())
def test_is_generic_matches_distinct_fractions(g):
    assert is_generic(g) == all(len(set(g.player_values(p))) == 4 for p in (0, 1))


@st.composite
def farey_midpoints(draw):
    """The midpoint of p/q and its right neighbour r/s, both with denominators up to the limit.

    No fraction with such a denominator lies strictly between the two, so
    they are the two candidates `limit_denominator` weighs, and the midpoint
    is a tie between them.  A nudge of a small fraction of the gap moves it
    to either side.
    """
    q = draw(st.integers(1, SNAP_DENOMINATOR))
    p = draw(st.integers(-10 * q, 10 * q).filter(lambda p: math.gcd(p, q) == 1))
    # r q - p s = 1 with s as large as the limit allows: s = -1/p (mod q).
    s = -pow(p, -1, q) % q
    s += (SNAP_DENOMINATOR - s) // q * q
    r = (1 + p * s) // q
    nudge = draw(st.sampled_from([-1, 0, 1]))
    return F(p * s + r * q, 2 * q * s) + F(nudge, 4 * q * s * SNAP_DENOMINATOR)


snap_inputs = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(F),
    st.builds(F, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
    st.fractions(max_denominator=SNAP_DENOMINATOR),
    farey_midpoints(),
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.tuples(snap_inputs, snap_inputs), min_size=1, max_size=3))
def test_snapped_equals_limit_denominator(cells):
    game = make_game(("A",), [f"c{j}" for j in range(len(cells))], [cells])
    for (a, b), snapped_cell in zip(cells, snapped(game).payoffs[0]):
        assert snapped_cell == (
            a.limit_denominator(SNAP_DENOMINATOR), b.limit_denominator(SNAP_DENOMINATOR)
        )


@given(a=rationals, b=rationals)
def test_rational_arithmetic_round_trips(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a * b) / b == a


def test_game_json_round_trip(pd):
    g = make_game(("x", "y"), ("u", "v"), [[("1/3", "-2/7"), (0, 1)], [(2, "5/2"), (-1, 0)]])
    for game in (pd, g):
        data = game_to_json_dict(game)
        assert game_from_json_dict(data) == game
    assert game_to_json_dict(g)["payoffs"][0][0] == ["1/3", "-2/7"]


def test_game_json_missing_field_rejected():
    with pytest.raises(ValueError, match="missing"):
        game_from_json_dict({"rows": ["A"], "payoffs": [[["0", "0"]]]})


def test_payoff_string_within_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert rational(f"2.5e{limit - 1}") == F(25) * 10 ** (limit - 2)
    assert rational(f"2e-{limit}") == F(2, 10**limit)
    long_decimal = "0." + "0" * (limit - 1) + "1"  # no exponent, limit + 1 digits below
    for text in (f"1e{limit}", "1e5000", "-1e-5000", f"5e-{limit + 1}", "1e5000000", long_decimal):
        with pytest.raises(ValueError, match="digits"):
            rational(text)
    sys.set_int_max_str_digits(0)  # no limit
    try:
        assert rational("1e5000") == F(10) ** 5000
    finally:
        sys.set_int_max_str_digits(limit)
