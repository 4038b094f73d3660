"""Quantization machinery: strategy matrices, statevector, payoff routes."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ewlgames import (
    I_OP,
    IX_OP,
    MeasurementPair,
    Q_OP,
    UnitaryParams,
    closed_form_payoff,
    final_state,
    format_angle,
    make_game,
    params_from_angles,
    parse_angle,
    payoff_from_state,
    unitary_matrix,
)
from ewlgames.ewl import FLOAT_TOL
from ewlgames.selfcheck import oracle_deviation

KET = {name: np.eye(4, dtype=complex)[i] for i, name in enumerate(("00", "01", "10", "11"))}

angle_theta = st.floats(min_value=0.0, max_value=math.pi)
angle_phase = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True)


def random_params(rng):
    return UnitaryParams.from_radians(
        rng.uniform(0.0, math.pi),
        rng.uniform(0.0, 2.0 * math.pi),
        rng.uniform(0.0, 2.0 * math.pi),
    )


# --- strategy matrices -------------------------------------------------------


def test_identity_operator():
    assert np.allclose(unitary_matrix(I_OP), np.eye(2), atol=1e-15)


def test_flip_operator_is_i_times_x():
    assert np.allclose(unitary_matrix(IX_OP), 1j * np.array([[0, 1], [1, 0]]), atol=1e-15)


def test_q_operator_is_diag_i_minus_i():
    assert np.allclose(unitary_matrix(Q_OP), np.diag([1j, -1j]), atol=1e-15)


def test_theta_out_of_range_rejected():
    with pytest.raises(ValueError):
        UnitaryParams.exact_pi(2, 0, 0)
    with pytest.raises(ValueError):
        UnitaryParams.from_radians(-0.2, 0.0, 0.0)
    with pytest.raises(ValueError):
        UnitaryParams.from_radians(math.pi + 1e-6, 0.0, 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["alpha", "beta"])
def test_non_finite_phase_rejected(name, value):
    angles = {"theta": math.pi / 2, "alpha": 0.0, "beta": 0.0, name: value}
    with pytest.raises(ValueError, match=f"{name} = .* not a finite angle"):
        UnitaryParams.from_radians(**angles)


# Denominators of pi in quarters, sixths and beyond, on the grid and off it.
PHASE_DENOMINATORS = (1, 2, 3, 4, 5, 6, 8, 12, 24)


def test_an_exact_phase_gives_one_operator_in_every_spelling():
    for d in PHASE_DENOMINATORS:
        for n in range(-48, 49):
            phase = F(n, d)
            assert params_from_angles(0.8, phase, 0.3) == params_from_angles(0.8, phase % 2, 0.3)
            assert params_from_angles(0.8, 0.3, phase) == params_from_angles(0.8, 0.3, phase % 2)


@pytest.mark.parametrize(
    "x, y, z",
    [(0, 0, 0), (1, F(5, 2), F(-1, 4)), (F(1, 3), F(-9, 4), 5), (F(1, 5), F(1, 7), F(2, 3)),
     (0.5, 0.25, 0)],
    ids=["zero", "unreduced", "off-grid-theta", "off-grid", "float"],
)
def test_exact_pi_is_params_from_angles_of_fractions(x, y, z):
    assert UnitaryParams.exact_pi(x, y, z) == params_from_angles(F(x), F(y), F(z))


@pytest.mark.parametrize(
    "angles, point",
    [
        ((math.pi / 2, math.pi / 4, 3 * math.pi / 4), (3, 1, 3)),
        ((math.pi / 2 + 4e-10, math.pi / 4 - 4e-10, 2 * math.pi - 5e-10), (3, 1, 0)),
        ((-FLOAT_TOL / 2, 0.0, 0.0), (0, 0, 0)),
        ((math.pi + FLOAT_TOL / 2, -math.pi / 2, 9.0), None),
        ((math.pi / 2, math.pi / 2 + 1.1e-9, 0.0), None),
        ((0.8, 0.3, 1.1), None),
    ],
    ids=["on", "near", "under-zero", "over-pi", "just-beyond", "off"],
)
def test_from_radians_is_params_from_angles_of_floats(angles, point):
    p = UnitaryParams.from_radians(*angles)
    assert p == params_from_angles(*angles)
    assert p.grid_point == point


def test_constructor_contract_edges():
    snapped = params_from_angles(F(1, 2), 0.7853981634, F(0))
    assert snapped.pi_multiples == (F(1, 2), F(1, 4), F(0))
    half = UnitaryParams.exact_pi(0.5, 0, 0)
    assert half.theta == math.pi / 2 and half.pi_multiples == (F(1, 2), F(0), F(0))
    with pytest.raises(ValueError, match=r"^alpha = nan is not a finite angle$"):
        UnitaryParams.from_radians(0.1, math.nan, 0)


def test_phases_reduce_modulo_two_pi():
    p = UnitaryParams.exact_pi(0, F(5, 2), F(-1, 4))
    assert p.pi_multiples == (F(0), F(1, 2), F(7, 4))
    q = UnitaryParams.from_radians(1.0, 7.0, -1.0)
    assert 0.0 <= q.alpha < 2.0 * math.pi and 0.0 <= q.beta < 2.0 * math.pi


@settings(max_examples=60, deadline=None)
@given(theta=angle_theta, alpha=angle_phase, beta=angle_phase)
def test_strategy_matrices_are_unitary(theta, alpha, beta):
    u = np.array(unitary_matrix(UnitaryParams.from_radians(theta, alpha, beta)))
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


# --- final states ------------------------------------------------------------


def _reference_final_state(u1, u2):
    """Independent pipeline: the entangler written out as a literal matrix."""
    j = (np.eye(4, dtype=complex) + 1j * np.fliplr(np.eye(4, dtype=complex))) / math.sqrt(2)
    return j.conj().T @ np.kron(u1, u2) @ j @ KET["00"]


def test_identity_pair_returns_initial_state():
    assert np.allclose(final_state(I_OP, I_OP), KET["00"], atol=1e-12)


def test_flip_pair_reaches_11():
    state = final_state(IX_OP, IX_OP)
    assert abs(abs(np.vdot(state, KET["11"])) - 1.0) <= 1e-12  # equal up to phase
    ix = 1j * np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(state, _reference_final_state(ix, ix), atol=1e-12)


def test_q_pair_returns_to_00_up_to_phase():
    # diag(i, -i) on both sides undoes the entangler up to a sign, so the
    # pair lands back on |00>; this matches the tabulated extension, where
    # the (Q, Q) cell carries the game's top-left payoffs.
    state = final_state(Q_OP, Q_OP)
    assert abs(abs(np.vdot(state, KET["00"])) - 1.0) <= 1e-12  # equal up to phase
    q = np.diag([1j, -1j])
    assert np.allclose(state, _reference_final_state(q, q), atol=1e-12)
    assert np.allclose(state, -KET["00"], atol=1e-12)


def test_mixed_operator_pair_matches_reference_pipeline():
    rng = random.Random(9)
    for _ in range(25):
        p1, p2 = random_params(rng), random_params(rng)
        got = final_state(p1, p2)
        want = _reference_final_state(np.array(unitary_matrix(p1)), np.array(unitary_matrix(p2)))
        assert np.allclose(got, want, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(t1=angle_theta, a1=angle_phase, b1=angle_phase, t2=angle_theta, a2=angle_phase, b2=angle_phase)
def test_final_state_has_unit_norm(t1, a1, b1, t2, a2, b2):
    state = final_state(
        UnitaryParams.from_radians(t1, a1, b1), UnitaryParams.from_radians(t2, a2, b2)
    )
    assert abs(np.linalg.norm(state) - 1.0) <= 1e-12


# --- payoffs -----------------------------------------------------------------


def test_payoff_from_state_on_basis_states(pd):
    pair = MeasurementPair.from_game(pd)
    assert payoff_from_state(KET["00"], pair) == (3.0, 3.0)
    assert payoff_from_state(KET["11"], pair) == (1.0, 1.0)


def test_payoff_from_state_on_bell_state(pd):
    pair = MeasurementPair.from_game(pd)
    bell = (KET["00"] + KET["11"]) / math.sqrt(2)
    u1, u2 = payoff_from_state(bell, pair)
    assert abs(u1 - 2.0) <= 1e-12 and abs(u2 - 2.0) <= 1e-12


def test_payoff_from_state_rejects_unnormalized(pd):
    with pytest.raises(ValueError, match="normalized"):
        payoff_from_state(2.0 * KET["00"], MeasurementPair.from_game(pd))


def test_outcome_probabilities_sum_to_one():
    ones = make_game(("A", "B"), ("C", "D"), [[(1, 1), (1, 1)], [(1, 1), (1, 1)]])
    pair = MeasurementPair.from_game(ones)
    rng = random.Random(13)
    for _ in range(20):
        u1, u2 = payoff_from_state(final_state(random_params(rng), random_params(rng)), pair)
        assert abs(u1 - 1.0) <= 1e-12 and abs(u2 - 1.0) <= 1e-12


def test_measurements_require_2x2():
    with pytest.raises(ValueError):
        MeasurementPair.from_game(make_game(("A",), ("B",), [[(0, 0)]]))


def test_closed_form_on_classical_pairs(pd):
    assert closed_form_payoff(I_OP, I_OP, pd) == (3.0, 3.0)
    u1, u2 = closed_form_payoff(IX_OP, I_OP, pd)
    assert abs(u1 - 5.0) <= 1e-12 and abs(u2 - 0.0) <= 1e-12


def test_closed_form_requires_2x2():
    with pytest.raises(ValueError):
        closed_form_payoff(I_OP, I_OP, make_game(("A",), ("B",), [[(0, 0)]]))


def test_classical_embedding(pd):
    ops = (I_OP, IX_OP)
    for i, p1 in enumerate(ops):
        for j, p2 in enumerate(ops):
            u1, u2 = closed_form_payoff(p1, p2, pd)
            want = pd.payoff(i, j)
            assert abs(u1 - float(want[0])) <= 1e-12
            assert abs(u2 - float(want[1])) <= 1e-12


def test_closed_form_matches_statevector_route(pd):
    rng = random.Random(101)
    from ewlgames import random_generic_game

    for game in (pd, random_generic_game(rng), random_generic_game(rng)):
        worst = max(
            oracle_deviation(game, random_params(rng), random_params(rng)) for _ in range(300)
        )
        assert worst <= 1e-12


# --- angle parsing -----------------------------------------------------------


@pytest.mark.parametrize(
    "token, expected",
    [
        ("0", F(0)),
        ("pi", F(1)),
        ("2pi", F(2)),
        ("1/2pi", F(1, 2)),
        ("-1/4pi", F(-1, 4)),
        ("3/4 pi", F(3, 4)),
        ("0.75", 0.75),
        ("1.5e0", 1.5),
        ("-pi", F(-1)),
        ("+pi", F(1)),
        ("+3/4pi", F(3, 4)),
    ],
)
def test_parse_angle(token, expected):
    assert parse_angle(token) == expected


def test_parse_angle_rejects_garbage():
    with pytest.raises(ValueError):
        parse_angle("half a pie")


@pytest.mark.parametrize("token", ["bogus", "1/2p", "pi/2", "2pix", "1..2", "--pi", "+-pi", "-", "1/0pi"])
def test_parse_angle_rejects_malformed_tokens(token):
    with pytest.raises(ValueError, match="cannot parse angle"):
        parse_angle(token)


@pytest.mark.parametrize("value", [F(0), F(1), F(1, 2), F(7, 4), 0.3125])
def test_format_angle_round_trips(value):
    assert parse_angle(str(format_angle(value))) == value


def test_params_from_angles_exactness():
    exact = params_from_angles(F(1, 2), F(1, 4), F(0))
    assert exact.pi_multiples is not None and exact.theta == math.pi / 2
    mixed = params_from_angles(F(1, 2), 0.3, F(0))
    assert mixed.pi_multiples is None
    assert abs(mixed.theta - math.pi / 2) < 1e-15 and mixed.alpha == 0.3
