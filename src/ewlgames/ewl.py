"""Two-qubit quantization machinery in the Eisert-Wilkens-Lewenstein style.

Strategies are SU(2) matrices

    U(theta, alpha, beta) = [[ e^{i a} cos(t/2),   i e^{i b} sin(t/2)],
                             [ i e^{-i b} sin(t/2), e^{-i a} cos(t/2)]]

acting on the maximally entangled state J|00>, with J = (I(x)I + i X(x)X)/sqrt(2).
Payoffs are expectations of diagonal observables in the final state
J^dag (U1 (x) U2) J |00>.  The module carries two independent payoff routes:
the statevector pipeline and a closed-form trigonometric formula, each
serving as an oracle for the other.  Records are immutable named tuples.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from typing import NamedTuple

from .games import BimatrixGame

# Radians within which `UnitaryParams.from_parts` snaps angles onto the exact grid.
FLOAT_TOL = 1e-9

_TWO_PI = 2.0 * math.pi

# The exact grid's one rule, by axis, which `_place` applies: theta counts in
# sixths of pi where its multiple of pi has a denominator d of at most 3, alpha
# and beta in quarters where d divides 4.  d maps to its units, 6/d or 4/d.
_SIXTHS = {d: 6 // d for d in (1, 2, 3)}
_QUARTERS = {d: 4 // d for d in (1, 2, 4)}


def _place(multiple: Fraction, units: dict[int, int]) -> int | None:
    """``multiple`` of pi in the ``units`` of one axis, or None off the grid."""
    unit = units.get(multiple.denominator)
    return None if unit is None else multiple.numerator * unit


class UnitaryParams(NamedTuple):
    """Strategy parameters (theta, alpha, beta) in radians.

    ``pi_multiples`` records angles given as rational multiples of pi, for
    `grid_point` and the JSON spelling; only `grid_point` decides exactness,
    and without them an operator is float.  theta lies in [0, pi]; alpha and
    beta are reduced mod 2*pi.
    """

    theta: float
    alpha: float
    beta: float
    pi_multiples: tuple[Fraction, Fraction, Fraction] | None = None

    @classmethod
    def exact_pi(cls, theta, alpha, beta) -> "UnitaryParams":
        """Build from rational multiples of pi, e.g. exact_pi(0, Fraction(1, 2), 0).

        A float argument is a multiple of pi too, so exact_pi(0.5, 0, 0) is pi/2.
        """
        return params_from_angles(*(Fraction(v) if isinstance(v, float) else v
                                    for v in (theta, alpha, beta)))

    @classmethod
    def from_parts(cls, theta, alpha, beta) -> "UnitaryParams":
        """The operator of three parts: one `theta_part` and two `phase_part`.

        Every constructor builds through here.  It is exact when all three
        parts carry their multiple of pi.  Otherwise it is the one place float
        angles become exact: if theta, alpha and beta are each within
        FLOAT_TOL of a point of the exact grid (see `grid_point`), this is the
        exact operator there.  Any other operator stays float.
        """
        angles = (theta[1], alpha[1], beta[1])
        if theta[0] is not None and alpha[0] is not None and beta[0] is not None:
            return cls(*angles, (theta[0], alpha[0], beta[0]))
        for name, value in (("alpha", alpha[1]), ("beta", beta[1])):
            if not math.isfinite(value):
                raise ValueError(f"{name} = {value} is not a finite angle")
        steps = (6, 4, 4)  # theta in sixths of pi, alpha and beta in quarters
        ks = [round(v * n / math.pi) for v, n in zip(angles, steps)]
        if all(abs(v - k * math.pi / n) <= FLOAT_TOL for v, k, n in zip(angles, ks, steps)):
            near = cls.exact_pi(*map(Fraction, ks, steps))
            if near.grid_point is not None:
                return near
        return cls(*angles)

    @staticmethod
    def theta_part(theta) -> tuple[Fraction | None, float, int | None]:
        """theta checked against [0, pi], with its multiple of pi, radians and place in sixths.

        This is the one range check of theta.  A float is radians, clamped
        within FLOAT_TOL of [0, pi], with no multiple or place.  Anything else
        is a multiple of pi; off the grid its place is None.
        """
        if isinstance(theta, float):
            if not -FLOAT_TOL <= theta <= math.pi + FLOAT_TOL:
                raise ValueError(f"theta = {theta} outside [0, pi]")
            return None, min(max(theta, 0.0), math.pi), None
        t = Fraction(theta)
        if not 0 <= t <= 1:
            raise ValueError(f"theta = {t}*pi outside [0, pi]")
        return t, float(t) * math.pi, _place(t, _SIXTHS)

    @staticmethod
    def phase_part(angle) -> tuple[Fraction | None, float, int | None]:
        """alpha or beta reduced, with its multiple of pi, radians and place in quarters.

        A float is radians, reduced mod 2*pi if finite, with no multiple or
        place.  Anything else is a multiple of pi reduced mod 2, so its radians
        do not depend on its spelling; its place lies in 0..7, or is None off
        the grid.
        """
        if isinstance(angle, float):
            return None, angle % _TWO_PI if math.isfinite(angle) else angle, None
        a = Fraction(angle) % 2
        return a, float(a) * math.pi, _place(a, _QUARTERS)

    @classmethod
    def from_radians(cls, theta: float, alpha: float, beta: float) -> "UnitaryParams":
        """Build from float radians: `params_from_angles` of the arguments as floats."""
        return params_from_angles(*map(float, (theta, alpha, beta)))

    @property
    def grid_point(self) -> tuple[int, int, int] | None:
        """(sixths, qa, qb) on the exact grid, else None.

        The exact grid is theta in {0, pi/3, pi/2, 2pi/3, pi}, a multiple of
        pi/3 or pi/2, with alpha and beta multiples of pi/4.  By Niven's
        theorem it is where every extension is rational.  On it, theta is
        sixths*pi/6, alpha qa*pi/4 and beta qb*pi/4, read off the pi
        multiples as they are stored, unreduced, by `_place`, the grid's one
        rule.  A float operator is never on it.
        """
        if self.pi_multiples is None:
            return None
        t, a, b = self.pi_multiples
        sixths = _place(t, _SIXTHS)
        qa = None if sixths is None else _place(a, _QUARTERS)
        qb = None if qa is None else _place(b, _QUARTERS)
        return None if qb is None else (sixths, qa, qb)


def parse_angle(token: str) -> Fraction | float:
    """Parse an angle written either as a rational multiple of pi or in radians.

    "1/2pi", "pi", "-pi", "3/4pi", "2pi" and plain "0" are exact (a Fraction giving
    the multiple of pi); any other decimal is float radians.  Anything else,
    including a zero denominator and non-finite decimals, raises ValueError.
    """
    if not isinstance(token, str):
        raise ValueError(f"cannot parse angle {token!r}")
    token = token.strip().lower().replace(" ", "")
    match = re.fullmatch(r"([+-]?)(\d+(?:/\d+)?)?pi", token)
    try:
        value = Fraction(match.group(1) + (match.group(2) or "1")) if match else float(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse angle {token!r}") from None
    if isinstance(value, Fraction):
        return value
    if not math.isfinite(value):
        raise ValueError(f"cannot parse angle {token!r}: not a finite number")
    if value == 0.0:
        return Fraction(0)
    return value


def format_angle(value: Fraction | float) -> str | float:
    """Inverse of `parse_angle` for reports: Fractions render as "k/npi"."""
    if isinstance(value, Fraction):
        if value == 0:
            return "0"
        if value == 1:
            return "pi"
        return f"{value}pi"
    return value


def params_from_angles(theta, alpha, beta) -> UnitaryParams:
    """Build UnitaryParams from `parse_angle` outputs, exact when all are.

    A float is radians and a Fraction a multiple of pi, read by `theta_part`
    and `phase_part` and put together by `from_parts`.
    """
    return UnitaryParams.from_parts(UnitaryParams.theta_part(theta),
                                    UnitaryParams.phase_part(alpha),
                                    UnitaryParams.phase_part(beta))


# Named operators: the two classical strategies and the commonly studied Q.
I_OP = UnitaryParams.exact_pi(0, 0, 0)
IX_OP = UnitaryParams.exact_pi(1, 0, 0)
Q_OP = UnitaryParams.exact_pi(0, Fraction(1, 2), 0)

_SQRT2 = math.sqrt(2.0)


def unitary_matrix(params: UnitaryParams) -> tuple[tuple[complex, complex], ...]:
    """The 2x2 strategy matrix U(theta, alpha, beta) as nested row tuples."""
    half = params.theta / 2.0
    c, s = math.cos(half), math.sin(half)
    return (
        (cmath.exp(1j * params.alpha) * c, 1j * cmath.exp(1j * params.beta) * s),
        (1j * cmath.exp(-1j * params.beta) * s, cmath.exp(-1j * params.alpha) * c),
    )


def final_state(p1: UnitaryParams, p2: UnitaryParams) -> tuple[complex, ...]:
    """Statevector J^dag (U1 (x) U2) J |00> over the basis |00>,|01>,|10>,|11>.

    J|00> = (|00> + i|11>)/sqrt(2), so (U1 (x) U2) J|00> is the |00> column of
    U1 (x) U2 plus i times its |11> column, over sqrt(2).  J^dag is
    (I - i X(x)X)/sqrt(2), and X(x)X reverses the basis order.
    """
    u1, u2 = unitary_matrix(p1), unitary_matrix(p2)
    v = [
        (u1[i][0] * u2[j][0] + 1j * u1[i][1] * u2[j][1]) / _SQRT2
        for i in (0, 1)
        for j in (0, 1)
    ]
    return tuple((v[k] - 1j * v[3 - k]) / _SQRT2 for k in range(4))


class MeasurementPair(NamedTuple):
    """Diagonal payoff observables for the two players.

    Weights are ordered like the state basis |00>,|01>,|10>,|11> and are the
    game's payoffs converted to floats.
    """

    m1: tuple[float, float, float, float]
    m2: tuple[float, float, float, float]

    @classmethod
    def from_game(cls, game: BimatrixGame) -> "MeasurementPair":
        if game.shape != (2, 2):
            raise ValueError(f"measurements need a 2x2 game, got {game.shape}")
        cells = [game.payoff(i, j) for i in (0, 1) for j in (0, 1)]
        return cls(
            m1=tuple(float(c[0]) for c in cells),
            m2=tuple(float(c[1]) for c in cells),
        )


def payoff_from_state(state, pair: MeasurementPair) -> tuple[float, float]:
    """Expectation of both players' observables in ``state``."""
    probs = [abs(z) ** 2 for z in state]
    norm = sum(probs)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state is not normalized (norm^2 = {norm})")
    return (
        sum(p * w for p, w in zip(probs, pair.m1)),
        sum(p * w for p, w in zip(probs, pair.m2)),
    )


def closed_form_payoff(
    p1: UnitaryParams, p2: UnitaryParams, game: BimatrixGame
) -> tuple[float, float]:
    """Payoff pair from the closed-form trigonometric expression.

    The four weights below are the outcome probabilities |<ij|Psi>|^2 written
    out explicitly; they are algebraically equal to the statevector route and
    the two are cross-checked to 1e-12 in the test suite.
    """
    if game.shape != (2, 2):
        raise ValueError(f"the closed form needs a 2x2 game, got {game.shape}")
    c1, s1 = math.cos(p1.theta / 2.0), math.sin(p1.theta / 2.0)
    c2, s2 = math.cos(p2.theta / 2.0), math.sin(p2.theta / 2.0)
    a1, b1, a2, b2 = p1.alpha, p1.beta, p2.alpha, p2.beta

    w00 = (math.cos(a1 + a2) * c1 * c2 + math.sin(b1 + b2) * s1 * s2) ** 2
    w01 = (math.cos(a1 - b2) * c1 * s2 + math.sin(a2 - b1) * s1 * c2) ** 2
    w10 = (math.sin(a1 - b2) * c1 * s2 + math.cos(a2 - b1) * s1 * c2) ** 2
    w11 = (math.sin(a1 + a2) * c1 * c2 - math.cos(b1 + b2) * s1 * s2) ** 2

    weights = (w00, w01, w10, w11)
    cells = [game.payoff(i, j) for i in (0, 1) for j in (0, 1)]
    u1 = sum(w * float(c[0]) for w, c in zip(weights, cells))
    u2 = sum(w * float(c[1]) for w, c in zip(weights, cells))
    return (u1, u2)
