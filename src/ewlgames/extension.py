"""Extending a 2x2 game with one shared unitary strategy.

The extended 3x3 game keeps the two classical strategies (played as I and
iX) in its top-left block and adds one row and column for the unitary
strategy U(theta, alpha, beta).  Whether the result is invariant under
relabelings of the classical game depends only on the angles: at
theta = pi/2 with alpha and beta on the quarter-pi grid (minus a parity
exclusion) there are exactly 24 invariant operators, falling into three
families whose payoff matrices are rational in the input payoffs:

  * family I  : the new row/column averages the classical ones pairwise,
                so the extension collapses to classical mixing;
  * family II : the same averages with the pairs crossed over;
  * family III: every new cell is the average of all four classical cells.

Any other operator produces extensions that depend on how the classical
game is written down; `empirical_invariance` demonstrates this directly by
extending all relabeled presentations and searching for isomorphisms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .ewl import UnitaryParams, format_angle
from .games import (
    FLOAT_TOL,
    BimatrixGame,
    VariantKind,
    find_isomorphism,
    game_to_json_dict,
    is_generic,
    variant,
)

EXT_LABELS = ("I", "iX", "U")

_HALF_PI = math.pi / 2.0


class InvarianceKind(Enum):
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    TYPE_III = "TypeIII"
    NON_INVARIANT = "NonInvariant"


@dataclass(frozen=True)
class ExtensionClass:
    """Invariance family of an operator, with the grid witness when invariant.

    ``witness`` holds the integers (k, l) with alpha - beta = k*pi/2 and
    alpha + beta = l*pi/2.
    """

    kind: InvarianceKind
    witness: tuple[int, int] | None = None

    @property
    def invariant(self) -> bool:
        return self.kind is not InvarianceKind.NON_INVARIANT


@dataclass(frozen=True)
class ExtendedGame:
    """A 3x3 extension together with its provenance.

    ``exact`` is True when every payoff was computed in rational arithmetic;
    float-built extensions carry their payoffs as exact binary rationals but
    should only be fed to the equilibrium solver deliberately.
    """

    game: BimatrixGame
    source: BimatrixGame
    params: UnitaryParams
    exact: bool


def _cos_pi(r: Fraction) -> Fraction | None:
    """cos(r*pi) when it is rational, else None.

    By Niven's theorem the rational values of cosine at rational multiples
    of pi are exactly 0, +-1/2 and +-1, reached at denominators 1, 2, 3.
    """
    r = r % 2
    if r.denominator == 1:
        return Fraction(1) if r == 0 else Fraction(-1)
    if r.denominator == 2:
        return Fraction(0)
    if r.denominator == 3:
        return Fraction(1, 2) if r.numerator % 6 in (1, 5) else Fraction(-1, 2)
    return None


def _sin_pi(r: Fraction) -> Fraction | None:
    return _cos_pi(Fraction(1, 2) - r)


def classify(params: UnitaryParams) -> ExtensionClass:
    """Invariance family of an operator.

    The operator is reduced to its lattice point (k, l), with theta = pi/2,
    alpha - beta = k*pi/2 and alpha + beta = l*pi/2: exactly from the pi
    multiples, or for float parameters by snapping within FLOAT_TOL radians,
    since the invariant set has measure zero.  Then n = l + k and m = l - k
    are alpha and beta in units of pi/4, modulo 8, and one rule reads off
    the family.  Odd k and l give n - m = 2 (mod 4), which no family accepts.
    """
    non_invariant = ExtensionClass(InvarianceKind.NON_INVARIANT)
    if params.is_exact:
        t, a, b = params.pi_multiples
        k, l = 2 * (a - b), 2 * (a + b)
        if t != Fraction(1, 2) or k.denominator != 1 or l.denominator != 1:
            return non_invariant
        k, l = int(k), int(l)
    elif abs(params.theta - _HALF_PI) > FLOAT_TOL:
        return non_invariant
    else:
        diff, total = params.alpha - params.beta, params.alpha + params.beta
        k, l = round(diff / _HALF_PI), round(total / _HALF_PI)
        if abs(diff - k * _HALF_PI) > FLOAT_TOL or abs(total - l * _HALF_PI) > FLOAT_TOL:
            return non_invariant
    n, m = (l + k) % 8, (l - k) % 8
    if n in (0, 4) and m in (0, 4):
        kind = InvarianceKind.TYPE_I
    elif n in (2, 6) and m in (2, 6):
        kind = InvarianceKind.TYPE_II
    elif n % 2 == 1 and m % 2 == 1:
        kind = InvarianceKind.TYPE_III
    else:
        return non_invariant
    return ExtensionClass(kind, (k, l))


def _trig_values(params: UnitaryParams):
    """cos(theta), cos(2a), sin(2a), cos(2b), sin(2b) and sin(2(a - b)), and exactness.

    The six values are Fractions when the angles are exact multiples of pi
    and all six are rational (by Niven's theorem: every operator on the
    quarter-pi grid, in particular I, iX and Q, at theta in {0, pi/3, pi/2,
    2pi/3, pi}); otherwise all six are floats.
    """
    if params.is_exact:
        t, a, b = params.pi_multiples
        values = (
            _cos_pi(t),
            _cos_pi(2 * a),
            _sin_pi(2 * a),
            _cos_pi(2 * b),
            _sin_pi(2 * b),
            _sin_pi(2 * (a - b)),
        )
        if None not in values:
            return values, True
    t, a, b = params.theta, params.alpha, params.beta
    values = (
        math.cos(t),
        math.cos(2 * a),
        math.sin(2 * a),
        math.cos(2 * b),
        math.sin(2 * b),
        math.sin(2 * (a - b)),
    )
    return values, False


def _outcome_weights(cos_t, c2a, s2a, c2b, s2b, s2ab):
    """Outcome weights (w00, w01, w10, w11) of the five new cells.

    The cells come in the order (I, U), (iX, U), (U, I), (U, iX), (U, U).
    Each weight is the probability |<ij|Psi>|^2 of the EWL protocol in
    double-angle form, so the same expressions run over Fraction or float.
    """
    c2h, s2h = (1 + cos_t) / 2, (1 - cos_t) / 2  # cos^2(theta/2), sin^2(theta/2)
    ca2, sa2 = (1 + c2a) / 2, (1 - c2a) / 2  # cos^2(alpha), sin^2(alpha)
    cb2, sb2 = (1 + c2b) / 2, (1 - c2b) / 2
    mid = (1 + s2ab) * c2h * s2h  # = (cos + sin)^2(a - b) * sin^2(theta) / 4
    return (
        (ca2 * c2h, cb2 * s2h, sb2 * s2h, sa2 * c2h),
        (sb2 * s2h, sa2 * c2h, ca2 * c2h, cb2 * s2h),
        (ca2 * c2h, sb2 * s2h, cb2 * s2h, sa2 * c2h),
        (sb2 * s2h, ca2 * c2h, sa2 * c2h, cb2 * s2h),
        ((c2a * c2h + s2b * s2h) ** 2, mid, mid, (s2a * c2h - c2b * s2h) ** 2),
    )


def build_extension(game: BimatrixGame, params: UnitaryParams) -> ExtendedGame:
    """The 3x3 extension of a 2x2 game by the strategy U(theta, alpha, beta).

    The classical block is always embedded exactly.  The five new cells are
    weighted sums of the four classical cells, evaluated in rational
    arithmetic whenever the angles allow it; otherwise they are computed in
    floats and the result is marked ``exact=False``.
    """
    if game.shape != (2, 2):
        raise ValueError(f"extensions need a 2x2 game, got {game.shape}")
    d = [game.payoff(0, 0), game.payoff(0, 1), game.payoff(1, 0), game.payoff(1, 1)]
    values, exact = _trig_values(params)
    if not exact:
        d = [(float(x), float(y)) for x, y in d]
    new = []
    for weights in _outcome_weights(*values):
        u1 = sum(w * c[0] for w, c in zip(weights, d))
        u2 = sum(w * c[1] for w, c in zip(weights, d))
        new.append((Fraction(u1), Fraction(u2)))
    u_iu, u_ixu, u_ui, u_uix, u_uu = new
    grid = (
        (game.payoff(0, 0), game.payoff(0, 1), u_iu),
        (game.payoff(1, 0), game.payoff(1, 1), u_ixu),
        (u_ui, u_uix, u_uu),
    )
    return ExtendedGame(
        game=BimatrixGame(EXT_LABELS, EXT_LABELS, grid),
        source=game,
        params=params,
        exact=exact,
    )


def empirical_invariance(game: BimatrixGame, params: UnitaryParams) -> bool:
    """Check invariance directly: extend every presentation and compare.

    Builds the extension of the game and of its three relabeled variants and
    returns True iff each variant's extension is strongly isomorphic to the
    base one.  Float-built extensions are compared within FLOAT_TOL.  On
    non-generic games the verdict can be an accident of payoff ties, so a
    warning is emitted.
    """
    if not is_generic(game):
        warnings.warn(
            "empirical invariance checked on a non-generic game; "
            "payoff ties can make the verdict accidental",
            stacklevel=2,
        )
    base = build_extension(game, params)
    tol = 0.0 if base.exact else FLOAT_TOL
    for kind in VariantKind:
        other = build_extension(variant(game, kind), params)
        if find_isomorphism(base.game, other.game, tol=tol) is None:
            return False
    return True


def extended_to_json_dict(ext: ExtendedGame) -> dict:
    """Extended game as a JSON-ready dict: the game plus params/class/exact."""
    data = game_to_json_dict(ext.game)
    if ext.params.is_exact:
        t, a, b = ext.params.pi_multiples
        angles = {"theta": format_angle(t), "alpha": format_angle(a), "beta": format_angle(b)}
    else:
        angles = {
            "theta": ext.params.theta,
            "alpha": ext.params.alpha,
            "beta": ext.params.beta,
        }
    data["params"] = angles
    data["class"] = classify(ext.params).kind.value
    data["exact"] = ext.exact
    return data
