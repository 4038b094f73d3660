"""Reference extensions: the invariant family matrices and the Fraction formula.

`ewlgames.build_extension` computes every extension from one outcome-weight
formula, summed in integers on the exact route.  The family matrices below
write the invariant ones down directly as averages of the classical cells,
independent of any trigonometry, and stay here as the oracle the extension
and acceptance tests compare against.  `oracle_extension_grid` evaluates the
same outcome weights the older way, as products of Fraction (or float)
half-angle factors summed one weighted cell at a time, and is the
differential oracle for the integer route.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ewlgames import EXT_LABELS, BimatrixGame, ExtendedGame, InvarianceKind, UnitaryParams
from ewlgames.games import Payoff


def _mean(*cells: Payoff) -> Payoff:
    n = len(cells)
    return (
        sum((c[0] for c in cells), Fraction(0)) / n,
        sum((c[1] for c in cells), Fraction(0)) / n,
    )


_REPRESENTATIVE = {
    InvarianceKind.TYPE_I: UnitaryParams.exact_pi(Fraction(1, 2), 0, 0),
    InvarianceKind.TYPE_II: UnitaryParams.exact_pi(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
    InvarianceKind.TYPE_III: UnitaryParams.exact_pi(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
}


def build_type_matrix(game: BimatrixGame, kind: InvarianceKind) -> ExtendedGame:
    """The exact 3x3 matrix of one invariant family, built symbolically."""
    if game.shape != (2, 2):
        raise ValueError(f"extensions need a 2x2 game, got {game.shape}")
    if kind is InvarianceKind.NON_INVARIANT:
        raise ValueError("non-invariant operators have no family matrix")
    d00, d01 = game.payoff(0, 0), game.payoff(0, 1)
    d10, d11 = game.payoff(1, 0), game.payoff(1, 1)
    avg4 = _mean(d00, d01, d10, d11)
    if kind is InvarianceKind.TYPE_I:
        col = (_mean(d00, d01), _mean(d10, d11))
        row = (_mean(d00, d10), _mean(d01, d11))
    elif kind is InvarianceKind.TYPE_II:
        col = (_mean(d10, d11), _mean(d00, d01))
        row = (_mean(d01, d11), _mean(d00, d10))
    else:
        col = (avg4, avg4)
        row = (avg4, avg4)
    grid = (
        (d00, d01, col[0]),
        (d10, d11, col[1]),
        (row[0], row[1], avg4),
    )
    return ExtendedGame(
        game=BimatrixGame(EXT_LABELS, EXT_LABELS, grid),
        source=game,
        params=_REPRESENTATIVE[kind],
        exact=True,
    )


# --- the outcome-weight formula in Fraction arithmetic -------------------------


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


def oracle_extension_grid(game: BimatrixGame, params: UnitaryParams):
    """The 3x3 payoff grid of the extension and its exactness, by the formula above."""
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
    return grid, exact
