"""Reference family matrices: the three invariant extensions, built symbolically.

`ewlgames.build_extension` computes every extension from one outcome-weight
formula.  The family matrices below write the invariant ones down directly
as averages of the classical cells, independent of any trigonometry, and
stay here as the oracle the extension and acceptance tests compare against.
"""

from __future__ import annotations

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
