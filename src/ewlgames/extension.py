"""Extending a 2x2 game with one shared unitary strategy.

The extended 3x3 game keeps the two classical strategies (played as I and
iX) in its top-left block and adds one row and column for the unitary
strategy U(theta, alpha, beta).  Whether the result is invariant under
relabelings of the classical game depends only on the angles.  It is
invariant exactly at theta = pi/2 with n, m = 4*alpha/pi, 4*beta/pi
integers mod 8 that are both in {0, 4}, both in {2, 6}, or both odd: 24
operators, falling into three families whose payoff matrices are rational
in the input payoffs:

  * family I  : the new row/column averages the classical ones pairwise,
                so the extension collapses to classical mixing;
  * family II : the same averages with the pairs crossed over;
  * family III: every new cell is the average of all four classical cells.

Any other operator produces extensions that depend on how the classical
game is written down; `empirical_invariance` demonstrates this directly by
comparing the new payoffs of each relabeled presentation and searching for
isomorphisms where they agree.
Records are immutable named tuples.
"""

from __future__ import annotations

import math
import warnings
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .ewl import UnitaryParams, format_angle
from .games import (
    BimatrixGame,
    VariantKind,
    _integer_matrix,
    find_isomorphism,
    game_to_json_dict,
    is_generic,
    variant,
)

EXT_LABELS = ("I", "iX", "U")


class InvarianceKind(Enum):
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    TYPE_III = "TypeIII"
    NON_INVARIANT = "NonInvariant"


class ExtensionClass(NamedTuple):
    """Invariance family of an operator, with the grid witness when invariant.

    ``witness`` holds the integers (k, l) with alpha - beta = k*pi/2 and
    alpha + beta = l*pi/2.
    """

    kind: InvarianceKind
    witness: tuple[int, int] | None = None

    @property
    def invariant(self) -> bool:
        return self.kind is not InvarianceKind.NON_INVARIANT


class ExtendedGame(NamedTuple):
    """A 3x3 extension with the operator that built it.

    ``exact`` is True when every payoff was computed in rational arithmetic;
    float-built extensions carry their payoffs as exact binary rationals but
    should only be fed to the equilibrium solver deliberately.
    """

    game: BimatrixGame
    params: UnitaryParams
    exact: bool


def classify(params: UnitaryParams) -> ExtensionClass:
    """Invariance family of an operator.

    Only grid points with theta = pi/2 can be invariant; a float operator is
    never on the grid, since `UnitaryParams.from_parts` makes every
    operator near it exact.  There n and m, alpha and beta in units of pi/4
    modulo 8, read off the family, and the witness (k, l) is half their
    difference and sum.
    """
    point = params.grid_point
    if point is None or point[0] != 3:
        return ExtensionClass(InvarianceKind.NON_INVARIANT)
    _, qa, qb = point
    n, m = qa % 8, qb % 8
    if n in (0, 4) and m in (0, 4):
        kind = InvarianceKind.TYPE_I
    elif n in (2, 6) and m in (2, 6):
        kind = InvarianceKind.TYPE_II
    elif n % 2 == 1 and m % 2 == 1:
        kind = InvarianceKind.TYPE_III
    else:
        return ExtensionClass(InvarianceKind.NON_INVARIANT)
    return ExtensionClass(kind, ((qa - qb) // 2, (qa + qb) // 2))


# 2*cos(k*pi/6) at the k where it is an integer, and (cos, sin)(q*pi/2).
_TWICE_COS_SIXTHS = {0: 2, 2: 1, 3: 0, 4: -1, 6: -2, 8: -1, 9: 0, 10: 1}
_COS_SIN_QUARTERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def outcome_weights(params: UnitaryParams):
    """The operator's outcome-weight table and whether it is exact.

    The table holds sixteen times the weights (w00, w01, w10, w11) of the
    five new cells (I, U), (iX, U), (U, I), (U, iX), (U, U): the
    probabilities |<ij|Psi>|^2 of the EWL protocol in double-angle form.
    On the exact grid (`UnitaryParams.grid_point`) 2*cos(theta) lies in
    {0, +-1, +-2} and cos(2a), sin(2a), cos(2b), sin(2b) and sin(2(a - b))
    in {0, +-1}, all ints read off the grid point, so the one polynomial
    gives ints; otherwise it gives floats.  The extension of every 2x2 game
    by the operator is a function of the table and `exact` alone.
    """
    point = params.grid_point
    if point is not None:
        sixths, qa, qb = point  # 2a and 2b in units of pi/2
        two_cos_t = _TWICE_COS_SIXTHS[sixths % 12]
        c2a, s2a = _COS_SIN_QUARTERS[qa % 4]
        c2b, s2b = _COS_SIN_QUARTERS[qb % 4]
        s2ab = _COS_SIN_QUARTERS[(qa - qb) % 4][1]
    else:
        t, a, b = params.theta, params.alpha, params.beta
        two_cos_t = 2 * math.cos(t)
        c2a, s2a = math.cos(2 * a), math.sin(2 * a)
        c2b, s2b = math.cos(2 * b), math.sin(2 * b)
        s2ab = math.sin(2 * (a - b))
    h, hb = 2 + two_cos_t, 2 - two_cos_t  # 4 cos^2(theta/2), 4 sin^2(theta/2)
    # 16 cos^2(alpha) cos^2(theta/2), 16 sin^2(alpha) cos^2(theta/2), and the
    # same with beta and sin^2(theta/2).
    ca, sa = 2 * (1 + c2a) * h, 2 * (1 - c2a) * h
    cb, sb = 2 * (1 + c2b) * hb, 2 * (1 - c2b) * hb
    mid = (1 + s2ab) * h * hb  # = 4 (cos + sin)^2(a - b) * sin^2(theta)
    return (
        (ca, cb, sb, sa),
        (sb, sa, ca, cb),
        (ca, sb, cb, sa),
        (sb, ca, sa, cb),
        ((c2a * h + s2b * hb) ** 2, mid, mid, (s2a * h - c2b * hb) ** 2),
    ), point is not None


def _classical_payoffs(game: BimatrixGame, exact: bool):
    """Each player's four classical payoffs, row-major, in the form the new cells weight them.

    One (values, denominator) pair per player.  On the exact route the
    values are the payoffs scaled to integers, and the denominator is that
    of the new payoffs, ``16 * scale``; on the float route they are floats,
    and the denominator is None.  A game that is not 2x2, or a payoff
    beyond the float range on the float route, raises ValueError.
    """
    if game.shape != (2, 2):
        raise ValueError(f"extensions need a 2x2 game, got {game.shape}")
    cells = [game.payoff(0, 0), game.payoff(0, 1), game.payoff(1, 0), game.payoff(1, 1)]
    players = []
    for player in (0, 1):
        if exact:
            xs, scale = _integer_matrix([c[player] for c in cells])
            players.append((xs, 16 * scale))
            continue
        try:
            players.append(([float(c[player]) for c in cells], None))
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"payoffs too large for float evaluation: {exc}") from exc
    return players


def _new_payoffs(xs, den, weights) -> list:
    """One player's payoffs in the five new cells, before they become Fractions.

    Integer sums over ``den`` on the exact route; on the float route, floats
    with the 16 divided out, and a sum that is not finite raises ValueError.
    """
    if den is not None:
        return [sum(map(mul, w, xs)) for w in weights]
    column = [sum(map(mul, w, xs)) / 16 for w in weights]
    if not all(map(math.isfinite, column)):
        try:
            for value in column:
                value.as_integer_ratio()  # raises what Fraction(value) would
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"payoffs too large for float evaluation: {exc}") from exc
    return column


def _place(classical, new) -> tuple[tuple, tuple, tuple]:
    """An extension's three rows of cells, from its four classical and five new cells.

    ``classical`` holds the classical cells row-major, and ``new`` the new
    ones in the order of the weight table (see `outcome_weights`).
    """
    c00, c01, c10, c11 = classical
    iu, ixu, ui, uix, uu = new
    return (c00, c01, iu), (c10, c11, ixu), (ui, uix, uu)


def _integer_cells(players, weights) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """Each player's extension payoffs, as rows of integers over one denominator.

    ``players`` is `_classical_payoffs(game, True)` and ``weights`` an exact
    table: the classical payoffs times 16 and the new integer sums share the
    denominator ``16 * scale``.
    """
    return [(_place([16 * x for x in xs], _new_payoffs(xs, den, weights)), den)
            for xs, den in players]


def build_extension(game: BimatrixGame, params: UnitaryParams) -> ExtendedGame:
    """The 3x3 extension of a 2x2 game by the strategy U(theta, alpha, beta).

    The classical block is always embedded exactly.  The five new cells are
    weighted sums of the four classical cells.  When the angles allow it,
    each player's payoffs are scaled to integers and every cell is one
    integer sum over 16 times their common denominator; otherwise the cells
    are computed in floats and the result is marked ``exact=False``.  A
    float-route cell that overflows raises ValueError.
    """
    weights, exact = outcome_weights(params)
    columns = []  # each player's five new payoffs
    for xs, den in _classical_payoffs(game, exact):
        values = _new_payoffs(xs, den, weights)
        columns.append([Fraction(v, den) for v in values] if exact else [Fraction(v) for v in values])
    grid = _place(game.payoffs[0] + game.payoffs[1], zip(*columns))
    return ExtendedGame(
        game=BimatrixGame(EXT_LABELS, EXT_LABELS, grid),
        params=params,
        exact=exact,
    )


# The classical cells of each relabeled variant, row-major, as indices into
# the game's own row-major cells: `variant` writes them in this order.
_VARIANT_CELLS = {
    VariantKind.ROW_SWAP: (2, 3, 0, 1),
    VariantKind.COL_SWAP: (1, 0, 3, 2),
    VariantKind.ROW_COL_SWAP: (3, 2, 1, 0),
}


def empirical_invariance(game: BimatrixGame, params: UnitaryParams) -> bool:
    """Check invariance directly: compare each relabeling's extension with the game's.

    Returns True iff, for each of the game's three relabeled variants, the
    extension of the variant is strongly isomorphic to the extension of the
    game.  The classical block holds the same four payoffs in every
    presentation, so two extensions have equal payoff multisets for each
    player exactly when their five new payoffs do, and no isomorphism exists
    where they differ.  So each variant's new payoffs are compared, sorted,
    with the game's before anything is built, and only for a variant that
    passes are both extensions built and the bijections searched.  It
    compares exactly on both routes: every invariant operator is exact, so a
    float operator needs no tolerance.  On non-generic games the verdict can
    be an accident of payoff ties, so a warning is emitted, once the game's
    new payoffs (which check the shape) are computed.
    """
    weights, exact = outcome_weights(params)
    players = _classical_payoffs(game, exact)
    ours = [sorted(_new_payoffs(xs, den, weights)) for xs, den in players]
    if not is_generic(game):
        warnings.warn(
            "empirical invariance checked on a non-generic game; "
            "payoff ties can make the verdict accidental",
            stacklevel=2,
        )
    base = None
    for kind in VariantKind:
        order = _VARIANT_CELLS[kind]
        theirs = [sorted(_new_payoffs([xs[o] for o in order], den, weights)) for xs, den in players]
        if theirs != ours:
            return False
        if base is None:
            base = build_extension(game, params).game
        if find_isomorphism(base, build_extension(variant(game, kind), params).game) is None:
            return False
    return True


def extended_to_json_dict(ext: ExtendedGame) -> dict:
    """Extended game as a JSON-ready dict: the game plus params/class/exact."""
    data = game_to_json_dict(ext.game)
    p = ext.params
    multiples = p.pi_multiples or (None, None, None)
    data["params"] = {name: radians if multiple is None else format_angle(multiple)
                      for name, radians, multiple
                      in zip(("theta", "alpha", "beta"), (p.theta, p.alpha, p.beta), multiples)}
    data["class"] = classify(ext.params).kind.value
    data["exact"] = ext.exact
    return data
