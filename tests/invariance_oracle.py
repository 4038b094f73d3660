"""Game-free invariance oracle: the 3x3 array of outcome-weight vectors.

The extension of every 2x2 game by an operator is a function of the
operator's outcome-weight table alone.  Lay the table out as a 3x3 array of
weight vectors over the four classical outcomes (i, j), indexed 2*i + j: the
classical cell (i, j) is 16 times the unit vector on its own outcome, and the
five new cells are the rows of `outcome_weights`.  Relabeling the classical
game permutes the outcomes inside every vector.  The operator is invariant
iff, for each of the three relabelings, some row and column permutation maps
the relabeled array onto the original: then the extension of any game is
strongly isomorphic to the extension of each of its relabelings.

The check uses no game, no genericity and no family rule, so it is the
oracle for `classify`.

`slow_empirical_invariance` builds every extension and searches the
bijections for each relabeling, with no comparison of new payoffs first, so
it is the oracle for `empirical_invariance`.
"""

from __future__ import annotations

import warnings
from itertools import permutations

from ewlgames import (
    BimatrixGame,
    UnitaryParams,
    VariantKind,
    build_extension,
    find_isomorphism,
    is_generic,
    variant,
)
from ewlgames.extension import outcome_weights

# The row swap, the column swap and both, as permutations of the outcomes (i, j).
RELABELINGS = ((2, 3, 0, 1), (1, 0, 3, 2), (3, 2, 1, 0))

_PERMS = list(permutations(range(3)))
_UNITS = [tuple(16 if k == o else 0 for k in range(4)) for o in range(4)]


def weight_array(params: UnitaryParams):
    """The 3x3 array of outcome-weight vectors, rows and columns (I, iX, U)."""
    (iu, ixu, ui, uix, uu), _ = outcome_weights(params)
    return (
        (_UNITS[0], _UNITS[1], iu),
        (_UNITS[2], _UNITS[3], ixu),
        (ui, uix, uu),
    )


def _maps_onto(moved, array, tol) -> bool:
    """Whether some row and column permutation carries ``moved`` onto ``array``."""
    return any(
        all(
            abs(x - y) <= tol
            for r in range(3)
            for c in range(3)
            for x, y in zip(moved[rows[r]][cols[c]], array[r][c])
        )
        for rows in _PERMS
        for cols in _PERMS
    )


def oracle_invariant(params: UnitaryParams, tol: float = 1e-9) -> bool:
    """Invariance read off the weight array: ints compare exactly, floats within ``tol``."""
    array = weight_array(params)
    for sigma in RELABELINGS:
        # An involution, so the relabeled cell's weight on outcome o is its old weight on sigma[o].
        moved = [[tuple(vec[s] for s in sigma) for vec in row] for row in array]
        if not _maps_onto(moved, array, tol):
            return False
    return True


def slow_empirical_invariance(game: BimatrixGame, params: UnitaryParams) -> bool:
    """Extend the game and its three relabelings; True iff each is isomorphic to the first.

    Warns on a non-generic game, once the base extension (which checks the
    shape) is built, exactly as `empirical_invariance` does.
    """
    base = build_extension(game, params).game
    if not is_generic(game):
        warnings.warn(
            "empirical invariance checked on a non-generic game; "
            "payoff ties can make the verdict accidental",
            stacklevel=2,
        )
    for kind in VariantKind:
        if find_isomorphism(base, build_extension(variant(game, kind), params).game) is None:
            return False
    return True
