"""Exact-rational bimatrix games: construction, relabeling variants, and
strong-isomorphism search.

Payoffs are `fractions.Fraction` end to end, and nothing here computes in
floats: an isomorphism search reads a float tolerance as its exact binary
value and compares integers.  Records are immutable named tuples.
"""

from __future__ import annotations

import math
import re
import sys
from enum import Enum
from fractions import Fraction
from itertools import permutations
from typing import Iterable, NamedTuple, Optional, Sequence

Payoff = tuple[Fraction, Fraction]

# Float-built payoffs are snapped to fractions with denominators up to
# SNAP_DENOMINATOR before they are solved exactly.
SNAP_DENOMINATOR = 10**9

# The decimal exponent at the end of a payoff string such as "2.5e-3".
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def rational(value: int | float | str | Fraction) -> Fraction:
    """Coerce a payoff entry to an exact Fraction.

    Strings may be integers ("3"), fractions ("-2/7") or decimals ("2.25",
    "1e-3"), all read exactly.  Floats keep their exact binary value; a
    non-finite float or a bool raises ValueError.  So does a string whose
    numerator or denominator would have more digits than
    `sys.get_int_max_str_digits()` allows (0 means no limit); a decimal
    exponent that could not fit is refused before `Fraction` expands it.
    Without an exponent, a string no longer than the limit always fits.
    """
    if isinstance(value, bool):
        raise ValueError(f"payoff {value!r} is not a number")
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        limit = sys.get_int_max_str_digits()
        if not limit or not exponent and len(value) <= limit:
            return Fraction(value.strip())
        too_long = ValueError(f"payoff {value[:40]!r} has more than {limit} digits")
        if exponent and abs(int(exponent[1])) > limit + len(value):
            raise too_long
        result = Fraction(value.strip())
        if max(abs(result.numerator), result.denominator) >= 10**limit:
            raise too_long
        return result
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"payoff {value!r} is not a finite number")
    return Fraction(value)


class VariantKind(Enum):
    """The three relabelings of a 2x2 game used as isomorphic presentations."""

    ROW_SWAP = "rows"
    COL_SWAP = "columns"
    ROW_COL_SWAP = "rows+columns"


class _GameFields(NamedTuple):
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    payoffs: tuple[tuple[Payoff, ...], ...]


class BimatrixGame(_GameFields):
    """A two-player strategic-form game as a row-major grid of payoff pairs.

    Rows belong to player 1, columns to player 2; ``payoffs[i][j]`` is the
    pair (player 1's payoff, player 2's payoff) at that position.
    """

    __slots__ = ()

    def __new__(cls, row_labels, col_labels, payoffs):
        if not row_labels or not col_labels:
            raise ValueError("games need at least one strategy per player")
        if len(set(row_labels)) != len(row_labels):
            raise ValueError(f"duplicate row label in {row_labels!r}")
        if len(set(col_labels)) != len(col_labels):
            raise ValueError(f"duplicate column label in {col_labels!r}")
        if len(payoffs) != len(row_labels):
            raise ValueError("payoff grid does not match the number of row labels")
        for row in payoffs:
            if len(row) != len(col_labels):
                raise ValueError("payoff grid does not match the number of column labels")
        return super().__new__(cls, row_labels, col_labels, payoffs)

    @property
    def n_rows(self) -> int:
        return len(self.row_labels)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def payoff(self, row: int, col: int) -> Payoff:
        return self.payoffs[row][col]

    def player_values(self, player: int) -> list[Fraction]:
        """All payoffs of one player (0 = row player, 1 = column player)."""
        return [cell[player] for row in self.payoffs for cell in row]


def make_game(
    rows: Sequence[str],
    cols: Sequence[str],
    payoffs: Sequence[Sequence[Iterable]],
) -> BimatrixGame:
    """Build a validated game; payoff entries are coerced with `rational`."""
    grid = []
    for row in payoffs:
        cells = []
        for cell in row:
            pair = tuple(rational(v) for v in cell)
            if len(pair) != 2:
                raise ValueError(f"payoff cell {cell!r} is not a pair")
            cells.append(pair)
        grid.append(tuple(cells))
    return BimatrixGame(tuple(str(r) for r in rows), tuple(str(c) for c in cols), tuple(grid))


def variant(game: BimatrixGame, kind: VariantKind) -> BimatrixGame:
    """An isomorphic presentation of a 2x2 game with rows/columns reordered.

    Labels travel with their strategies, so the variant is the same game
    written down differently, not a new game.
    """
    if game.shape != (2, 2):
        raise ValueError(f"variants are defined for 2x2 games, got {game.shape}")
    rows, cols = game.row_labels, game.col_labels
    grid = game.payoffs
    if kind in (VariantKind.ROW_SWAP, VariantKind.ROW_COL_SWAP):
        rows = rows[::-1]
        grid = grid[::-1]
    if kind in (VariantKind.COL_SWAP, VariantKind.ROW_COL_SWAP):
        cols = cols[::-1]
        grid = tuple(row[::-1] for row in grid)
    return BimatrixGame(rows, cols, grid)


class StrategyBijection(NamedTuple):
    """A pair of strategy bijections witnessing a strong isomorphism.

    ``row_perm[i]`` is the row of the target game that row ``i`` of the
    source game maps to (likewise for columns); the label maps spell the
    same bijections out by strategy name.
    """

    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]
    row_map: tuple[tuple[str, str], ...]
    col_map: tuple[tuple[str, str], ...]


def _integer_matrix(values: list[Fraction]) -> tuple[list[int], int]:
    """The values times the lcm of their denominators, and that lcm.

    ``values`` is flat: a matrix comes in row-major order and goes out so.
    """
    ratios = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*[d for _, d in ratios])
    return [n * (scale // d) for n, d in ratios], scale


def _integer_payoffs(game: BimatrixGame) -> list[tuple[list[list[int]], int]]:
    """Each player's payoffs as rows of integers over one scale: the input of `nash._solve`.

    Row i holds the player's payoffs where player 1 plays i, times the lcm
    of that player's denominators.
    """
    m = game.n_cols
    scaled = [_integer_matrix([c[p] for row in game.payoffs for c in row]) for p in (0, 1)]
    return [([ints[i:i + m] for i in range(0, len(ints), m)], scale) for ints, scale in scaled]


def find_isomorphism(
    a: BimatrixGame, b: BimatrixGame, tol: float = 0.0
) -> Optional[StrategyBijection]:
    """Search for a strong isomorphism from ``a`` to ``b``.

    Returns the first of the n!*m! bijection pairs, in lexicographic order,
    under which every cell of ``a`` carries the same payoffs as its image in
    ``b`` (for both players), or None if no pair works.  Payoffs match when
    ``|x - y| <= tol``, with ``tol`` read as its exact binary value, which is
    what float-built games need; the default 0 asks for equality.  A ``tol``
    that is negative or not finite raises ValueError.

    The search compares integers.  Each player's payoffs in both games are
    scaled by the lcm of their denominators, so ``tol`` becomes the integer
    bound ``floor(tol * scale)`` on the difference of two images.  Before the
    loop, the search gives up if some player's sorted images differ by more
    than the bound at some rank: a bijection that keeps every pair within
    the bound keeps the sorted pairing within it too.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol}")
    if a.shape != b.shape:
        return None
    n, m = a.shape
    tol_num, tol_den = tol.as_integer_ratio()
    players = []  # (a's images, b's images, bound) for each player
    for p in (0, 1):
        ints, scale = _integer_matrix([c[p] for row in a.payoffs + b.payoffs for c in row])
        bound = tol_num * scale // tol_den
        if any(abs(x - y) > bound for x, y in zip(sorted(ints[:n * m]), sorted(ints[n * m:]))):
            return None
        xs, ys = [[ints[i:i + m] for i in range(start, start + n * m, m)] for start in (0, n * m)]
        players.append((xs, ys, bound))
    (xs1, ys1, d1), (xs2, ys2, d2) = players
    for row_perm in permutations(range(n)):
        # Each row of a beside the row of b it maps to, for both players.
        rows = [(xs1[i], ys1[r], xs2[i], ys2[r]) for i, r in enumerate(row_perm)]
        for col_perm in permutations(range(m)):
            if all(
                abs(x1[j] - y1[c]) <= d1 and abs(x2[j] - y2[c]) <= d2
                for x1, y1, x2, y2 in rows
                for j, c in enumerate(col_perm)
            ):
                return StrategyBijection(
                    row_perm=row_perm,
                    col_perm=col_perm,
                    row_map=tuple(
                        (a.row_labels[i], b.row_labels[row_perm[i]]) for i in range(n)
                    ),
                    col_map=tuple(
                        (a.col_labels[j], b.col_labels[col_perm[j]]) for j in range(m)
                    ),
                )
    return None


def is_generic(game: BimatrixGame) -> bool:
    """True iff each player's payoffs are pairwise distinct across all cells.

    Equal payoffs have equal integer ratios in lowest terms, and a pair of
    ints hashes faster than a `Fraction`.
    """
    size = game.n_rows * game.n_cols
    return all(
        len({c[p].as_integer_ratio() for row in game.payoffs for c in row}) == size
        for p in (0, 1)
    )


def random_generic_game(rng, rows: int = 2, cols: int = 2) -> BimatrixGame:
    """A random rational game whose per-player payoffs are pairwise distinct.

    ``rng`` is a `random.Random`; distinct numerators in -40..40 over one
    denominator in 1..12 per player make the game generic by construction.
    """
    size = rows * cols
    values = []
    for _ in (0, 1):
        nums = rng.sample(range(-40, 41), size)
        den = rng.randint(1, 12)
        values.append([Fraction(n, den) for n in nums])
    grid = tuple(
        tuple((values[0][i * cols + j], values[1][i * cols + j]) for j in range(cols))
        for i in range(rows)
    )
    return BimatrixGame(
        tuple(f"r{i}" for i in range(rows)),
        tuple(f"c{j}" for j in range(cols)),
        grid,
    )


def _snap(value: Fraction) -> Fraction:
    """``value.limit_denominator(SNAP_DENOMINATOR)``, computed in integers.

    The convergents p1/q1 of value's continued fraction run until the next
    denominator would pass the limit; the best approximation is then p1/q1
    or the semiconvergent (p0 + k p1)/(q0 + k q1) with the largest k that
    keeps its denominator within the limit.  Those two are 1/(q1 (q0 + k q1))
    apart, and p1/q1 is d/(q1 den) from the value, d being the remainder
    where the loop stopped, so comparing 2 d (q0 + k q1) with den picks the
    nearer, p1/q1 on a tie, as `Fraction.limit_denominator` does.
    """
    n, den = value.as_integer_ratio()
    if den <= SNAP_DENOMINATOR:
        return value
    p0, q0, p1, q1 = 0, 1, 1, 0
    d = den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > SNAP_DENOMINATOR:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (SNAP_DENOMINATOR - q0) // q1
    if 2 * d * (q0 + k * q1) <= den:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


def snapped(game: BimatrixGame) -> BimatrixGame:
    """Payoffs re-approximated with denominators up to SNAP_DENOMINATOR.

    Each cell becomes ``limit_denominator(SNAP_DENOMINATOR)``'s fraction,
    computed in integers by `_snap`.  Used before solving float-built games
    so that coincidences holding to within the float tolerance become exact
    ties.
    """
    grid = tuple(tuple((_snap(a), _snap(b)) for a, b in row) for row in game.payoffs)
    return BimatrixGame(game.row_labels, game.col_labels, grid)


def game_to_json_dict(game: BimatrixGame) -> dict:
    """Game as a JSON-ready dict; payoffs become exact "p/q" strings."""
    return {
        "rows": list(game.row_labels),
        "cols": list(game.col_labels),
        "payoffs": [[[str(c[0]), str(c[1])] for c in row] for row in game.payoffs],
    }


def game_from_json_dict(data: dict) -> BimatrixGame:
    """Parse the dict form produced by `game_to_json_dict`.

    ``rows``, ``cols``, ``payoffs``, each payoff row and each cell must be
    lists, as JSON arrays load, so that a string or an object is never read
    by its characters or its keys.  Each strategy label must be a string.
    """
    try:
        rows = data["rows"]
        cols = data["cols"]
        payoffs = data["payoffs"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"game JSON is missing field: {exc}") from exc
    if not all(isinstance(v, list) for v in (rows, cols, payoffs)):
        raise ValueError("rows, cols and payoffs must be arrays")
    if not all(isinstance(label, str) for label in rows + cols):
        raise ValueError("strategy labels must be strings")
    if not all(isinstance(row, list) and all(isinstance(c, list) for c in row) for row in payoffs):
        raise ValueError("each payoff row must be an array of [player 1, player 2] arrays")
    return make_game(rows, cols, payoffs)
