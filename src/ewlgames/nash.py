"""Pure and mixed Nash equilibria of bimatrix games.

Equilibria come from vertex enumeration of the two best-response polytopes
(von Stengel, Handbook of Game Theory 3, 2002; Avis, Rosenberg, Savani and
von Stengel, Economic Theory 42, 2010).  With payoffs shifted to be
positive, player 1's polytope is {x >= 0 : B^T x <= 1} and player 2's is
{y >= 0 : A y <= 1}.  A vertex pair whose labels cover every pure strategy
(each strategy unplayed or a best response) is an extreme equilibrium, and
its normalization is in the report.  Strictly dominated strategies are
removed first, which leaves every equilibrium in place, and every vertex of
the rest is enumerated.  So the search is complete for every shape,
degenerate games included, and a report with a single equilibrium is a
uniqueness proof by exhaustion.

The enumeration runs in integers.  Each player's payoffs are multiplied by
the lcm of their denominators and shifted, which leaves every equilibrium
unchanged.  Every vertex is the solution of one square system, solved by
fraction-free Gauss-Jordan elimination as integer numerators over one
positive denominator, and the feasibility and label checks compare
integers.  `Fraction` appears only in the report.

In a degenerate game two extreme equilibria share one player's mixture, so
the segment between them is in equilibrium too; the report then lists the
extreme equilibria and sets ``degenerate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul

from .games import BimatrixGame, Payoff, _integer_matrix

_ZERO = Fraction(0)


@dataclass(frozen=True)
class MixedProfile:
    """A pair of probability vectors, one per player."""

    p1: tuple[Fraction, ...]
    p2: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        for vec in (self.p1, self.p2):
            if any(p < 0 for p in vec):
                raise ValueError(f"negative probability in {vec}")
            if sum(vec) != 1:
                raise ValueError(f"probabilities {vec} do not sum to 1")


@dataclass(frozen=True)
class EquilibriumReport:
    """All equilibria found, split into pure positions and mixed profiles.

    The lists hold every extreme equilibrium; a pure one appears only in
    ``pure``.  ``degenerate`` means two listed equilibria share one player's
    mixture, so the segment between them is in equilibrium too.
    """

    pure: tuple[tuple[int, int, Payoff], ...]
    mixed: tuple[tuple[MixedProfile, Payoff], ...]
    degenerate: bool


def _eliminate(rows: list[list[int]]) -> tuple[list[int], int] | None:
    """Fraction-free Gauss-Jordan elimination of a square integer system.

    ``rows`` are the augmented rows ``[a_0, ..., a_{n-1}, b]`` of ``a . x = b``
    over ``n = len(rows)`` unknowns; the caller's lists are not modified.
    Each pivot row is combined into every other row by cross-multiplication,
    ``row * pivot - row[col] * pivot_row``, and the new row is divided by
    the gcd of its entries, so every entry stays an integer and every row
    stays primitive.  Bareiss (Math. Comp. 22 (1968) 565) divides by the
    previous pivot instead, to the same end.

    Returns None if the matrix is singular.  Otherwise returns
    ``(numerators, denominator)``: the unique solution in lowest terms, over
    a positive denominator.
    """
    rows = list(rows)
    n = len(rows)
    for col in range(n):
        for r in range(col, n):
            if rows[r][col]:
                break
        else:
            return None
        prow = rows[r]
        rows[r] = rows[col]
        rows[col] = prow
        p = prow[col]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != col:
                new = [v * p - f * w for v, w in zip(row, prow)]
                g = gcd(*new)
                rows[r] = [v // g for v in new] if g > 1 else new
    # Row r now reads rows[r][r] * x_r = rows[r][n]; bring every pivot to one
    # positive denominator.
    den = lcm(*(row[r] for r, row in enumerate(rows)))
    nums = [row[n] * (den // row[r]) for r, row in enumerate(rows)]
    g = gcd(den, *nums)
    return ([v // g for v in nums], den // g) if g > 1 else (nums, den)


def pure_equilibria(game: BimatrixGame) -> list[tuple[int, int, Payoff]]:
    """All positions (i, j) where both payoffs are weakly best responses."""
    found = []
    for i in range(game.n_rows):
        for j in range(game.n_cols):
            a_ij, b_ij = game.payoff(i, j)
            if all(a_ij >= game.payoff(k, j)[0] for k in range(game.n_rows)) and all(
                b_ij >= game.payoff(i, l)[1] for l in range(game.n_cols)
            ):
                found.append((i, j, game.payoff(i, j)))
    return found


def _pure_values(
    game: BimatrixGame, profile: MixedProfile
) -> tuple[list[Fraction], list[Fraction]]:
    """Each player's expected payoff for each pure strategy against the other's mixture.

    Returns ``(rows, cols)``: ``rows[i]`` is player 1's payoff for row i
    against ``p2``, and ``cols[j]`` player 2's for column j against ``p1``.
    """
    if len(profile.p1) != game.n_rows or len(profile.p2) != game.n_cols:
        raise ValueError(
            f"profile shape ({len(profile.p1)}, {len(profile.p2)}) "
            f"does not match game shape {game.shape}"
        )
    rows = [_ZERO] * game.n_rows
    cols = [_ZERO] * game.n_cols
    for i, (pi, cells) in enumerate(zip(profile.p1, game.payoffs)):
        for j, (qj, (a, b)) in enumerate(zip(profile.p2, cells)):
            if qj:
                rows[i] += qj * a
            if pi:
                cols[j] += pi * b
    return rows, cols


def _expected(p: tuple[Fraction, ...], values: list[Fraction]) -> Fraction:
    """A player's expected payoff: its mixture dotted with its pure-strategy values."""
    return sum((pi * v for pi, v in zip(p, values) if pi), _ZERO)


def mixed_payoff(game: BimatrixGame, profile: MixedProfile) -> Payoff:
    """Exact expected payoff pair under a mixed profile."""
    rows, cols = _pure_values(game, profile)
    return (_expected(profile.p1, rows), _expected(profile.p2, cols))


def verify_equilibrium(game: BimatrixGame, profile: MixedProfile) -> bool:
    """True iff neither player has a pure deviation that strictly gains."""
    rows, cols = _pure_values(game, profile)
    return max(rows) <= _expected(profile.p1, rows) and max(cols) <= _expected(profile.p2, cols)


# A vertex in integer form: numerators over one positive denominator, in
# lowest terms, so equal vertices have equal keys.
_Vertex = tuple[tuple[int, ...], int]


def _positive_matrix(values: list[list[Fraction]]) -> tuple[list[list[int]], int, int]:
    """The matrix scaled to integers and shifted so that every entry is at least one.

    Returns the matrix, the scale and the shift.
    """
    ints, scale = _integer_matrix(values)
    shift = 1 - min(min(row) for row in ints)
    return [[v + shift for v in row] for row in ints], scale, shift


def _undominated(
    a_by_row: list[list[int]], b_by_col: list[list[int]]
) -> tuple[list[int], list[int]]:
    """The rows and columns that survive iterated elimination of strictly dominated strategies.

    A strategy goes when another pure strategy of the same player pays
    strictly more against every surviving strategy of the opponent.  This
    leaves the set of Nash equilibria unchanged (Fudenberg and Tirole, Game
    Theory, 1991, section 2.1); weak dominance does not.  Strict dominance is
    transitive, so every dominated strategy of a player goes at once.
    """
    rows, cols = list(range(len(a_by_row))), list(range(len(b_by_col)))
    while True:
        kept_rows = [i for i in rows if not _dominated(a_by_row, i, rows, cols)]
        kept_cols = [j for j in cols if not _dominated(b_by_col, j, cols, kept_rows)]
        if len(kept_rows) == len(rows) and len(kept_cols) == len(cols):
            return rows, cols
        rows, cols = kept_rows, kept_cols


def _dominated(payoffs: list[list[int]], own: int, mine: list[int], theirs: list[int]) -> bool:
    """Whether ``payoffs[own]`` is strictly below another of ``mine`` at every one of ``theirs``."""
    row = payoffs[own]
    return any(all(payoffs[k][t] > row[t] for t in theirs) for k in mine)


def _vertices(
    constraints: list[list[int]], size: int, own: list[int], opponent: list[int]
) -> dict[_Vertex, tuple[int, int]]:
    """The nonzero vertices of ``{x >= 0 : c . x <= 1 for c in constraints}``, with labels.

    ``constraints[k][i]`` is the opponent's positive payoff for its pure
    strategy k when this player plays i.  Only the strategies ``own`` of
    this player and ``opponent`` of the opponent take part: x is zero off
    ``own``, and the other constraints are dropped.  Every vertex is the
    unique solution of ``c . x = 1`` over some set K of constraints with x
    zero off some support S of the same size, so every such pair (S, K) is
    tried.  The labels are read off the vertex itself, not off (S, K): the
    first mask has bit i set where x_i = 0, the second bit k where
    constraint k is tight, that is where strategy k is the opponent's best
    response.  A dropped constraint is never tight.
    """
    vertices: dict[_Vertex, tuple[int, int]] = {}
    kept = [constraints[k] for k in opponent]
    for k in range(1, min(len(own), len(kept)) + 1):
        for support in combinations(own, k):
            for tight in combinations(kept, k):
                solved = _eliminate([[c[i] for i in support] + [1] for c in tight])
                if solved is None or min(solved[0]) < 0:
                    continue
                nums, den = solved
                x = [0] * size
                for i, v in zip(support, nums):
                    x[i] = v
                slack = [den - sum(map(mul, c, x)) for c in kept]
                if min(slack) < 0:
                    continue
                best = sum(1 << j for j, s in zip(opponent, slack) if s == 0)
                unplayed = sum(1 << i for i, v in enumerate(x) if v == 0)
                vertices[tuple(x), den] = (unplayed, best)
    return vertices


def support_enumeration(game: BimatrixGame) -> EquilibriumReport:
    """All Nash equilibria of the game, as the extreme equilibria and a degeneracy flag.

    Enumerates the vertices of the two best-response polytopes and pairs
    those whose labels cover every pure strategy (von Stengel, Handbook of
    Game Theory 3, 2002).  Complete for every shape.  Strictly dominated
    strategies are removed first; the number of systems grows with the
    number of support pairs among the rest, at most 19 per player on 3x3.
    Each player's payoffs are scaled to integers and every system is solved
    by fraction-free elimination; `Fraction` appears only in the report.
    """
    n, m = game.shape
    # A positive scaling or a shift of one player's payoffs leaves every best
    # response, and so every equilibrium, unchanged.
    a_by_row, scale1, shift1 = _positive_matrix(
        [[game.payoff(i, j)[0] for j in range(m)] for i in range(n)]
    )
    b_by_col, scale2, shift2 = _positive_matrix(
        [[game.payoff(i, j)[1] for i in range(n)] for j in range(m)]
    )
    # Removing strictly dominated strategies leaves every equilibrium, and
    # each one's vertex pair, unchanged: a removed strategy is unplayed, and
    # it is never a best response, so its constraint is never tight.
    rows, cols = _undominated(a_by_row, b_by_col)
    # Player 1's polytope is {x >= 0 : B^T x <= 1}, player 2's {y >= 0 : A y <= 1}.
    xs = _vertices(b_by_col, n, rows, cols)
    ys = _vertices(a_by_row, m, cols, rows)

    # A vertex pair is an equilibrium when every pure strategy is unplayed or
    # a best response to the other vertex.
    all1, all2 = (1 << n) - 1, (1 << m) - 1
    equilibria = [
        (x, y)
        for x, (unplayed1, best2) in xs.items()
        for y, (unplayed2, best1) in ys.items()
        if unplayed1 | best1 == all1 and unplayed2 | best2 == all2
    ]
    # Two extreme equilibria that share one player's mixture span a segment
    # of equilibria.
    count = len(equilibria)
    degenerate = len({x for x, _ in equilibria}) < count or len({y for _, y in equilibria}) < count

    pure: list[tuple[int, int, Payoff]] = []
    mixed: list[tuple[MixedProfile, Payoff]] = []
    for (n1, d1), (n2, d2) in equilibria:
        s1, s2 = sum(n1), sum(n2)
        # The numerators are nonnegative, so a vertex is pure when one of them
        # is their whole sum.
        if s1 in n1 and s2 in n2:
            i, j = n1.index(s1), n2.index(s2)
            pure.append((i, j, game.payoff(i, j)))
        else:
            p1, p2 = tuple(Fraction(v, s1) for v in n1), tuple(Fraction(v, s2) for v in n2)
            # Every best response to y = n2 / d2 scores 1 in shifted units, so
            # against the mixture n2 / s2 it scores d2 / s2; likewise for x.
            u1 = Fraction(d2 - shift1 * s2, s2 * scale1)
            mixed.append((MixedProfile(p1, p2), (u1, Fraction(d1 - shift2 * s1, s1 * scale2))))
    pure.sort(key=lambda e: (e[0], e[1]))
    mixed.sort(key=lambda e: (e[0].p1, e[0].p2))
    return EquilibriumReport(tuple(pure), tuple(mixed), degenerate)


def report_to_json_dict(report: EquilibriumReport, game: BimatrixGame) -> dict:
    """Equilibrium report as a JSON-ready dict with exact fraction strings."""
    return {
        "pure": [
            {
                "row": game.row_labels[i],
                "col": game.col_labels[j],
                "payoff": [str(pay[0]), str(pay[1])],
            }
            for i, j, pay in report.pure
        ],
        "mixed": [
            {
                "p1": [str(p) for p in prof.p1],
                "p2": [str(p) for p in prof.p2],
                "payoff": [str(pay[0]), str(pay[1])],
            }
            for prof, pay in report.mixed
        ],
        "degenerate": report.degenerate,
    }
