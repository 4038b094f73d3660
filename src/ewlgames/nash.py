"""Pure and mixed Nash equilibria of bimatrix games.

Equilibria come from vertex enumeration of the two best-response polytopes
(von Stengel, Handbook of Game Theory 3, 2002; Avis, Rosenberg, Savani and
von Stengel, Economic Theory 42, 2010).  With payoffs shifted to be
positive, player 1's polytope is {x >= 0 : B^T x <= 1} and player 2's is
{y >= 0 : A y <= 1}.  A vertex pair whose labels cover every pure strategy
(each strategy unplayed or a best response) is an extreme equilibrium, and
its normalization is in the report.  Every vertex of both polytopes, over
every pure strategy, is enumerated, so the search is complete for every
shape, degenerate games included, and a report with a single equilibrium
is a uniqueness proof by exhaustion.

The enumeration runs in integers.  `_solve` takes each player's payoff
rows as integers over one scale, from `games._integer_payoffs` or the
sweep's exact cells, lays player 2's out by column, and shifts both to be
at least one, which leaves every equilibrium unchanged.  A vertex that plays
one strategy i is e_i over the opponent's largest payoff against i.  Every
larger vertex solves one square system by Cramer's rule over the minors of
``[C | 1]`` (rows: the opponent's strategies; columns: the player's own,
then ones).  They are built level by level, one flat list per size, each
level from the one below by Laplace expansion along the last row, and read
by address.  A vertex's slacks are read off the next level as bordered
minors.  In a symmetric game (B = A^T) the two polytopes are one, and it
is enumerated once.  `_solve` returns one record in integers, with every
equilibrium's payoffs as integer pairs, which the report and every sweep
row read, so `Fraction` appears only in the report and in the sweep's
printed payoffs.

In a degenerate game two extreme equilibria share one player's mixture, so
the segment between them is in equilibrium too; the report then lists the
extreme equilibria and sets ``degenerate``.  Profiles and reports are
immutable named tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import add, itemgetter, mul, sub
from typing import NamedTuple

from .games import BimatrixGame, Payoff, _integer_payoffs

_ZERO = Fraction(0)


class _ProfileFields(NamedTuple):
    p1: tuple[Fraction, ...]
    p2: tuple[Fraction, ...]


class MixedProfile(_ProfileFields):
    """A pair of probability vectors, one per player."""

    __slots__ = ()

    def __new__(cls, p1, p2):
        # Integer ratios over one common denominator: a `Fraction` sum reduces at every step.
        for vec in (p1, p2):
            ratios = [p.as_integer_ratio() for p in vec]
            if min(ratios, default=(0, 1))[0] < 0:
                raise ValueError(f"negative probability in {vec}")
            den = lcm(*[d for _, d in ratios])
            if sum([n * (den // d) for n, d in ratios]) != den:
                raise ValueError(f"probabilities {vec} do not sum to 1")
        return super().__new__(cls, p1, p2)


class EquilibriumReport(NamedTuple):
    """All equilibria found, split into pure positions and mixed profiles.

    The lists hold every extreme equilibrium; a pure one appears only in
    ``pure``.  ``degenerate`` means two listed equilibria share one player's
    mixture, so the segment between them is in equilibrium too.  False says
    only that no two do, not that the game is nondegenerate (see README).
    """

    pure: tuple[tuple[int, int, Payoff], ...]
    mixed: tuple[tuple[MixedProfile, Payoff], ...]
    degenerate: bool


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


def verify_equilibrium(game: BimatrixGame, profile: MixedProfile) -> bool:
    """True iff neither player has a pure deviation that strictly gains.

    That is, no pure-strategy value beats the player's expected payoff: its
    mixture dotted with those values.
    """
    rows, cols = _pure_values(game, profile)
    return all(
        max(values) <= sum((q * v for q, v in zip(mixture, values) if q), _ZERO)
        for mixture, values in ((profile.p1, rows), (profile.p2, cols))
    )


# A vertex in integer form: numerators over one positive denominator, in
# lowest terms, so equal vertices have equal keys.
_Vertex = tuple[tuple[int, ...], int]


@lru_cache(maxsize=128)
def _cramer_plan(n_rows: int, n_cols: int) -> list[tuple]:
    """Per size k, the flat addresses at which `_vertices` builds and reads the minors of size k.

    The minors of ``[C | 1]`` of size k (rows: the ``n_rows`` constraints;
    columns: the ``n_cols`` own strategies, then the ones) form one flat
    list, row set by row set, each row set's column sets in `combinations`
    order.  Size 1 is the matrix itself, and `_vertices` reads its systems
    off column maxima, so the plan holds the levels from size 2 to
    min(n_rows, n_cols + 1), one past the largest support, for the bordered
    minors; with one column no system has size 2, and the plan is empty.
    Each level carries two gathers and the signs of its Laplace
    expansion along the last row: for each minor in order, its k entries of
    that row and the k minors of size k - 1 they multiply, so the products
    of term j are the stride-k slice from j, and term j is signed
    (-1)^(k - 1 + j).
    Each level also carries its systems, support by support: for each row
    set K, the addresses of M(K, S) and of each Cramer numerator with its
    sign (the ones at position j, signed as term j by the parity of the
    k - 1 - j swaps that move the ones to the end), K's label mask (bit r
    for each row r in K), and K's borders.  A border of K is, for each other
    row r, r's bit, the address of M(K + r, S + ones) one size up and the
    sign (-1)^(rows of K after r) of moving r to the bottom, as is and
    negated (for a negative M(K, S)).
    """
    width = n_cols + 1
    top = min(n_rows, width) if n_cols > 1 else 1
    row_sets = [[()]] + [list(combinations(range(n_rows), k)) for k in range(1, top + 1)]
    col_sets = [[()]] + [list(combinations(range(width), k)) for k in range(1, top + 1)]
    row_at = {rows: i for level in row_sets for i, rows in enumerate(level)}
    col_at = {cols: i for level in col_sets for i, cols in enumerate(level)}

    def address(rows, cols):
        return row_at[rows] * len(col_sets[len(rows)]) + col_at[cols]

    plan = []
    for k in range(2, top + 1):
        entries, smaller = [], []
        for rows in row_sets[k]:
            for cols in col_sets[k]:
                for j, c in enumerate(cols):
                    entries.append(rows[-1] * width + c)
                    smaller.append(address(rows[:-1], cols[:j] + cols[j + 1:]))
        # Term k - 1 is positive; the ones before it alternate in sign.
        ops = [(j, sub if (k - 1 - j) % 2 else add) for j in range(k - 2, -1, -1)]
        expansion = (itemgetter(*entries), itemgetter(*smaller), ops)
        supports = []
        for support in combinations(range(n_cols), k):
            bordered = support + (n_cols,)
            cramer = [
                (support[:j] + support[j + 1:] + (n_cols,), (-1) ** (k - 1 + j))
                for j in range(k)
            ]
            systems = []
            for rows in row_sets[k]:
                others = [
                    (1 << r, address(tuple(sorted(rows + (r,))), bordered),
                     (-1) ** sum(s > r for s in rows))
                    for r in range(n_rows) if r not in rows
                ]
                systems.append((
                    address(rows, support),
                    [(address(rows, cols), sign) for cols, sign in cramer],
                    sum(1 << r for r in rows),
                    [[(bit, at, sign * flip) for bit, at, sign in others] for flip in (1, -1)],
                ))
            supports.append((support, systems))
        plan.append((expansion, supports))
    return plan


def _vertices(constraints: list[list[int]]) -> dict[_Vertex, tuple[int, int]]:
    """The nonzero vertices of ``{x >= 0 : c . x <= 1 for c in constraints}``, with labels.

    ``constraints[k][i]`` is the opponent's positive payoff for its pure
    strategy k when this player plays i.  Every vertex solves ``c . x = 1``
    over some set K of constraints, with x zero off some support S of the
    same size.  For S = {i}, x_i = 1 / c_i keeps every constraint only when
    c_i is the column's maximum, and every entry is positive, so each column
    gives one vertex, tight on the rows that reach that maximum; these come
    first, in column order.  Every larger (S, K) is solved by Cramer's rule.
    By the Schur complement, M(K + r, S + ones) with row r moved to the
    bottom is M(K, S) (1 - c_r . x), so each other constraint r is tight
    where that minor is zero and violated where it has the wrong sign.
    Labels: the first mask has bit i set where x_i = 0, the second bit k
    where constraint k is tight, that is where k is the opponent's best
    response.
    """
    vertices: dict[_Vertex, tuple[int, int]] = {}
    size = len(constraints[0])
    everything = (1 << size) - 1
    for i, column in enumerate(zip(*constraints)):
        peak = max(column)
        x = [0] * size
        x[i] = 1
        tight = sum(1 << k for k, v in enumerate(column) if v == peak)
        vertices[tuple(x), peak] = (everything ^ 1 << i, tight)
    matrix = []
    for row in constraints:
        matrix += row
        matrix.append(1)
    plan = _cramer_plan(len(constraints), size)
    # tables[k - 1]: the minors of size k, at the plan's flat addresses.
    tables = [matrix]
    for k, (expansion, _) in enumerate(plan, 2):
        entries, smaller, ops = expansion
        terms = list(map(mul, entries(matrix), smaller(tables[-1])))
        table = terms[k - 1::k]
        for j, op in ops:
            table = map(op, table, terms[j::k])
        tables.append(list(table))
    for (_, supports), table, wider in zip(plan, tables[1:], tables[2:] + [None]):
        for support, systems in supports:
            for at, cramer, best, borders in systems:
                if not (den := table[at]):
                    continue
                nums = [sign * table[c] for c, sign in cramer]
                if min(nums) < 0 if den > 0 else max(nums) > 0:  # x has a negative entry
                    continue
                for bit, wider_at, sign in borders[den < 0]:
                    if (slack := sign * wider[wider_at]) < 0:
                        break
                    if not slack:
                        best |= bit
                else:
                    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)  # so den // g > 0
                    x = [0] * size
                    for i, v in zip(support, nums):
                        x[i] = v // g
                    unplayed = sum(1 << i for i, v in enumerate(x) if v == 0)
                    vertices[tuple(x), den // g] = (unplayed, best)
    return vertices


class _Solved(NamedTuple):
    """The extreme equilibria of one solve, in integers: what the report and the sweep read.

    ``pure`` holds the pure equilibria, in order, each as ``(i, j, payoff)``.
    ``mixed`` holds the others, ordered by mixture (player 1's, then player
    2's), each as ``(n1, s1, n2, s2, payoff)``: the mixtures are n1 / s1 and
    n2 / s2.  In both, ``payoff`` is last and holds each player's payoff as
    a pair (numerator, positive denominator), so the first equilibrium's
    payoff is ``entry[-1]`` in either list.
    """

    pure: list[tuple]
    mixed: list[tuple]
    degenerate: bool


def _solve(players) -> _Solved:
    """Every extreme equilibrium of a game whose payoffs are integers over one scale per player.

    ``players`` is ``[(rows, scale), (rows, scale)]``, as `_integer_payoffs`
    and `_integer_cells` return it: row i of each player's rows holds that
    player's payoffs, times its scale, when player 1 plays i.  Pairs the
    vertices of the two best-response polytopes whose labels cover every
    pure strategy; complete for every shape.  On 3x3 it reads 3 column
    maxima and solves exactly 10 systems per player.
    """
    (a, scale1), (b, scale2) = players
    n, m = len(a), len(a[0])
    # A positive scaling or a shift of one player's payoffs leaves every best
    # response, and so every equilibrium, unchanged.
    shift1, shift2 = 1 - min(map(min, a)), 1 - min(map(min, b))
    a_by_row = [[v + shift1 for v in row] for row in a]
    b_by_col = [[v + shift2 for v in col] for col in zip(*b)]
    # Player 1's polytope is {x >= 0 : B^T x <= 1}, player 2's {y >= 0 : A y <= 1}.
    # In a symmetric game (B = A^T) both calls would be the same, so one
    # polytope serves both.
    xs = _vertices(b_by_col)
    ys = xs if a_by_row == b_by_col else _vertices(a_by_row)

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

    pure, mixed = [], []
    for (n1, d1), (n2, d2) in equilibria:
        s1, s2 = sum(n1), sum(n2)
        # The numerators are nonnegative, so a vertex is pure when one of them
        # is their whole sum.
        if s1 in n1 and s2 in n2:
            i, j = n1.index(s1), n2.index(s2)
            pure.append((i, j, ((a[i][j], scale1), (b[i][j], scale2))))
        else:
            # Every best response to y = n2 / d2 scores 1 in shifted units, so
            # against the mixture n2 / s2 it scores d2 / s2; likewise for x.
            payoff = ((d2 - shift1 * s2, s2 * scale1), (d1 - shift2 * s1, s1 * scale2))
            mixed.append((n1, s1, n2, s2, payoff))
    pure.sort()
    if len(mixed) > 1:
        # Each player's mixtures over one common denominator compare as their numerators.
        l1, l2 = lcm(*[e[1] for e in mixed]), lcm(*[e[3] for e in mixed])
        mixed.sort(key=lambda e: ([v * (l1 // e[1]) for v in e[0]],
                                  [v * (l2 // e[3]) for v in e[2]]))
    return _Solved(pure, mixed, degenerate)


def support_enumeration(game: BimatrixGame) -> EquilibriumReport:
    """All Nash equilibria of the game, as the extreme equilibria and a degeneracy flag.

    `_solve` reads the integer payoffs of `_integer_payoffs`.
    """
    solved = _solve(_integer_payoffs(game))
    return EquilibriumReport(
        tuple((i, j, game.payoff(i, j)) for i, j, _ in solved.pure),
        tuple(
            (MixedProfile(tuple(Fraction(v, s1) for v in n1), tuple(Fraction(v, s2) for v in n2)),
             (Fraction(*u1), Fraction(*u2)))
            for n1, s1, n2, s2, (u1, u2) in solved.mixed
        ),
        solved.degenerate,
    )


def report_to_json_dict(report: EquilibriumReport, game: BimatrixGame) -> dict:
    """Equilibrium report as a JSON-ready dict with exact fraction strings."""
    return {
        "pure": [
            {"row": game.row_labels[i], "col": game.col_labels[j], "payoff": [str(v) for v in pay]}
            for i, j, pay in report.pure
        ],
        "mixed": [
            {"p1": [str(p) for p in prof.p1], "p2": [str(p) for p in prof.p2],
             "payoff": [str(v) for v in pay]}
            for prof, pay in report.mixed
        ],
        "degenerate": report.degenerate,
    }
