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

The enumeration runs in integers.  `_solve` takes each player's payoff rows
as integers over one scale, from `games._integer_payoffs` or the sweep's
exact cells, lays player 2's out by column, and shifts both to be at least
one, which leaves every equilibrium unchanged.  A vertex that plays one
strategy i is e_i over the opponent's largest payoff against i.  Every
larger vertex solves one square system by Cramer's rule over the minors of
``[C | 1]`` (rows: the opponent's strategies; columns: the player's own,
then ones), each built from those one size smaller by Laplace expansion
along the last row.  A vertex's slacks are read off the next size as
bordered minors.  The first polytope of each shape in a process compiles
that shape's enumeration (`_kernel`): straight-line integer code with every
minor a local and every system one flat test, which uses only ``+``, ``-``,
``*``, sign tests and a final `gcd`.  In a symmetric game (B = A^T) the two
polytopes are one, and it is enumerated once.  `_solve` returns one record
in integers, with every equilibrium's payoffs as integer pairs, which the
report and every sweep row read, so `Fraction` appears only in the report
and in the sweep's printed payoffs.

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


def _cramer_plan(n_rows: int, n_cols: int) -> list[tuple]:
    """Per size k, the minors of size k that `_kernel_source` writes, and the systems that read them.

    The minors of ``[C | 1]`` of size k (rows: the ``n_rows`` constraints;
    columns: the ``n_cols`` own strategies, then the ones) have flat
    addresses, row set by row set, each row set's column sets in
    `combinations` order; size 1 is the matrix itself, row-major.  Its
    systems are read off column maxima, so the plan holds the levels from
    size 2 to min(n_rows, n_cols + 1), one past the largest support, for the
    bordered minors; with one column no system has size 2, and the plan is
    empty.  Each level is ``(minors, supports)``.  ``minors`` holds, for each
    minor in address order, the k terms of its Laplace expansion along the
    last row: term j is the address of an entry of that row and of the minor
    of size k - 1 it multiplies, signed (-1)^(k - 1 + j).
    ``supports`` holds each support S with its systems: for each row set K,
    the address of M(K, S), each Cramer numerator's address with its sign
    (the ones at position j, signed as term j by the parity of the k - 1 - j
    swaps that move the ones to the end), K itself, and K's borders: for
    each other row r, r itself, the address of M(K + r, S + ones) one size
    up, and the sign (-1)^(rows of K after r) of moving r to the bottom.
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
        minors = [
            [(rows[-1] * width + c, address(rows[:-1], cols[:j] + cols[j + 1:]))
             for j, c in enumerate(cols)]
            for rows in row_sets[k] for cols in col_sets[k]
        ]
        supports = []
        for support in combinations(range(n_cols), k):
            bordered = support + (n_cols,)
            cramer = [
                (support[:j] + support[j + 1:] + (n_cols,), (-1) ** (k - 1 + j))
                for j in range(k)
            ]
            systems = [
                (address(rows, support),
                 [(address(rows, cols), sign) for cols, sign in cramer],
                 rows,
                 [(r, address(tuple(sorted(rows + (r,))), bordered), (-1) ** sum(s > r for s in rows))
                  for r in range(n_rows) if r not in rows])
                for rows in row_sets[k]
            ]
            supports.append((support, systems))
        plan.append((minors, supports))
    return plan


def _kernel_source(n_rows: int, n_cols: int) -> str:
    """The source of `_vertices` for constraints of one shape, written from `_cramer_plan`.

    It holds only names and integer literals that the shape decides.  The
    entries are locals ``c{row}_{col}`` and the minors of size k locals
    ``m{k}_{address}``; a product with the column of ones is its other
    factor.  Each system folds the sign of its denominator into the
    denominator, its numerators ``n{i}`` and its border slacks ``b{r}``, so
    one flat test keeps it: a nonzero denominator and no negative value.
    """
    width = n_cols + 1
    plan = _cramer_plan(n_rows, n_cols)

    def minor(k, at):
        if k > 1:
            return f"m{k}_{at}"
        r, c = divmod(at, width)
        return "1" if c == n_cols else f"c{r}_{c}"

    def signed(sign, name):
        return name if sign > 0 else f"-{name}"

    def mask(constant, bits):
        # (not v) is True where v is zero; `|` with an int gives an int.
        return " | ".join(([str(constant)] if constant or not bits else [])
                          + [f"(not {v}) << {i}" if i else f"(not {v})" for i, v in bits])

    unpack = ", ".join("[" + ", ".join(f"c{r}_{c}" for c in range(n_cols)) + "]" for r in range(n_rows))
    lines = [f"def _vertices_{n_rows}x{n_cols}(constraints):", f"    [{unpack}] = constraints"]
    # Support {i}: x = e_i over the column's maximum, tight where a row reaches it.
    everything = (1 << n_cols) - 1
    singles = []
    for i in range(n_cols):
        column = [f"c{r}_{i}" for r in range(n_rows)]
        if n_rows == 1:
            peak, tight = column[0], "1"
        else:
            peak = f"p{i}"
            lines.append(f"    {peak} = max({', '.join(column)})")
            tight = " | ".join(f"({v} == {peak})" + (f" << {r}" if r else "") for r, v in enumerate(column))
        x = ", ".join("1" if j == i else "0" for j in range(n_cols)) + ("," if n_cols == 1 else "")
        singles.append(f"        (({x}), {peak}): ({everything ^ 1 << i}, {tight}),")
    lines += ["    vertices = {", *singles, "    }"]
    for k, (minors, _) in enumerate(plan, 2):
        for at, terms in enumerate(minors):
            products = []
            for j, (entry, smaller) in enumerate(terms):
                factors = [f for f in (minor(1, entry), minor(k - 1, smaller)) if f != "1"]
                products.append(" * ".join(factors) or "1")
            # Term k - 1 is positive; the ones before it alternate in sign.
            expression = products[-1] + "".join(
                f" {'-' if (k - 1 - j) % 2 else '+'} {products[j]}" for j in range(k - 2, -1, -1))
            lines.append(f"    m{k}_{at} = {expression}")
    for k, (_, supports) in enumerate(plan, 2):
        for support, systems in supports:
            unplayed = everything & ~sum(1 << i for i in support)
            for at, cramer, rows, borders in systems:
                nums = [f"n{i}" for i in support]
                slacks = [f"b{r}" for r, _, _ in borders]
                values = [minor(k, at)] + [signed(sign, minor(k, c)) for c, sign in cramer]
                values += [signed(sign, minor(k + 1, wider)) for _, wider, sign in borders]
                folded = ", ".join(["d", *nums, *slacks])
                x = ", ".join(f"n{i} // g" if i in support else "0" for i in range(n_cols))
                lines += [
                    f"    # S = {support}, K = {rows}",
                    f"    {folded} = {', '.join(values)}",
                    "    if d < 0:",
                    f"        {folded} = {', '.join(f'-{v}' for v in ['d', *nums, *slacks])}",
                    f"    if d and {' and '.join(f'{v} >= 0' for v in nums + slacks)}:",
                    f"        g = gcd(d, {', '.join(nums)})",
                    f"        vertices[({x}), d // g] = ("
                    f"{mask(unplayed, list(zip(support, nums)))}, "
                    f"{mask(sum(1 << r for r in rows), [(r, f'b{r}') for r, _, _ in borders])})",
                ]
    lines.append("    return vertices")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=128)
def _kernel(n_rows: int, n_cols: int):
    """`_vertices` for one shape, compiled once per process from `_kernel_source`.

    Its source is registered with `linecache` under the filename
    ``<nash kernel NxM>``, so tracebacks and `inspect.getsource` show it.
    """
    import linecache  # here, so that importing nash does not load it

    source = _kernel_source(n_rows, n_cols)
    filename = f"<nash kernel {n_rows}x{n_cols}>"
    namespace = {"gcd": gcd}
    exec(compile(source, filename, "exec"), namespace)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return namespace[f"_vertices_{n_rows}x{n_cols}"]


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
    response.  The work is one call of the shape's compiled kernel
    (`_kernel`): straight-line integer code with every minor a local.
    """
    return _kernel(len(constraints), len(constraints[0]))(constraints)


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
