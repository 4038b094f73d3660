"""Reference Nash solver: support enumeration with Fraction Gauss-Jordan.

This is the exact solver `ewlgames.nash` used before it moved to integer
fraction-free elimination.  It stays here, unchanged in behaviour, as the
oracle the differential tests in `test_nash.py` compare against: every
report of `ewlgames.support_enumeration` must equal this module's.

The profile checker below, `mixed_payoff` and `verify_equilibrium` with
their per-player value scans, is the one `ewlgames.nash` used before it
computed every pure strategy's value in one pass; it is the oracle for that
pass.

`eliminate` and `vertices` are the vertex enumeration `ewlgames.nash` ran
before it solved each system by Cramer's rule over a table of minors: one
fraction-free Gauss-Jordan elimination per system.  `dot_product_vertices`
is the Cramer enumeration `ewlgames.nash` ran before it read each vertex's
slacks off bordered minors: it computes them by dot products.
`laplace_vertices` at the end is the one it ran before it built its minors
level by level in flat tables: one dict of minors per row set, one
`sum` per minor.  All three are oracles for `nash._vertices`, which must
return exactly their dict of vertices and labels, and in the order of the
last two.  They still take the strategies ``own`` and ``opponent`` that take
part, from when the solver removed strictly dominated strategies first; the
tests pass every strategy, as `nash._vertices` now enumerates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import mul

from ewlgames import BimatrixGame, EquilibriumReport, MixedProfile
from ewlgames.games import Payoff

_ZERO = Fraction(0)
_ONE = Fraction(1)


def mixed_payoff(game: BimatrixGame, profile: MixedProfile) -> Payoff:
    """Exact expected payoff pair under a mixed profile."""
    if len(profile.p1) != game.n_rows or len(profile.p2) != game.n_cols:
        raise ValueError(
            f"profile shape ({len(profile.p1)}, {len(profile.p2)}) "
            f"does not match game shape {game.shape}"
        )
    u1 = _ZERO
    u2 = _ZERO
    for i, pi in enumerate(profile.p1):
        if pi == 0:
            continue
        for j, qj in enumerate(profile.p2):
            if qj == 0:
                continue
            a, b = game.payoff(i, j)
            u1 += pi * qj * a
            u2 += pi * qj * b
    return (u1, u2)


def _row_values(game: BimatrixGame, p2: tuple[Fraction, ...]) -> list[Fraction]:
    """Player 1's expected payoff for each pure row against p2."""
    return [
        sum((qj * game.payoff(i, j)[0] for j, qj in enumerate(p2) if qj != 0), _ZERO)
        for i in range(game.n_rows)
    ]


def _col_values(game: BimatrixGame, p1: tuple[Fraction, ...]) -> list[Fraction]:
    """Player 2's expected payoff for each pure column against p1."""
    return [
        sum((pi * game.payoff(i, j)[1] for i, pi in enumerate(p1) if pi != 0), _ZERO)
        for j in range(game.n_cols)
    ]


def verify_equilibrium(game: BimatrixGame, profile: MixedProfile) -> bool:
    """True iff neither player has a pure deviation that strictly gains."""
    u1, u2 = mixed_payoff(game, profile)
    if any(v > u1 for v in _row_values(game, profile.p2)):
        return False
    if any(v > u2 for v in _col_values(game, profile.p1)):
        return False
    return True


def solve_rational_system(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[list[Fraction] | None, list[list[Fraction]]]:
    """Exact Gauss-Jordan elimination over `Fraction`.

    Returns (particular, nullspace): one solution with all free variables
    set to zero (None if the system is inconsistent) and a basis of the
    homogeneous solutions.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    a = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(rows, rhs)]

    pivot_cols: list[int] = []
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [v * inv for v in a[rank]]
        for r in range(n_rows):
            if r != rank and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[rank])]
        pivot_cols.append(col)
        rank += 1

    if any(a[r][n_cols] != 0 for r in range(rank, n_rows)):
        return None, []

    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    particular = [_ZERO] * n_cols
    for r, col in enumerate(pivot_cols):
        particular[col] = a[r][n_cols]

    nullspace = []
    for free in free_cols:
        vec = [_ZERO] * n_cols
        vec[free] = _ONE
        for r, col in enumerate(pivot_cols):
            vec[col] = -a[r][free]
        nullspace.append(vec)
    return particular, nullspace


def _indifference_candidates(
    values: list[list[Fraction]],
    own_support: tuple[int, ...],
    opp_support: tuple[int, ...],
    size: int,
) -> tuple[list[tuple[Fraction, ...]], bool]:
    """One player's mixtures on ``own_support`` that equalize the opponent on ``opp_support``.

    Returns nonnegative full-length candidates and whether the system was
    underdetermined; then the candidates are the vertices of the feasible
    polytope cut by nonnegativity and the opponent's off-support
    best-response constraints.
    """
    base = opp_support[0]
    eq_rows = [
        [values[base][x] - values[k][x] for x in own_support] for k in opp_support[1:]
    ]
    eq_rows.append([_ONE] * len(own_support))
    rhs = [_ZERO] * (len(opp_support) - 1) + [_ONE]

    particular, nullspace = solve_rational_system(eq_rows, rhs)
    if particular is None:
        return [], False
    if not nullspace:
        vec = _embed(particular, own_support, size)
        if any(v < 0 for v in vec):
            return [], False
        return [vec], False

    ineqs: list[list[Fraction]] = []
    for pos in range(len(own_support)):
        row = [_ZERO] * len(own_support)
        row[pos] = _ONE
        ineqs.append(row)
    for k in range(len(values)):
        if k in opp_support:
            continue
        ineqs.append([values[base][x] - values[k][x] for x in own_support])

    dim = len(nullspace)
    seen: set[tuple[Fraction, ...]] = set()
    vertices: list[tuple[Fraction, ...]] = []
    for tight in combinations(ineqs, dim):
        solution, null2 = solve_rational_system(
            eq_rows + [list(t) for t in tight], rhs + [_ZERO] * dim
        )
        if solution is None or null2:
            continue
        if any(sum(c * x for c, x in zip(row, solution)) < 0 for row in ineqs):
            continue
        vec = _embed(solution, own_support, size)
        if vec not in seen:
            seen.add(vec)
            vertices.append(vec)
    return vertices, True


def _embed(
    solution: list[Fraction], support: tuple[int, ...], size: int
) -> tuple[Fraction, ...]:
    vec = [_ZERO] * size
    for pos, idx in enumerate(support):
        vec[idx] = solution[pos]
    return tuple(vec)


def _nonempty_supports(n: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for size in range(1, n + 1):
        out.extend(combinations(range(n), size))
    return out


def support_enumeration(game: BimatrixGame) -> EquilibriumReport:
    """All Nash equilibria by support enumeration in `Fraction` arithmetic."""
    n, m = game.shape
    a_by_row = [[game.payoff(i, j)[0] for j in range(m)] for i in range(n)]
    b_by_col = [[game.payoff(i, j)[1] for i in range(n)] for j in range(m)]

    equilibria: dict[tuple, MixedProfile] = {}
    degenerate = False
    for s1 in _nonempty_supports(n):
        for s2 in _nonempty_supports(m):
            cands2, under2 = _indifference_candidates(a_by_row, s2, s1, m)
            if not cands2:
                continue
            cands1, under1 = _indifference_candidates(b_by_col, s1, s2, n)
            if not cands1:
                continue
            verified1: set[tuple[Fraction, ...]] = set()
            verified2: set[tuple[Fraction, ...]] = set()
            for p1 in cands1:
                for p2 in cands2:
                    profile = MixedProfile(p1, p2)
                    if not verify_equilibrium(game, profile):
                        continue
                    verified1.add(p1)
                    verified2.add(p2)
                    equilibria.setdefault((p1, p2), profile)
            if (under1 and len(verified1) > 1) or (under2 and len(verified2) > 1):
                degenerate = True

    pure: list[tuple[int, int, Payoff]] = []
    mixed: list[tuple[MixedProfile, Payoff]] = []
    for profile in equilibria.values():
        support1 = [i for i, p in enumerate(profile.p1) if p > 0]
        support2 = [j for j, p in enumerate(profile.p2) if p > 0]
        if len(support1) == 1 and len(support2) == 1:
            i, j = support1[0], support2[0]
            pure.append((i, j, game.payoff(i, j)))
        else:
            mixed.append((profile, mixed_payoff(game, profile)))
    pure.sort(key=lambda e: (e[0], e[1]))
    mixed.sort(key=lambda e: (e[0].p1, e[0].p2))
    return EquilibriumReport(tuple(pure), tuple(mixed), degenerate)


# --- the integer-elimination vertex oracle -----------------------------------


def eliminate(rows: list[list[int]]) -> tuple[list[int], int] | None:
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


def vertices(
    constraints: list[list[int]], size: int, own: list[int], opponent: list[int]
) -> dict[tuple[tuple[int, ...], int], tuple[int, int]]:
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
    vertices: dict[tuple[tuple[int, ...], int], tuple[int, int]] = {}
    kept = [constraints[k] for k in opponent]
    for k in range(1, min(len(own), len(kept)) + 1):
        for support in combinations(own, k):
            for tight in combinations(kept, k):
                solved = eliminate([[c[i] for i in support] + [1] for c in tight])
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


# --- Cramer's rule with dot-product slacks -----------------------------------


@lru_cache(maxsize=64)
def _dot_product_plan(n_rows: int, n_cols: int) -> list[tuple[list, list, list]]:
    """Per size k, the row sets, column sets and supports of `dot_product_vertices`.

    Column ``n_cols`` is the ones.  A column set carries its Laplace terms
    along the last row, a support its Cramer columns with the ones at
    position j.  Both sign position j by (-1)^(k - 1 + j), which for Cramer
    is the parity of the k - 1 - j swaps that move the ones to the end.
    """
    plan = []
    for k in range(1, min(n_rows, n_cols) + 1):
        expansion, supports = [], []
        for cols in combinations(range(n_cols + 1), k):
            mask = sum(1 << c for c in cols)
            terms = [(c, 1 << c, (-1) ** (k - 1 + j)) for j, c in enumerate(cols)]
            expansion.append((mask, terms))
            if n_cols not in cols:
                cramer = [(mask ^ bit | 1 << n_cols, sign) for _, bit, sign in terms]
                supports.append((cols, mask, cramer))
        row_sets = [sum(1 << r for r in rows) for rows in combinations(range(n_rows), k)]
        plan.append((row_sets, expansion, supports))
    return plan


def dot_product_vertices(
    constraints: list[list[int]], size: int, own: list[int], opponent: list[int]
) -> dict[tuple[tuple[int, ...], int], tuple[int, int]]:
    """The nonzero vertices of ``{x >= 0 : c . x <= 1 for c in constraints}``, with labels.

    ``constraints[k][i]`` is the opponent's positive payoff for its pure
    strategy k when this player plays i.  Only the strategies ``own`` of
    this player and ``opponent`` of the opponent take part: x is zero off
    ``own``, and the other constraints are dropped.  Every vertex is the
    unique solution of ``c . x = 1`` over some set K of constraints with x
    zero off some support S of the same size, so every such pair (S, K) is
    solved, by Cramer's rule over one table of minors.  Each vertex's slacks
    are then computed by a dot product with every kept constraint, and the
    labels are read off them: the first mask has bit i set where x_i = 0,
    the second bit k where constraint k is tight, that is where k is the
    opponent's best response.  A dropped constraint is never tight.
    """
    vertices: dict[tuple[tuple[int, ...], int], tuple[int, int]] = {}
    kept = [constraints[k] for k in opponent]
    matrix = [[c[i] for i in own] + [1] for c in kept]
    # minors[R][C]: the minor on the rows in R and the columns in C.
    minors = {0: {0: 1}}
    for row_sets, expansion, supports in _dot_product_plan(len(kept), len(own)):
        for rows in row_sets:
            last = rows.bit_length() - 1
            entries, smaller = matrix[last], minors[rows ^ 1 << last]
            minors[rows] = {
                cols: sum(sign * entries[c] * smaller[cols ^ bit] for c, bit, sign in terms)
                for cols, terms in expansion
            }
        for support, cols, cramer in supports:
            for rows in row_sets:
                table = minors[rows]
                if not (den := table[cols]):
                    continue
                nums = [sign * table[c] for c, sign in cramer]
                g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)  # so den // g > 0
                den, nums = den // g, [v // g for v in nums]
                if min(nums) < 0:
                    continue
                x = [0] * size
                for i, v in zip(support, nums):
                    x[own[i]] = v
                slack = [den - sum(map(mul, c, x)) for c in kept]
                if min(slack) < 0:
                    continue
                best = sum(1 << j for j, s in zip(opponent, slack) if s == 0)
                unplayed = sum(1 << i for i, v in enumerate(x) if v == 0)
                vertices[tuple(x), den] = (unplayed, best)
    return vertices


# --- Cramer's rule over dict-keyed minors, with bordered slacks -----------------


@lru_cache(maxsize=64)
def _laplace_plan(opponent: tuple[int, ...], n_cols: int) -> list[tuple[list, list, list]]:
    """Per size k, the row sets, column sets and supports of `laplace_vertices`, as bitmasks.

    Row r is the opponent's strategy r, on bit r, so a row set is also a
    label mask.  Sizes run to min(rows, n_cols + 1), one past the largest
    support, for the bordered minors.  A row set K carries its last row and
    its borders: for each other row r, r's bit, K + r and the sign
    (-1)^(rows of K after r) of moving r to the bottom, as is and negated
    (for a negative M(K, S)).  Column ``n_cols`` is the ones.  A column set
    carries its Laplace terms along the last row; a support its Cramer
    columns, with the ones at position j, and itself plus the ones.  Both
    sign position j by (-1)^(k - 1 + j), which for Cramer is the parity of
    the k - 1 - j swaps that move the ones to the end.
    """
    plan = []
    for k in range(1, min(len(opponent), n_cols + 1) + 1):
        expansion, supports = [], []
        for cols in combinations(range(n_cols + 1), k):
            mask = sum(1 << c for c in cols)
            terms = [(c, 1 << c, (-1) ** (k - 1 + j)) for j, c in enumerate(cols)]
            expansion.append((mask, terms))
            if n_cols not in cols:
                cramer = [(mask ^ bit | 1 << n_cols, sign) for _, bit, sign in terms]
                supports.append((cols, mask, mask | 1 << n_cols, cramer))
        row_sets = []
        for rows in combinations(opponent, k):
            mask = sum(1 << r for r in rows)
            signs = [(1 << r, (-1) ** sum(s > r for s in rows)) for r in opponent if r not in rows]
            borders = [[(bit, mask | bit, sign * flip) for bit, sign in signs] for flip in (1, -1)]
            row_sets.append((mask, max(rows), borders))
        plan.append((row_sets, expansion, supports))
    return plan


def laplace_vertices(
    constraints: list[list[int]], size: int, own: list[int], opponent: list[int]
) -> dict[tuple[tuple[int, ...], int], tuple[int, int]]:
    """The nonzero vertices of ``{x >= 0 : c . x <= 1 for c in constraints}``, with labels.

    ``constraints[k][i]`` is the opponent's positive payoff for its pure
    strategy k when this player plays i.  Only the strategies ``own`` of
    this player and ``opponent`` of the opponent take part: x is zero off
    ``own``, and the other constraints are dropped and never tight.  Every
    vertex solves ``c . x = 1`` over some set K of constraints, with x zero
    off some support S of the same size, so every such (S, K) is solved by
    Cramer's rule.  By the Schur complement, M(K + r, S + ones) with row r
    moved to the bottom is M(K, S) (1 - c_r . x), so each other kept
    constraint r is tight where that minor is zero and violated where it has
    the wrong sign.  Labels: the first mask has bit i set where x_i = 0, the
    second bit k where constraint k is tight, that is where k is the
    opponent's best response.
    """
    vertices: dict[tuple[tuple[int, ...], int], tuple[int, int]] = {}
    matrix = {k: [constraints[k][i] for i in own] + [1] for k in opponent}
    plan = _laplace_plan(tuple(opponent), len(own))
    # minors[R][C]: the minor on the rows in R and the columns in C.
    minors = {0: {0: 1}}
    for row_sets, expansion, _ in plan:
        for rows, last, _ in row_sets:
            entries, smaller = matrix[last], minors[rows ^ 1 << last]
            minors[rows] = {
                cols: sum(sign * entries[c] * smaller[cols ^ bit] for c, bit, sign in terms)
                for cols, terms in expansion
            }
    for row_sets, _, supports in plan:
        for support, cols, bordered, cramer in supports:
            for rows, _, borders in row_sets:
                table = minors[rows]
                if not (den := table[cols]):
                    continue
                nums = [sign * table[c] for c, sign in cramer]
                if min(nums) < 0 if den > 0 else max(nums) > 0:  # x has a negative entry
                    continue
                best = rows
                for bit, wider, sign in borders[den < 0]:
                    if (slack := sign * minors[wider][bordered]) < 0:
                        break
                    if not slack:
                        best |= bit
                else:
                    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)  # so den // g > 0
                    x = [0] * size
                    for i, v in zip(support, nums):
                        x[own[i]] = v // g
                    unplayed = sum(1 << i for i, v in enumerate(x) if v == 0)
                    vertices[tuple(x), den // g] = (unplayed, best)
    return vertices
