"""Reference Nash solver: support enumeration with Fraction Gauss-Jordan.

This is the exact solver `ewlgames.nash` used before it moved to integer
fraction-free elimination.  It stays here, unchanged in behaviour, as the
oracle the differential tests in `test_nash.py` compare against: every
report of `ewlgames.support_enumeration` must equal this module's.

The profile checker below, `mixed_payoff` and `verify_equilibrium` with
their per-player value scans, is the one `ewlgames.nash` used before it
computed every pure strategy's value in one pass; it is the oracle for that
pass.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

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
