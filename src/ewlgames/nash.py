"""Pure and mixed Nash equilibria of small bimatrix games.

Mixed equilibria come from support enumeration: for every pair of nonempty
supports the opponent-indifference conditions plus normalization form an
exact linear system.  Every candidate that solves its system with
nonnegative probabilities and survives the best-response check is an
equilibrium.  On 2x2 and 3x3 games the enumeration is complete, so a report
containing a single equilibrium is a uniqueness proof by exhaustion.

The enumeration runs in integers.  Each player's payoffs are multiplied by
the lcm of their denominators, which leaves every equilibrium unchanged.
Every system is solved by fraction-free Gauss-Jordan elimination, which
gives the solution as integer numerators over one positive denominator, and
the feasibility and best-response checks compare integers.  `Fraction`
probabilities are built only for the equilibria that go into the report.

Degenerate games (where some indifference system is underdetermined and a
whole face of profiles is in equilibrium) cannot be listed finitely; the
report then carries the vertex solutions and a ``degenerate`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul

from .games import BimatrixGame, Payoff

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

    @property
    def support1(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.p1) if p > 0)

    @property
    def support2(self) -> tuple[int, ...]:
        return tuple(j for j, p in enumerate(self.p2) if p > 0)

    @property
    def is_pure(self) -> bool:
        return len(self.support1) == 1 and len(self.support2) == 1


@dataclass(frozen=True)
class EquilibriumReport:
    """All equilibria found, split into pure positions and mixed profiles.

    A pure equilibrium appears only in ``pure``; ``degenerate`` warns that
    some support admitted a continuum of solutions, of which only vertices
    are listed.
    """

    pure: tuple[tuple[int, int, Payoff], ...]
    mixed: tuple[tuple[MixedProfile, Payoff], ...]
    degenerate: bool

    def __len__(self) -> int:
        return len(self.pure) + len(self.mixed)


def _eliminate(
    rows: list[list[int]], n: int
) -> tuple[list[int], int, list[list[int]]] | None:
    """Fraction-free Gauss-Jordan elimination of an integer linear system.

    ``rows`` are augmented rows ``[a_0, ..., a_{n-1}, b]`` of ``a . x = b``
    over ``n`` unknowns; the caller's lists are not modified.  Each pivot row
    is combined into every other row by cross-multiplication,
    ``row * pivot - row[col] * pivot_row``, and the new row is divided by
    the gcd of its entries, so every entry stays an integer and every row
    stays primitive.  Bareiss (Math. Comp. 22 (1968) 565) divides by the
    previous pivot instead, to the same end.

    Returns None if the system is inconsistent.  Otherwise returns
    ``(numerators, denominator, nullspace)``: ``numerators / denominator``
    is the solution with every free unknown set to zero, ``denominator`` is
    positive, and each nullspace basis vector is integer numerators over the
    same denominator.  An empty nullspace means the solution is unique; it
    is then in lowest terms.
    """
    rows = list(rows)
    n_rows = len(rows)
    pivot_cols: list[int] = []
    rank = 0
    for col in range(n):
        for r in range(rank, n_rows):
            if rows[r][col]:
                break
        else:
            continue
        prow = rows[r]
        rows[r] = rows[rank]
        rows[rank] = prow
        p = prow[col]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != rank:
                new = [v * p - f * w for v, w in zip(row, prow)]
                g = gcd(*new)
                rows[r] = [v // g for v in new] if g > 1 else new
        pivot_cols.append(col)
        rank += 1
    for r in range(rank, n_rows):
        if rows[r][n]:
            return None

    # Scale every pivot row so that all pivots equal one positive denominator.
    pivots = [rows[r][col] for r, col in enumerate(pivot_cols)]
    den = lcm(*pivots)
    nums = [0] * n
    scaled = []
    for r, col in enumerate(pivot_cols):
        scale = den // pivots[r]
        nums[col] = rows[r][n] * scale
        scaled.append((col, rows[r], scale))
    if rank == n:
        return (*_lowest_terms(nums, den), [])
    nullspace = []
    for free in range(n):
        if free not in pivot_cols:
            vec = [0] * n
            vec[free] = den
            for col, row, scale in scaled:
                vec[col] = -row[free] * scale
            nullspace.append(vec)
    return nums, den, nullspace


def _integer_matrix(values: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    """The matrix times the lcm of its denominators, and that lcm."""
    scale = lcm(*(v.denominator for row in values for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row] for row in values], scale


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


# A mixture in integer form: numerators over one positive denominator, in
# lowest terms, so equal mixtures have equal keys.
_Mixture = tuple[tuple[int, ...], int]


def _indifference_candidates(
    values: list[list[int]],
    own_support: tuple[int, ...],
    opp_support: tuple[int, ...],
    size: int,
) -> tuple[list[_Mixture], bool]:
    """Solve for one player's mixture that equalizes the opponent on-support.

    ``values[k][x]`` is the opponent's (integer-scaled) payoff for pure
    strategy k when this player plays x.  Unknowns are the probabilities on
    ``own_support``; equations make every opponent strategy in
    ``opp_support`` worth the same, plus normalization.  Returns nonnegative
    full-length candidate mixtures and whether the system was
    underdetermined (a continuum of solutions).  For underdetermined
    systems the candidates are the vertices of the feasible polytope: basic
    solutions with respect to nonnegativity and the opponent's off-support
    best-response constraints.
    """
    n_own = len(own_support)
    base = values[opp_support[0]]
    eq_rows = [
        [base[x] - values[k][x] for x in own_support] + [0] for k in opp_support[1:]
    ]
    eq_rows.append([1] * (n_own + 1))

    solved = _eliminate(eq_rows, n_own)
    if solved is None:
        return [], False
    nums, den, nullspace = solved
    if not nullspace:
        if any(v < 0 for v in nums):
            return [], False
        return [_embed(nums, den, own_support, size)], False

    # Underdetermined: enumerate vertices of the solution polytope, whose
    # points are x = (nums + t . nullspace) / den.  Extra tight constraints
    # come from nonnegativity and from the opponent's off-support strategies
    # being weakly worse than on-support ones.  Constraint c . x >= 0 reads
    # (c . nullspace) . t >= -(c . nums) in t, and is kept in that form as
    # one augmented row; as den > 0 the sign is unchanged.
    ineqs = [[int(pos == x) for x in range(n_own)] for pos in range(n_own)]
    for k in range(len(values)):
        if k not in opp_support:
            ineqs.append([base[x] - values[k][x] for x in own_support])
    t_rows = [[_dot(c, v) for v in nullspace] + [-_dot(c, nums)] for c in ineqs]

    dim = len(nullspace)
    vertices: dict[_Mixture, None] = {}
    for tight in combinations(t_rows, dim):
        solved = _eliminate(tight, dim)
        if solved is None or solved[2]:
            continue
        t, t_den, _ = solved
        # _dot stops at the shorter vector, so it skips each row's last entry.
        if any(_dot(row, t) < row[dim] * t_den for row in t_rows):
            continue
        x = [t_den * v + _dot(t, col) for v, col in zip(nums, zip(*nullspace))]
        vertices[_embed(*_lowest_terms(x, den * t_den), own_support, size)] = None
    return list(vertices), True


def _dot(a: list[int], b: list[int]) -> int:
    """Dot product over the length of the shorter vector."""
    return sum(map(mul, a, b))


def _lowest_terms(nums: list[int], den: int) -> tuple[list[int], int]:
    g = gcd(den, *nums)
    return ([v // g for v in nums], den // g) if g > 1 else (nums, den)


def _embed(nums: list[int], den: int, support: tuple[int, ...], size: int) -> _Mixture:
    vec = [0] * size
    for pos, idx in enumerate(support):
        vec[idx] = nums[pos]
    return tuple(vec), den


def _nonempty_supports(n: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for size in range(1, n + 1):
        out.extend(combinations(range(n), size))
    return out


def _best_response_value(own: _Mixture, values: list[int]) -> int | None:
    """The payoff of mixture ``own``, or None if it is not a best response.

    ``values`` are the payoffs of its pure strategies, scaled by the
    opponent's denominator; the result is scaled by both denominators.
    """
    nums, den = own
    u = _dot(nums, values)
    if any(den * v > u for v in values):
        return None
    return u


def support_enumeration(game: BimatrixGame) -> EquilibriumReport:
    """All Nash equilibria of the game by exhaustive support enumeration.

    Complete for games up to 3x3 (49 support pairs); larger games are
    accepted but the combinatorics grow factorially.  Each player's payoffs
    are scaled to integers and every system is solved by fraction-free
    elimination; `Fraction` appears only in the report.
    """
    n, m = game.shape
    # A positive scaling of one player's payoffs leaves every best response,
    # and so every equilibrium, unchanged.
    a_by_row, scale1 = _integer_matrix(
        [[game.payoff(i, j)[0] for j in range(m)] for i in range(n)]
    )
    b_by_col, scale2 = _integer_matrix(
        [[game.payoff(i, j)[1] for i in range(n)] for j in range(m)]
    )

    # (p1, p2) -> (player 1's value, player 2's value), each times d1 * d2.
    equilibria: dict[tuple[_Mixture, _Mixture], tuple[int, int]] = {}
    degenerate = False
    for s1 in _nonempty_supports(n):
        for s2 in _nonempty_supports(m):
            # p2 equalizes player 1 across s1; p1 equalizes player 2 across s2.
            cands2, under2 = _indifference_candidates(a_by_row, s2, s1, m)
            if not cands2:
                continue
            cands1, under1 = _indifference_candidates(b_by_col, s1, s2, n)
            if not cands1:
                continue
            # Each pure strategy's payoff against each candidate, times the
            # candidate's denominator.
            row_values = [[_dot(row, p2[0]) for row in a_by_row] for p2 in cands2]
            verified1: set[_Mixture] = set()
            verified2: set[_Mixture] = set()
            for p1 in cands1:
                col_values = [_dot(col, p1[0]) for col in b_by_col]
                for p2, rows in zip(cands2, row_values):
                    u1 = _best_response_value(p1, rows)
                    if u1 is None:
                        continue
                    u2 = _best_response_value(p2, col_values)
                    if u2 is None:
                        continue
                    verified1.add(p1)
                    verified2.add(p2)
                    equilibria.setdefault((p1, p2), (u1, u2))
            # A continuum needs an underdetermined side with at least two
            # distinct equilibrium vertices.
            if (under1 and len(verified1) > 1) or (under2 and len(verified2) > 1):
                degenerate = True

    pure: list[tuple[int, int, Payoff]] = []
    mixed: list[tuple[MixedProfile, Payoff]] = []
    for ((n1, d1), (n2, d2)), (u1, u2) in equilibria.items():
        profile = MixedProfile(
            tuple(Fraction(x, d1) for x in n1), tuple(Fraction(x, d2) for x in n2)
        )
        if profile.is_pure:
            i, j = profile.support1[0], profile.support2[0]
            pure.append((i, j, game.payoff(i, j)))
        else:
            d = d1 * d2
            mixed.append((profile, (Fraction(u1, d * scale1), Fraction(u2, d * scale2))))
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
