"""Self-check suite: recompute the library's reference results from scratch.

Each claim rebuilds a known quantity (the canonical prisoner's dilemma, its
relabeled presentations, their one-unitary extensions and equilibria, the
invariant-operator census, the agreement of the two payoff routes) and
compares it against frozen expected values.  Run against a modified game
file the affected claims fail loudly, which makes the suite usable as a
negative control.  Each claim is an immutable named tuple.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .ewl import (
    MeasurementPair,
    Q_OP,
    UnitaryParams,
    closed_form_payoff,
    final_state,
    payoff_from_state,
)
from .extension import InvarianceKind, build_extension, classify
from .games import (
    BimatrixGame,
    VariantKind,
    find_isomorphism,
    make_game,
    random_generic_game,
    variant,
)
from .nash import EquilibriumReport, MixedProfile, support_enumeration

F = Fraction

SEED = 20240901  # of the suite's random dilemmas and oracle samples

CANONICAL_PD = make_game(("C", "D"), ("C", "D"), [[(3, 3), (0, 5)], [(5, 0), (1, 1)]])


class Claim(NamedTuple):
    name: str
    ok: bool
    expected: str
    actual: str


def _q_pattern(game: BimatrixGame):
    """The known tabulated form of a Q-extension, independent of the trig route."""
    d00, d01 = game.payoff(0, 0), game.payoff(0, 1)
    d10, d11 = game.payoff(1, 0), game.payoff(1, 1)
    return ((d00, d01, d11), (d10, d11, d01), (d11, d10, d00))


def _fmt_report(report: EquilibriumReport) -> str:
    pure = ", ".join(f"({i},{j})->({p[0]},{p[1]})" for i, j, p in report.pure) or "none"
    mixed = (
        ", ".join(
            f"p1=({','.join(map(str, prof.p1))}) p2=({','.join(map(str, prof.p2))})"
            f"->({pay[0]},{pay[1]})"
            for prof, pay in report.mixed
        )
        or "none"
    )
    return f"pure: {pure}; mixed: {mixed}"


def _profile(p1, p2) -> MixedProfile:
    return MixedProfile(tuple(F(x) for x in p1), tuple(F(x) for x in p2))


def oracle_deviation(game: BimatrixGame, p1: UnitaryParams, p2: UnitaryParams) -> float:
    """Absolute gap between the statevector and closed-form payoff routes."""
    pair = MeasurementPair.from_game(game)
    sv = payoff_from_state(final_state(p1, p2), pair)
    cf = closed_form_payoff(p1, p2, game)
    return max(abs(sv[0] - cf[0]), abs(sv[1] - cf[1]))


def max_oracle_deviation(samples: int, seed: int, n_games: int = 5) -> float:
    """Worst oracle gap over seeded random games and strategy pairs."""
    rng = random.Random(seed)
    games = [random_generic_game(rng) for _ in range(n_games)]
    worst = 0.0
    for game in games:
        for _ in range(samples):
            ps = [
                UnitaryParams.from_radians(
                    rng.uniform(0.0, math.pi),
                    rng.uniform(0.0, 2.0 * math.pi),
                    rng.uniform(0.0, 2.0 * math.pi),
                )
                for _ in (0, 1)
            ]
            worst = max(worst, oracle_deviation(game, ps[0], ps[1]))
    return worst


def random_dilemma_values(rng: random.Random) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Random rational (R, S, T, P) with T > R > P > S and 2R > T + S."""
    while True:
        den = rng.randint(1, 10)
        nums = sorted(rng.sample(range(-30, 31), 4))
        s, p, r, t = (F(n, den) for n in nums)
        if 2 * r > t + s:
            return r, s, t, p


def dilemma_game(r: Fraction, s: Fraction, t: Fraction, p: Fraction) -> BimatrixGame:
    return make_game(("C", "D"), ("C", "D"), [[(r, r), (s, t)], [(t, s), (p, p)]])


def _relabeled_triple_pair() -> tuple[BimatrixGame, BimatrixGame]:
    """A 3x3 game and a scrambled relabeling of it with distinct payoffs."""
    cells = {
        (i, j): (F(3 * i + j + 1), F(7 * (3 * i + j) + 2)) for i in range(3) for j in range(3)
    }
    first = BimatrixGame(
        ("A", "B", "C"),
        ("D", "E", "F"),
        tuple(tuple(cells[i, j] for j in range(3)) for i in range(3)),
    )
    # Rows cycled and columns reversed relative to the first game.
    layout = (
        (cells[2, 2], cells[2, 1], cells[2, 0]),
        (cells[0, 2], cells[0, 1], cells[0, 0]),
        (cells[1, 2], cells[1, 1], cells[1, 0]),
    )
    second = BimatrixGame(("A'", "B'", "C'"), ("D'", "E'", "F'"), layout)
    return first, second


def _grid_census() -> dict[InvarianceKind, int]:
    counts = {kind: 0 for kind in InvarianceKind}
    half = F(1, 2)
    for i in range(8):
        for j in range(8):
            cls = classify(UnitaryParams.exact_pi(half, F(i, 4), F(j, 4)))
            counts[cls.kind] += 1
    return counts


def run_reference_suite(pd: BimatrixGame | None = None) -> list[Claim]:
    """All reference claims, computed against ``pd`` (canonical by default)."""
    game = CANONICAL_PD if pd is None else pd
    claims: list[Claim] = []

    def add(name: str, ok: bool, expected: str, actual: str) -> None:
        claims.append(Claim(name, ok, expected, actual))

    def equilibria(name: str, g: BimatrixGame, expected: EquilibriumReport, ok=True) -> None:
        report = support_enumeration(g)
        add(name, ok and report == expected, _fmt_report(expected), _fmt_report(report))

    # Classical game: defection dominates, equilibrium payoff (1, 1).
    equilibria("classical game: unique equilibrium (D, D) with payoff (1, 1)",
               game, EquilibriumReport(((1, 1, (F(1), F(1))),), (), False))

    # The Q-extension reproduces the tabulated 3x3 matrix.
    ext = build_extension(game, Q_OP)
    add(
        "Q-extension matches its tabulated 3x3 matrix",
        ext.exact and ext.game.payoffs == _q_pattern(game),
        str(_q_pattern(game)),
        str(ext.game.payoffs),
    )
    equilibria("Q-extension: unique equilibrium (Q, Q) with payoff (3, 3)",
               ext.game, EquilibriumReport(((2, 2, (F(3), F(3))),), (), False))

    # Relabeling the game first changes the Q-extension's equilibrium entirely.
    half, full = (F(1, 2), F(0), F(1, 2)), (F(14, 25), F(2, 25), F(9, 25))
    relabeled = {}
    for kind, name, mixture, value in (
        (VariantKind.ROW_SWAP, "rows swapped first: no pure equilibrium, unique mixed "
         "((1/2,0,1/2),(1/2,0,1/2)) with payoff (5/2, 5/2)", half, F(5, 2)),
        (VariantKind.COL_SWAP, "columns swapped first: unique mixed ((1/2,0,1/2),(1/2,0,1/2)) "
         "with payoff (5/2, 5/2)", half, F(5, 2)),
        (VariantKind.ROW_COL_SWAP, "rows and columns swapped first: unique equilibrium "
         "((14/25,2/25,9/25),(14/25,2/25,9/25)) with payoff 51/25 each", full, F(51, 25)),
    ):
        swapped = variant(game, kind)
        relabeled[kind] = ext_v = build_extension(swapped, Q_OP)
        expected = EquilibriumReport((), ((_profile(mixture, mixture), (value, value)),), False)
        equilibria(name, ext_v.game, expected, ext_v.game.payoffs == _q_pattern(swapped))

    # The two row orderings produce genuinely non-isomorphic extensions.
    bijection = find_isomorphism(ext.game, relabeled[VariantKind.ROW_SWAP].game)
    add(
        "Q-extensions of the two row orderings are not isomorphic "
        "(all 36 bijection pairs fail)",
        bijection is None,
        "no bijection",
        "no bijection" if bijection is None else str(bijection),
    )

    # Relabeled games are recognized as the same game.
    first, second = _relabeled_triple_pair()
    bij = find_isomorphism(first, second)
    ok = bij is not None and bij.row_perm == (1, 2, 0) and bij.col_perm == (2, 1, 0)
    ok = ok and all(
        find_isomorphism(game, variant(game, kind)) is not None for kind in VariantKind
    )
    add(
        "relabeled games are isomorphic (3x3 pair and all three 2x2 variants)",
        ok,
        "rows (1,2,0), cols (2,1,0); every 2x2 variant isomorphic",
        f"3x3 bijection: {None if bij is None else (bij.row_perm, bij.col_perm)}",
    )

    # Invariant-operator census on the quarter-pi grid.
    counts = _grid_census()
    add(
        "invariance census at theta=pi/2: 24 operators = 4 + 4 + 16 by family",
        counts[InvarianceKind.TYPE_I] == 4
        and counts[InvarianceKind.TYPE_II] == 4
        and counts[InvarianceKind.TYPE_III] == 16
        and counts[InvarianceKind.NON_INVARIANT] == 40,
        "4 family I, 4 family II, 16 family III, 40 non-invariant",
        ", ".join(f"{k.value}: {v}" for k, v in counts.items()),
    )

    # Family II of the dilemma: the always-fair mixed equilibrium.
    quarter_profile = _profile((F(1, 4), F(1, 4), F(1, 2)), (F(1, 4), F(1, 4), F(1, 2)))
    d = [game.payoff(0, 0), game.payoff(0, 1), game.payoff(1, 0), game.payoff(1, 1)]
    avg4 = (
        sum((c[0] for c in d), F(0)) / 4,
        sum((c[1] for c in d), F(0)) / 4,
    )
    type_ii = UnitaryParams.exact_pi(F(1, 2), F(1, 2), F(1, 2))
    report = support_enumeration(build_extension(game, type_ii).game)
    ok = not report.pure and report.mixed == ((quarter_profile, avg4),)
    rng = random.Random(SEED)
    for _ in range(3):
        r, s, t, p = random_dilemma_values(rng)
        rep = support_enumeration(build_extension(dilemma_game(r, s, t, p), type_ii).game)
        value = (r + s + t + p) / 4
        ok = ok and not rep.pure and rep.mixed == ((quarter_profile, (value, value)),)
    add(
        "family II dilemma: unique mixed ((1/4,1/4,1/2),(1/4,1/4,1/2)) paying the "
        "four-cell average (9/4 for the canonical game)",
        ok,
        "pure: none; mixed: p1=(1/4,1/4,1/2) p2=(1/4,1/4,1/2)->four-cell average",
        _fmt_report(report),
    )

    # The two payoff routes agree to double precision.
    worst = max_oracle_deviation(samples=200, seed=SEED, n_games=3)
    add(
        "closed-form and statevector payoffs agree within 1e-12",
        worst <= 1e-12,
        "max deviation <= 1e-12",
        f"max deviation = {worst:.3e}",
    )

    return claims
