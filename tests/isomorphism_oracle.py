"""Reference isomorphism search: every bijection pair, compared in `Fraction`.

This is the search `ewlgames.find_isomorphism` ran before it moved to
integer images with a sorted-payoff rejection.  It tries all n!*m! bijection
pairs in lexicographic order and compares the payoffs themselves, exactly
or within an absolute tolerance.  It stays here, unchanged in behaviour, as
the oracle the differential tests in `test_games.py` compare against: the
new search must return exactly what this one returns.
"""

from __future__ import annotations

from itertools import permutations
from typing import Optional

from ewlgames import BimatrixGame, StrategyBijection
from ewlgames.games import Payoff


def _pairs_close(x: Payoff, y: Payoff, tol: float) -> bool:
    return abs(x[0] - y[0]) <= tol and abs(x[1] - y[1]) <= tol


def find_isomorphism(
    a: BimatrixGame, b: BimatrixGame, tol: float = 0.0
) -> Optional[StrategyBijection]:
    """The first bijection pair, in lexicographic order, that maps ``a`` onto ``b``."""
    if a.shape != b.shape:
        return None
    n, m = a.shape
    pa, pb = a.payoffs, b.payoffs
    for row_perm in permutations(range(n)):
        # Precompute b's rows in source order for this row bijection.
        rows_b = tuple(pb[row_perm[i]] for i in range(n))
        for col_perm in permutations(range(m)):
            if tol == 0.0:
                ok = all(
                    pa[i][j] == rows_b[i][col_perm[j]] for i in range(n) for j in range(m)
                )
            else:
                ok = all(
                    _pairs_close(pa[i][j], rows_b[i][col_perm[j]], tol)
                    for i in range(n)
                    for j in range(m)
                )
            if ok:
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
