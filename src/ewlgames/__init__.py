"""Quantum one-unitary extensions of 2x2 bimatrix games.

Exact-rational games and Nash equilibria, the two-qubit quantization
pipeline, the 3x3 extension by a shared unitary strategy, and the
classification of which strategies keep the extension invariant under
relabelings of the classical game.
"""

from .ewl import (
    I_OP,
    IX_OP,
    MeasurementPair,
    Q_OP,
    UnitaryParams,
    closed_form_payoff,
    final_state,
    format_angle,
    params_from_angles,
    parse_angle,
    payoff_from_state,
    unitary_matrix,
)
from .extension import (
    EXT_LABELS,
    ExtendedGame,
    ExtensionClass,
    InvarianceKind,
    build_extension,
    classify,
    empirical_invariance,
    extended_to_json_dict,
    outcome_weights,
)
from .games import (
    BimatrixGame,
    Payoff,
    StrategyBijection,
    VariantKind,
    find_isomorphism,
    game_from_json_dict,
    game_to_json_dict,
    is_generic,
    make_game,
    random_generic_game,
    rational,
    snapped,
    variant,
)
from .nash import (
    EquilibriumReport,
    MixedProfile,
    mixed_payoff,
    pure_equilibria,
    report_to_json_dict,
    support_enumeration,
    verify_equilibrium,
)

__version__ = "0.1.0"

__all__ = [
    "BimatrixGame",
    "EXT_LABELS",
    "EquilibriumReport",
    "ExtendedGame",
    "ExtensionClass",
    "I_OP",
    "IX_OP",
    "InvarianceKind",
    "MeasurementPair",
    "MixedProfile",
    "Payoff",
    "Q_OP",
    "StrategyBijection",
    "UnitaryParams",
    "VariantKind",
    "build_extension",
    "classify",
    "closed_form_payoff",
    "empirical_invariance",
    "extended_to_json_dict",
    "final_state",
    "find_isomorphism",
    "format_angle",
    "game_from_json_dict",
    "game_to_json_dict",
    "is_generic",
    "make_game",
    "mixed_payoff",
    "outcome_weights",
    "params_from_angles",
    "parse_angle",
    "payoff_from_state",
    "pure_equilibria",
    "random_generic_game",
    "rational",
    "report_to_json_dict",
    "snapped",
    "support_enumeration",
    "unitary_matrix",
    "variant",
    "verify_equilibrium",
]
