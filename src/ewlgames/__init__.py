"""Quantum one-unitary extensions of 2x2 bimatrix games.

Exact-rational games and Nash equilibria, the two-qubit quantization
pipeline, the 3x3 extension by a shared unitary strategy, and the
classification of which strategies keep the extension invariant under
relabelings of the classical game.
"""

import importlib

# Each export and the module that defines it.  A module is imported only when
# one of its names is first read (PEP 562), so `import ewlgames.cli` loads
# only what the CLI imports, and a command only what it runs.
_EXPORTS = {
    "I_OP": "ewl",
    "IX_OP": "ewl",
    "MeasurementPair": "ewl",
    "Q_OP": "ewl",
    "UnitaryParams": "ewl",
    "closed_form_payoff": "ewl",
    "final_state": "ewl",
    "format_angle": "ewl",
    "params_from_angles": "ewl",
    "parse_angle": "ewl",
    "payoff_from_state": "ewl",
    "unitary_matrix": "ewl",
    "EXT_LABELS": "extension",
    "ExtendedGame": "extension",
    "ExtensionClass": "extension",
    "InvarianceKind": "extension",
    "build_extension": "extension",
    "classify": "extension",
    "empirical_invariance": "extension",
    "extended_to_json_dict": "extension",
    "outcome_weights": "extension",
    "BimatrixGame": "games",
    "Payoff": "games",
    "StrategyBijection": "games",
    "VariantKind": "games",
    "find_isomorphism": "games",
    "game_from_json_dict": "games",
    "game_to_json_dict": "games",
    "is_generic": "games",
    "make_game": "games",
    "random_generic_game": "games",
    "rational": "games",
    "snapped": "games",
    "variant": "games",
    "EquilibriumReport": "nash",
    "MixedProfile": "nash",
    "mixed_payoff": "nash",
    "pure_equilibria": "nash",
    "report_to_json_dict": "nash",
    "support_enumeration": "nash",
    "verify_equilibrium": "nash",
}

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


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
