"""Quantum one-unitary extensions of 2x2 bimatrix games.

Exact-rational games and Nash equilibria, the two-qubit quantization
pipeline, the 3x3 extension by a shared unitary strategy, and the
classification of which strategies keep the extension invariant under
relabelings of the classical game.
"""

import importlib

__version__ = "0.1.0"

# Each module and the names it exports.  A module is imported only when one of
# its names is first read (PEP 562), so `import ewlgames.cli` loads only what
# the CLI imports, and a command only what it runs.
_EXPORTS = {
    "ewl": "I_OP IX_OP MeasurementPair Q_OP UnitaryParams closed_form_payoff final_state"
           " format_angle params_from_angles parse_angle payoff_from_state unitary_matrix",
    "extension": "EXT_LABELS ExtendedGame ExtensionClass InvarianceKind build_extension"
                 " classify empirical_invariance extended_to_json_dict outcome_weights",
    "games": "BimatrixGame Payoff StrategyBijection VariantKind find_isomorphism"
             " game_from_json_dict game_to_json_dict is_generic make_game random_generic_game"
             " rational snapped variant",
    "nash": "EquilibriumReport MixedProfile pure_equilibria report_to_json_dict"
            " support_enumeration verify_equilibrium",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
