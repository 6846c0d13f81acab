"""jcouple: exact quantum angular-momentum coupling and time-reversal audits.

Each public name below is imported from its module on first access
(PEP 562), so ``import jcouple`` loads no submodule and a caller pays only
for the modules it uses.
"""

import importlib

# {public name: the module that defines it}
_EXPORTS = {
    name: module
    for module, names in (
        (
            "coupling",
            (
                "CouplingChain",
                "CouplingTree",
                "StateExpansion",
                "count_coupling_trees",
                "coupling_tree",
                "coupling_trees_json",
                "double_factorial",
                "enumerate_chains",
                "enumerate_coupling_trees",
                "expand_coupled_state",
                "export_dot",
                "generalized_coupling_coefficient",
                "jmax",
                "jmin",
            ),
        ),
        (
            "kepler",
            (
                "KeplerLevel",
                "KramersVerdict",
                "MergedKeplerLevel",
                "Statistics",
                "degeneracy_enumerated",
                "degeneracy_paper",
                "energy_level",
                "kramers_applicability",
                "merge_spectrum",
                "spectrum",
            ),
        ),
        (
            "numerics",
            (
                "DomainError",
                "FactorizedFactorial",
                "GaussianRational",
                "HalfInt",
                "PhasedSurdSum",
                "Surd",
                "factorial_factorized",
                "halfint_range",
                "parse_halfint",
                "projection_range",
                "squarefree_decomposition",
            ),
        ),
        (
            "particles",
            (
                "Leaf",
                "Node",
                "ParticleTree",
                "is_fermion",
                "particle_from_json",
            ),
        ),
        (
            "timerev",
            (
                "FirstSymmetryAudit",
                "apply_time_reversal",
                "audit_first_symmetry",
                "audit_second_symmetry",
                "check_compatibility",
                "coupled_univalence",
                "first_symmetry_audits",
                "kramers_overlap",
                "t_squared_sign",
            ),
        ),
        (
            "wigner",
            (
                "CgArgs",
                "ReggeAuditEntry",
                "RSymbol",
                "cg",
                "cg_normalization_sum",
                "regge_orbit_audit",
                "regge_symbol",
                "three_j",
            ),
        ),
    )
    for name in names
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
