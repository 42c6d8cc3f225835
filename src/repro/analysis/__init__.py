"""Theoretical analysis: reduced models, equilibria, and Lyapunov stability.

The campaign-facing surface lives in :mod:`.adapter`: builders
(:func:`reference_network`) and adapters (:func:`from_scenario`,
:func:`analyze_scenario`) replace bare :class:`SingleBottleneck`
construction, dispatch to the Theorem 1-5 closed forms where their
hypotheses hold, and fall back to the reduced models numerically
(including mixed BBRv1/BBRv2 populations) everywhere else.
"""

from .adapter import (
    ANALYZABLE_CCAS,
    AnalyticPoint,
    UnsupportedScenarioError,
    analyze_network,
    analyze_scenario,
    buffer_never_binds,
    classify_stability,
    from_scenario,
    mixed_reduced_rhs,
    reference_network,
)
from .equilibrium import (
    Equilibrium,
    bbr1_deep_buffer_equilibrium,
    bbr1_shallow_buffer_equilibrium,
    bbr1_shallow_buffer_loss_fraction,
    bbr2_fair_equilibrium,
    bbr2_queue_reduction_vs_bbr1,
    equilibrium_residual,
)
from .reduced import (
    SingleBottleneck,
    integrate_reduced,
    reduced_rhs,
)
from .stability import (
    StabilityResult,
    bbr1_deep_buffer_jacobian,
    bbr1_deep_buffer_max_eigenvalue,
    bbr1_shallow_buffer_eigenvalues,
    bbr1_shallow_buffer_jacobian,
    bbr2_jacobian,
    check_bbr1_deep_buffer_stability,
    check_bbr1_numerical_stability,
    check_bbr1_shallow_buffer_stability,
    check_bbr2_numerical_stability,
    check_bbr2_stability,
    numerical_jacobian,
)

__all__ = [
    "ANALYZABLE_CCAS",
    "AnalyticPoint",
    "UnsupportedScenarioError",
    "analyze_network",
    "analyze_scenario",
    "buffer_never_binds",
    "classify_stability",
    "from_scenario",
    "mixed_reduced_rhs",
    "reference_network",
    "Equilibrium",
    "bbr1_deep_buffer_equilibrium",
    "bbr1_shallow_buffer_equilibrium",
    "bbr1_shallow_buffer_loss_fraction",
    "bbr2_fair_equilibrium",
    "bbr2_queue_reduction_vs_bbr1",
    "equilibrium_residual",
    "SingleBottleneck",
    "integrate_reduced",
    "reduced_rhs",
    "StabilityResult",
    "bbr1_deep_buffer_jacobian",
    "bbr1_deep_buffer_max_eigenvalue",
    "bbr1_shallow_buffer_eigenvalues",
    "bbr1_shallow_buffer_jacobian",
    "bbr2_jacobian",
    "check_bbr1_deep_buffer_stability",
    "check_bbr1_numerical_stability",
    "check_bbr1_shallow_buffer_stability",
    "check_bbr2_numerical_stability",
    "check_bbr2_stability",
    "numerical_jacobian",
]
