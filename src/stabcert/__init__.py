"""Certified stabilizer-fidelity intervals from syndrome statistics.

The unknown preparation is summarized by its syndrome distribution p over
F_2^n; the fidelity with the target stabilizer state is p(0). Measuring a
gauge (an invertible set of stabilizer labels) reveals Walsh coefficients
of p, and linear programs over the remaining feasible distributions give
certified fidelity intervals. The adaptive loop picks each next gauge to
eliminate the current endpoint witnesses.
"""

from stabcert.certificates import (
    GaugeExpectations,
    OneGaugeCertificate,
    clipped_upper_certificate,
    confidence_interval,
    empirical_upper,
    epsilon_from_shots,
    kkl_lower,
    kkl_upper,
    nested_syndrome_witness,
    one_gauge_certificate,
    shots_per_generator,
)
from stabcert.gf2 import (
    Gauge,
    Label,
    XorBasis,
    greedy_max_weight_basis,
    sample_uniform_gauge,
)
from stabcert.policy import (
    DisagreementSpectrum,
    PolicyChoice,
    disagreement_spectrum,
    select_single_label,
    select_uniform_gauge,
    select_witness_gauge,
)
from stabcert.polytope import (
    ConstraintSet,
    EndpointResult,
    SolverError,
    add_band,
    build_exact_constraints,
    solve_endpoints,
)
from stabcert.runner import (
    ArmSpec,
    EnsembleConfig,
    EnsembleResult,
    InstanceSpec,
    InvariantViolation,
    RoundRecord,
    RunConfig,
    RunTrace,
    run_adaptive,
    run_ensemble,
    run_fine_grained,
)
from stabcert.shots import ShotModel, hoeffding_radius, measure_label
from stabcert.syndrome import (
    AffineSupportSpec,
    SyndromeDistribution,
    WalshSpectrum,
    inverse_walsh,
    make_affine_support,
    make_rho_ex,
    pullback_through_gauge,
    sample_dirichlet_uniform,
    walsh,
)

__version__ = "0.1.0"

# The kernels in stabcert.kernels are numpy code; there is no other backend.
KERNEL_BACKEND = "python"

__all__ = [
    "AffineSupportSpec",
    "ArmSpec",
    "ConstraintSet",
    "DisagreementSpectrum",
    "EndpointResult",
    "EnsembleConfig",
    "EnsembleResult",
    "Gauge",
    "GaugeExpectations",
    "InstanceSpec",
    "InvariantViolation",
    "KERNEL_BACKEND",
    "Label",
    "OneGaugeCertificate",
    "PolicyChoice",
    "RoundRecord",
    "RunConfig",
    "RunTrace",
    "ShotModel",
    "SolverError",
    "SyndromeDistribution",
    "WalshSpectrum",
    "XorBasis",
    "add_band",
    "build_exact_constraints",
    "clipped_upper_certificate",
    "confidence_interval",
    "disagreement_spectrum",
    "empirical_upper",
    "epsilon_from_shots",
    "greedy_max_weight_basis",
    "hoeffding_radius",
    "inverse_walsh",
    "kkl_lower",
    "kkl_upper",
    "make_affine_support",
    "make_rho_ex",
    "measure_label",
    "nested_syndrome_witness",
    "one_gauge_certificate",
    "pullback_through_gauge",
    "run_adaptive",
    "run_ensemble",
    "run_fine_grained",
    "sample_dirichlet_uniform",
    "sample_uniform_gauge",
    "select_single_label",
    "select_uniform_gauge",
    "select_witness_gauge",
    "shots_per_generator",
    "solve_endpoints",
    "walsh",
]
