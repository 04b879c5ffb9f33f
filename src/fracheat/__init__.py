"""fracheat: numerics for the fully fractional heat operator.

Kernel evaluation and bound verification, pointwise operator quadrature,
kernel-convolution solution synthesis with its cylinder decomposition, and
pointwise regularity analysis (deviation profiles, modulus classification,
exponent estimation, jet extraction).
"""

__version__ = "0.1.0"

from .core import (
    FracParams,
    MultiIndex,
    ParabolicCylinder,
    ParabolicPolynomial,
    ScalarField,
    SpaceTimePoint,
    abs_gamma_neg,
    check_slowly_increasing,
    monomial,
    multi_indices,
    normalization_constant,
    parabolic_distance,
)
from .fields import (
    constant,
    exp_symbol,
    gaussian_bump,
    make_field,
    polynomial_field,
    power_cusp,
    time_profile,
)
from .kernel import (
    BoundReport,
    SamplePlan,
    eval_kernel,
    eval_kernel_derivative,
    kernel_mass,
    log_kernel,
    verify_global_bound,
    verify_local_bound,
    verify_translation_bound,
)
from .operator import (
    apply_fractional_laplacian,
    apply_fully_fractional,
    apply_marchaud,
    fractional_laplacian_constant,
    marchaud_constant,
    symbol_oracle,
)
from .quadrature import QuadratureSpec, RestrictedSource, kernel_convolve
from .regularity import (
    JetSequence,
    NuProfile,
    RegularityReport,
    classify_pointwise,
    estimate_exponent,
    exponent_recovery,
    extract_jet,
    fit_polynomial,
    integer_threshold_kind,
    nu_profile,
    reduce_to_g,
    target_exponent,
)
from .synthesis import (
    DecompositionBundle,
    decompose_internal,
    difference_field,
    jet_source,
    make_cutoff,
    s_decay_probe,
    synthesize_solution,
    synthesized_field,
)
