"""Numerical harmonic analysis and convolution factorization on compact groups.

Concrete groups (T^1, T^2, SU(2)) with exact Haar quadratures, the group
Fourier transform for vector-valued functions, Laplace-Beltrami spectral
calculus, weight-function machinery (Young conjugates, decay seminorms), and
strong factorization algorithms: every band-limited f splits as f = g * f'
with explicit multiplier control, uniformly over bounded families, for orbit
vectors of finite representations, and with g compactly supported near the
identity when the weight class is non-quasianalytic.
"""

from .classify import (
    DecayReport,
    decay_seminorm,
    estimate_critical_h,
    fit_weight_from_decay,
    gevrey_order_estimate,
)
from .errors import (
    BandlimitMismatchError,
    ConditioningError,
    CoverageError,
    DomainError,
    EstimationError,
    InsufficientDataError,
    LiefactError,
    ParameterError,
    QuasianalyticError,
    WitnessSearchError,
)
from .factorize import (
    BoundedFactorizationResult,
    FactorizationResult,
    FiniteRep,
    SupportedFactorizationResult,
    VectorFactorizationResult,
    bounded_factorize_set,
    build_partition,
    bump_partition_of_unity,
    default_piece_count,
    factorize_vector,
    gevrey_bump,
    induced_action,
    orbit_map,
    strong_factorize,
    supported_factorize,
)
from .fourier import (
    FourierCoefficients,
    GridFunction,
    compose,
    conv_theorem_defect,
    convolve,
    convolve_by_quadrature,
    evaluate,
    forward,
    inverse,
    involution,
    parseval_defect,
)
from .groups import (
    SU2,
    DualIndex,
    QuadratureGrid,
    Torus,
    enumerate_dual,
    haar_quadrature,
    parse_group_spec,
    weyl_summability,
)
from .signals import (
    heat_coefficients,
    heat_function,
    poisson_coefficients,
    poisson_function,
    random_bandlimited,
    reproducing_kernel,
    synth_coefficients,
)
from .spectral import (
    IteratesDecayReport,
    SeminormReport,
    apply_laplacian,
    iterate_seminorm,
    iterate_supnorms,
    iterates_vs_decay_check,
    laplacian_fd_defect,
)
from .weights import (
    AxiomReport,
    WeightFunction,
    YoungWitness,
    check_weight_axioms,
    eval_weight,
    gevrey_weight,
    log1p_weight,
    parse_weight_spec,
    tabulated_weight,
    young_conjugate,
    young_conjugate_grid,
    young_inequality_witness,
)

__version__ = "0.1.0"
