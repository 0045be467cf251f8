"""Thermal coherent states of a single bosonic mode.

The package doubles the mode with a fictitious tilde partner, builds
displaced two-mode squeezed states in a truncated Fock space, and checks
the resulting closed-form phase-space descriptions (characteristic
functions, quasiprobability densities, Gaussian moments) against direct
numerics.  A nondegenerate parametric oscillator with a classical pump
realizes the same states physically, and a small command line interface
sits on top.
"""

from .fockspace import (
    CutoffError,
    DensityMatrix,
    TwoModeState,
    annihilation_matrix,
    coherent_vector,
    creation_matrix,
    embed,
    number_matrix,
    partial_trace,
    reduced_density,
    two_mode_tail_mass,
    vacuum_two_mode,
)
from .tfd_states import (
    DisplacementParams,
    StateKind,
    ThermalParams,
    apply_exp_generator,
    build_state,
    build_trotter_finite,
    default_cutoff,
    displacement_D,
    generator_G,
    improper_displacement,
    improper_eigenvector,
    squeeze_U,
    theta_of_beta,
    xi_operator,
    xi_residual,
)
from .equivalence import (
    EquivalenceResult,
    check_double_vs_round,
    check_trotter_vs_round,
    finite_product_decomposition,
    map_double_to_round,
    map_trotter_to_round,
    mode_means,
    phase_aligned_distance,
    round_form,
    series_limits,
    xi_eigenvalue,
)
from .observables import (
    PhysicalConstants,
    QuadratureMoments,
    cf_full,
    char_function_args,
    chi_signal,
    mean_amplitude_factor,
    quadrature_moments_numeric,
    quadrature_operators,
    uncertainty_product,
)
from .quasiprob import (
    GaussianQP,
    completeness_constant,
    completeness_defect,
    p_rep,
    q_func,
    q_func_numeric,
    wigner,
    wigner_numeric,
)
from .gaussian_oracle import (
    GaussianMoments,
    ReducedGaussian,
    moments_from_cf,
    reduce_to_signal,
    reduced_to_qp,
    symplectic_form,
)
from .opo import (
    OpoParams,
    closed_unitary,
    h_drive,
    h_interaction,
    signal_density,
    sliced_unitary,
)
from .verification import CheckResult, run_all_checks

__version__ = "0.1.0"
