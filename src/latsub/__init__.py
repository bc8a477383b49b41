"""Reconstruction of periodic functions from subsampled rank-1 lattice points.

Pipeline: build a hyperbolic-cross frequency set, find a reconstructing
rank-1 lattice for it (exact quadrature, tight frame), randomly subsample
the lattice under a Christoffel-type density down to logarithmic
oversampling, optionally sparsify further to linear oversampling with a
deterministic barrier greedy, and solve the weighted least-squares system
with FFT-accelerated operators.  Every reduction step carries an a
posteriori spectral stability certificate.
"""

from .index_sets import (
    IndexSet,
    embedding_eigenvalues,
    hyperbolic_cross,
    mixed_weight,
    select_largest_eigenvalues,
)
from .lattice import (
    GeneratorSearchError,
    Rank1Lattice,
    SamplePlan,
    is_reconstructing,
    lattice_points,
    residues,
    search_generator,
)
from .fourier import DenseOperator, LatticeOperator, SystemOperator
from .mz import (
    SpectralBounds,
    gram_matrix,
    mz_constants,
    mz_report,
    quadrature_exactness,
)
from .subsampling import (
    DensityWeights,
    SpectralCertificateError,
    SubsampleSelection,
    bss_select_plain,
    bss_select_weighted,
    bss_subsample,
    density_weights,
    kappa,
    plain_bss_subsample,
    random_subsample,
    random_subsample_size,
)
from .solver import SolveDiagnostics, SolverConfig, least_squares, reconstruct
from .testfunctions import (
    KINK_SCALE,
    KinkFunction,
    aliasing_error_sq,
    kink_coeff_1d,
    kink_coefficients,
    kink_eval,
    truncation_error_sq,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    ExperimentRow,
    check_report,
    emit_report,
    error_at_matched_points,
    run_experiment_1,
    run_experiment_2,
)

__version__ = "0.1.0"
