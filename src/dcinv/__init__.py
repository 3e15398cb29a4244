"""Data-consistent stochastic inversion via optimally weighted EDFs.

The package solves stochastic inverse problems in which a probability
distribution on model parameters must push forward, through a quantity-of-
interest map, to a given observed distribution on the outputs. Instead of
estimating densities it reweights empirical distribution functions: the
weights solve a strictly convex quadratic program whose objective is the
L2 distance between the weighted predicted EDF and the target CDF (or EDF).
A binning step in the data space distributes the optimal cell weights onto
parameter samples without disturbing the conditional structure inside the
pre-image of each cell. A Gaussian-KDE density-ratio method is included as
the comparison baseline.
"""

__version__ = "0.1.0"

from .core import (
    BoxScaler,
    Normalization,
    SampleSet,
    WeightedEdf,
    WeightVector,
    fit_box,
)
from .edf import edf_eval, l1_distance, l2_distance, sup_distance, wedf_eval
from .assembly import QpProblem, assemble_b_empirical, assemble_b_exact, assemble_h, assemble_qp
from .solver import (
    KktReport,
    NonPositiveDefiniteError,
    QpSolution,
    WeightCollapseError,
    solve_isotonic,
    solve_qp,
    verify_kkt,
)
from .binning import (
    AllWeightsFlooredError,
    BinnedSolution,
    KMeansPartition,
    NaiveSolution,
    RegularGridPartition,
    UnreachableCellError,
    classify,
    make_kmeans,
    make_regular_grid,
    pushforward_binned,
    solve_binning,
    solve_naive,
)
from .density import (
    DensitySolution,
    KdeModel,
    density_ratio,
    diagnostic,
    kde_fit,
    rejection_sample,
    solve_density,
    update_probability,
)
from .models import (
    HeatRod,
    UniformBoxSampler,
    draw_pairs,
    heat_rod_observed,
    heat_rod_violation_observed,
    mixture_benchmark_model,
    mixture_benchmark_partition,
    mixture_benchmark_target,
)
from .targets import (
    EmpiricalTarget,
    MixtureOfUniforms,
    NormalTarget,
    UniformTarget,
)
from .io import load_pairs, load_samples, save_samples
from .experiments import (
    ConvergenceResult,
    ConvergenceSpec,
    UntrustworthyBaselineError,
    compare_methods,
    derive_image_region,
    run_convergence,
    write_comparison,
)
