"""Dual-coupled plug-and-play ADMM with spectral homogenization.

Solver library and benchmark harness for linear imaging inverse problems
(sparse-view / limited-angle CT, accelerated MRI) with pluggable denoiser
priors, ablation variants, and whitening / fixed-point diagnostics.
"""

from .fidelity import CgConfig, CgResult, prox_data_consistency
from .grid_core import (
    forward_dft,
    load_grid,
    make_rng,
    save_grid,
    save_pgm,
)
from .metrics import psnr, ssim
from .experiment import (
    ExperimentConfig,
    MetricRow,
    ablate,
    default_config,
    load_config,
    run_experiment,
    sweep_nfe,
)
from .operators import (
    CartesianMask,
    DenseOperator,
    FourierMaskOperator,
    IdentityOperator,
    LinearOperator,
    RadonGeometry,
    RadonOperator,
    dot_test,
    make_cartesian_mask,
    make_limited_angle_geometry,
    make_sparse_view_geometry,
)
from .phantoms import PhantomSpec, flat_disk, make_phantom, mri_phantom, random_ellipses, shepp_logan
from .priors import (
    Denoiser,
    DenoiserError,
    ExternalDenoiser,
    GaussianPriorDenoiser,
    IdentityDenoiser,
    NoiseSchedule,
    TvProxDenoiser,
    tweedie_consistency_check,
)
from .solver import (
    IterationTrace,
    SolverDivergence,
    SolverState,
    VariantSpec,
    certify_fixed_point,
    dual_update,
    initialize,
    run,
)
from .spectral import ShConfig, SpectralReport, estimate_psd, homogenize, naive_inject

__version__ = "0.1.0"
