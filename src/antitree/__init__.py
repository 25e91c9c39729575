"""Anderson models on antitrees with normalized edge weights: a numerical lab.

Effective spectral quantities of the single-site law, antitree and radial
lattice geometry, transfer dynamics with the polar radius read off rescaled
raw solution pairs, harmonic-mean moment checks, spectral estimators and the
dimension-driven phase classifier, plus a reproducible experiment harness
and CLI.
"""

__version__ = "0.1.0"

from .errors import (
    AntitreeError,
    ConfigError,
    DegenerateDenominatorError,
    DistributionError,
    DomainError,
    InsufficientTrialsError,
    InvalidLawError,
    SingularShellError,
    SizeLimitError,
)
from .potentials import (
    EffectiveQuantities,
    Interval,
    IntervalSet,
    PotentialDistribution,
    effective_quantities,
    i_lambda,
    inverse_moment,
    j_lambda,
    sample,
    second_inverse_moment,
)
from .geometry import (
    GrowthLaw,
    ZdShellData,
    load_custom_sizes,
    zd_brute_force,
    zd_hopping,
    zd_shell_counts,
)
from .engine import (
    SubordinacyRecord,
    TrajectoryRecord,
    WeylPoint,
    checkpoints_geometric,
    lyapunov_batch,
    lyapunov_estimate,
    m_function,
    subordinacy_batch,
)
from .harmonic import (
    MomentBounds,
    MomentReport,
    enumerate_moments,
    mc_moments,
    moment_bounds,
)
from .spectral import (
    DecayReport,
    DensityEstimate,
    SpectralClassification,
    classify,
    decay_check,
    density_estimate,
    essential_spectrum,
    free_density_theory,
)
from .streams import seed_stream

__all__ = [name for name in dir() if not name.startswith("_")]
