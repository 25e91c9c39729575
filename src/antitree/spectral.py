"""From transfer dynamics to spectral statements.

Three consumers of the engine live here.  The density estimator window-
averages 1/(pi * ||(u_n, u_{n-1})||^2) for the Dirichlet solution, with a
narrow energy mollification because the defining limit is weak in E.  The
almost-sure essential spectrum is the scaled support of the potential law
together with the closure of the energies where the harmonic average stays
in the band, |h| <= 2.  The phase classifier maps (E, lam, d, C) to the
spectral type: absolutely continuous for summable 1/s_n (d > 2), pure point
below dimension two with stretched-exponential eigenvector decay at rate
-gamma/(C(2-d)) in n^(2-d), and at exactly d = 2 singular continuous where
gamma/C <= 1/2 and pure point with log-power decay -gamma/C otherwise.  The
decay-rate checker fits those predictions on backward-propagated subordinate
solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import _mean_stderr, _shell_count, dirichlet_window_average, subordinacy_batch
from .errors import DomainError
from .geometry import GrowthLaw
from .potentials import (
    EDGE_MARGIN,
    Interval,
    IntervalSet,
    PotentialDistribution,
    _band_pieces,
    effective_quantities,
)
from .streams import _whole_count


# ---------------------------------------------------------------------------
# density of states estimate
# ---------------------------------------------------------------------------

DENSITY_MIN_N = 1000   # fewest shells a density estimate averages over [N/2, N]


@dataclass(frozen=True)
class DensityEstimate:
    energies: np.ndarray
    rho_hat: np.ndarray
    n_range: tuple[int, int]
    trials: int

    def __post_init__(self):
        if np.any(np.diff(self.energies) <= 0.0):
            raise DomainError("energy grid must be strictly increasing")
        if np.any(self.rho_hat < 0.0):
            raise DomainError("density estimate went negative")


def free_density_theory(E: float) -> float:
    """Density of the free radial operator: sqrt(4 - E^2) / (2 pi) on [-2, 2]."""
    if abs(E) >= 2.0:
        return 0.0
    return math.sqrt(4.0 - E * E) / (2.0 * math.pi)


def grid_halfwidth(grid) -> float:
    """Default energy mollification: half the smallest spacing of a sorted
    grid, or 0.02 for a single energy."""
    if len(grid) >= 2:
        return 0.5 * float(np.min(np.diff(grid)))
    return 0.02


def density_estimate(dist: PotentialDistribution, lam: float, law: GrowthLaw,
                     grid, N: int, trials: int, seed: int, *,
                     halfwidth: float | None = None) -> DensityEstimate:
    """Cesaro window estimate of the a.c.-candidate density on a grid.

    Averages 1/(pi ||T(n) e_1||^2) over n in [N/2, N], over trials, and over
    per-trial midpoint energy offsets in [-halfwidth, halfwidth].  The
    mollification implements the weak limit; without it the time average has
    a different value on the measure-zero set of resonant phases (e.g. the
    free case at E = +-1).
    """
    grid = np.sort(np.asarray(grid, dtype=np.float64))
    N = _shell_count(N, DENSITY_MIN_N)
    trials = _whole_count(trials, what="trials")
    if halfwidth is None:
        halfwidth = grid_halfwidth(grid)
    vals = dirichlet_window_average(dist, lam, law, grid, N, trials, seed, halfwidth)
    return DensityEstimate(energies=grid, rho_hat=vals / math.pi,
                           n_range=(N // 2, N), trials=trials)


# ---------------------------------------------------------------------------
# essential spectrum
# ---------------------------------------------------------------------------

def essential_spectrum(dist: PotentialDistribution, lam: float) -> IntervalSet:
    """Almost-sure essential spectrum for growth beyond one dimension:
    lam*supp(law) together with the closed band region |h| <= 2."""
    if not (lam > 0.0 and math.isfinite(lam)):
        raise DomainError("essential_spectrum needs a finite lam > 0", reason="lambda")
    margin = 2.0 * EDGE_MARGIN * max(1.0, lam)
    raw: list[tuple[float, float]] = list(dist.support_components(lam))
    raw.extend((iv.lo, iv.hi) for iv in _band_pieces(dist, lam))
    raw.sort()
    merged: list[list[float]] = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1] + margin:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return IntervalSet(tuple(Interval(lo, hi, lo_closed=True, hi_closed=True)
                             for lo, hi in merged))


# ---------------------------------------------------------------------------
# phase classification
# ---------------------------------------------------------------------------

VERDICTS = ("ac", "pp", "sc", "boundary", "outside_I", "open_region")


@dataclass(frozen=True)
class SpectralClassification:
    E: float
    lam: float
    d: float
    C: float
    verdict: str
    gamma: float = math.nan
    decay_kind: str = "none"       # none | stretched | log_power
    decay_constant: float = math.nan


def classify(dist: PotentialDistribution, lam: float, d: float, C: float,
             E: float) -> SpectralClassification:
    """Analytic phase verdict from the rule table; no simulation involved.

    d > 2 (summable 1/s_n): purely a.c. in the window.  1 <= d < 2: pure
    point with stretched decay constant -gamma/(C(2-d)).  d = 2: singular
    continuous for gamma/C <= 1/2 (with the exact tie surfaced as
    ``boundary``), otherwise pure point with log-power -gamma/C.  Energies
    outside the window report outside_I, or open_region inside the scaled
    support hull where the theory is silent.
    """
    if not (d >= 1.0 and C > 0.0 and lam > 0.0 and all(map(math.isfinite, (E, lam, d, C)))):
        raise DomainError("need finite E, d >= 1, C > 0 and lam > 0")
    try:
        eff = effective_quantities(dist, E, lam)
    except DomainError as err:
        verdict = "open_region" if err.reason == "inside_support" else "outside_I"
        return SpectralClassification(E=E, lam=lam, d=d, C=C, verdict=verdict)
    gamma = eff.gamma
    if d > 2.0:
        return SpectralClassification(E=E, lam=lam, d=d, C=C, verdict="ac", gamma=gamma)
    if d < 2.0:
        const = -gamma / (C * (2.0 - d))
        return SpectralClassification(E=E, lam=lam, d=d, C=C, verdict="pp", gamma=gamma,
                                      decay_kind="stretched", decay_constant=const)
    ratio = gamma / C
    if ratio == 0.5:
        return SpectralClassification(E=E, lam=lam, d=d, C=C, verdict="boundary", gamma=gamma)
    if ratio < 0.5:
        return SpectralClassification(E=E, lam=lam, d=d, C=C, verdict="sc", gamma=gamma)
    return SpectralClassification(E=E, lam=lam, d=d, C=C, verdict="pp", gamma=gamma,
                                  decay_kind="log_power", decay_constant=-gamma / C)


# ---------------------------------------------------------------------------
# empirical decay rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayReport:
    E: float
    lam: float
    d: float
    C: float
    N: int
    trials: int
    regressor: str            # "n^(2-d)" or "log n"
    fitted_mean: float
    fitted_stderr: float
    theory: float
    per_trial: np.ndarray
    window: tuple[int, int]


def decay_check(dist: PotentialDistribution, lam: float, d: float, C: float,
                E: float, N: int, trials: int, seed: int) -> DecayReport:
    """Fit the subordinate-solution decay against the classifier prediction.

    Backward-propagated amplitudes are regressed (with intercept) on
    n^(2-d) for d < 2 or on log n at d = 2; the slope estimates the decay
    constant -gamma/(C(2-d)) resp. -gamma/C.  The fit window drops n < 100
    and the contaminated top range where the dominant solution admixture
    exceeds exp(-5).  The slopes' standard error needs trials >= 2.
    """
    if not 1.0 < d <= 2.0:
        raise DomainError("decay fit covers 1 < d <= 2")
    N = _shell_count(N)
    trials = _whole_count(trials, 2, "trials")
    eff = effective_quantities(dist, E, lam)
    law = GrowthLaw.uniform_power(d, C)
    records = subordinacy_batch(dist, law, E, lam, N, range(trials), seed,
                                with_gram=False)
    ns = records[0].ns
    sum_inv = records[0].sum_inv
    if lam == 0.0:
        mask = ns >= 100
    else:
        contamination = 2.0 * eff.gamma * (sum_inv[-1] - sum_inv)
        mask = (ns >= 100) & (contamination >= 5.0)
    if mask.sum() < 8:
        raise DomainError("fit window too small; increase N")
    if d < 2.0:
        x = ns[mask].astype(np.float64) ** (2.0 - d)
        regressor = "n^(2-d)"
        theory = -eff.gamma / (C * (2.0 - d))
    else:
        x = np.log(ns[mask].astype(np.float64))
        regressor = "log n"
        theory = -eff.gamma / C
    design = np.vstack([x, np.ones_like(x)]).T
    Y = np.stack([r.log_sub[mask] for r in records], axis=1)
    coef, *_ = np.linalg.lstsq(design, Y, rcond=None)
    fits = coef[0]
    mean, stderr = _mean_stderr(fits)
    return DecayReport(
        E=E, lam=lam, d=d, C=C, N=N, trials=trials, regressor=regressor,
        fitted_mean=mean, fitted_stderr=stderr, theory=theory,
        per_trial=np.asarray(fits), window=(int(ns[mask][0]), int(ns[mask][-1])),
    )
