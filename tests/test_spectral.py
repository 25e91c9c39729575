"""Density estimates, essential spectrum, phase verdicts and decay fits."""

import math

import numpy as np
import pytest

from antitree import (
    DomainError,
    GrowthLaw,
    PotentialDistribution,
    classify,
    decay_check,
    density_estimate,
    effective_quantities,
    essential_spectrum,
    free_density_theory,
    i_lambda,
)
from antitree.spectral import DensityEstimate

BERN = PotentialDistribution.bernoulli()
UNI = PotentialDistribution.uniform()
TRI = PotentialDistribution.triangular()
HALF_LINE = GrowthLaw.uniform_power(1.0, 1.0)


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_free_density_theory_values():
    assert free_density_theory(0.0) == pytest.approx(1.0 / math.pi)
    assert free_density_theory(1.0) == pytest.approx(math.sqrt(3.0) / (2.0 * math.pi))
    assert free_density_theory(2.5) == 0.0


def test_free_density_window_average():
    est = density_estimate(BERN, 0.0, HALF_LINE, [0.0, 1.0], 4000, 12, seed=3,
                           halfwidth=0.02)
    for E, rho in zip(est.energies, est.rho_hat):
        assert rho == pytest.approx(free_density_theory(float(E)), rel=0.02)


def test_density_positive_and_stable_in_ac_regime():
    # a window mean of one trial spreads widely here: with 4 trials the ratio
    # left (0.5, 2) for 13 of 30 seed pairs, with 64 for none of 100
    law = GrowthLaw.uniform_power(3.0, 1.0)
    a = density_estimate(BERN, 1.0, law, [2.0], 1500, 64, seed=5, halfwidth=0.01)
    b = density_estimate(BERN, 1.0, law, [2.0], 3000, 64, seed=6, halfwidth=0.01)
    assert a.rho_hat[0] > 0.0 and b.rho_hat[0] > 0.0
    assert 0.5 < a.rho_hat[0] / b.rho_hat[0] < 2.0


def test_density_estimate_requires_shells():
    with pytest.raises(DomainError):
        density_estimate(BERN, 0.0, HALF_LINE, [0.0], 100, 4, seed=1)


def test_density_record_validation():
    with pytest.raises(DomainError):
        DensityEstimate(energies=np.array([1.0, 0.5]), rho_hat=np.array([0.1, 0.1]),
                        n_range=(5, 10), trials=1)


# ---------------------------------------------------------------------------
# essential spectrum
# ---------------------------------------------------------------------------

def _component_bounds(iset):
    return [(iv.lo, iv.hi) for iv in iset.intervals]


def test_essential_spectrum_two_point():
    ess = essential_spectrum(BERN, 1.0)
    (l1, r1), (l2, r2) = _component_bounds(ess)
    root = math.sqrt(2.0)
    assert l1 == pytest.approx(-1.0 - root, abs=1e-8)
    assert r1 == pytest.approx(1.0 - root, abs=1e-8)
    assert l2 == pytest.approx(root - 1.0, abs=1e-8)
    assert r2 == pytest.approx(1.0 + root, abs=1e-8)


def test_essential_spectrum_uniform_is_one_interval():
    ess = essential_spectrum(UNI, 1.0)
    assert len(ess.intervals) == 1
    edge = (math.e + 1.0) / (math.e - 1.0)
    assert ess.intervals[0].lo == pytest.approx(-edge, abs=1e-8)
    assert ess.intervals[0].hi == pytest.approx(edge, abs=1e-8)


def test_essential_spectrum_triangular_large_disorder():
    ess = essential_spectrum(TRI, 3.0)
    assert _component_bounds(ess) == [(pytest.approx(-3.0, abs=1e-8),
                                       pytest.approx(3.0, abs=1e-8))]


def test_essential_spectrum_gap_opens_for_two_point():
    ess = essential_spectrum(BERN, 4.0)
    assert len(ess.intervals) == 2
    assert ess.intervals[0].hi < ess.intervals[1].lo


@pytest.mark.parametrize("dist", [BERN, UNI, TRI])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_window_inside_essential_spectrum(dist, lam):
    ess = essential_spectrum(dist, lam)
    for iv in i_lambda(dist, lam).intervals:
        for e in np.linspace(iv.lo + 1e-6, iv.hi - 1e-6, 50):
            assert ess.contains(float(e))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classifier_rule_table():
    assert classify(BERN, 1.0, 3.0, 1.0, 2.0).verdict == "ac"
    pp = classify(BERN, 1.0, 1.5, 1.0, 2.0)
    assert pp.verdict == "pp" and pp.decay_kind == "stretched"
    assert pp.decay_constant == pytest.approx(-9.0 / 28.0, abs=1e-12)
    assert classify(BERN, 1.0, 2.0, 1.0, 2.0).verdict == "sc"
    hard = classify(BERN, 1.0, 2.0, 1.0, 2.30)
    assert hard.verdict == "pp" and hard.decay_kind == "log_power"
    assert hard.decay_constant == pytest.approx(-0.6311977787, abs=1e-9)


def test_classifier_outside_and_open_region():
    assert classify(BERN, 1.0, 2.0, 1.0, 3.0).verdict == "outside_I"
    assert classify(BERN, 1.0, 2.0, 1.0, 0.5).verdict == "open_region"


def test_classifier_boundary_tie():
    gamma = effective_quantities(BERN, 2.0, 1.0).gamma
    assert classify(BERN, 1.0, 2.0, 2.0 * gamma, 2.0).verdict == "boundary"


def test_classifier_total_and_pure():
    verdicts = {"ac", "pp", "sc", "boundary", "outside_I", "open_region"}
    for lam in (0.5, 1.0):
        for d in (1.0, 1.5, 2.0, 2.5, 3.0):
            for E in np.linspace(-3.0, 3.0, 25):
                c1 = classify(BERN, lam, d, 1.0, float(E))
                c2 = classify(BERN, lam, d, 1.0, float(E))
                assert c1.verdict in verdicts
                assert c1 == c2
                if c1.verdict in ("ac", "pp", "sc", "boundary"):
                    assert math.isfinite(c1.gamma)


def test_classifier_rejects_bad_arguments():
    with pytest.raises(DomainError):
        classify(BERN, 1.0, 0.5, 1.0, 2.0)
    with pytest.raises(DomainError):
        classify(BERN, 0.0, 2.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def test_decay_fit_free_case_is_flat():
    rep = decay_check(BERN, 0.0, 1.5, 1.0, 1.0, 30000, 4, seed=2)
    assert abs(rep.fitted_mean) < 0.01
    assert rep.theory == 0.0


def test_decay_fit_small_scale():
    rep = decay_check(BERN, 1.0, 1.5, 1.0, 2.0, 30000, 6, seed=4)
    assert rep.regressor == "n^(2-d)"
    assert rep.theory == pytest.approx(-9.0 / 28.0, abs=1e-12)
    assert rep.fitted_mean == pytest.approx(rep.theory, rel=0.35)


def test_decay_fit_domain():
    with pytest.raises(DomainError):
        decay_check(BERN, 1.0, 3.0, 1.0, 2.0, 1000, 2, seed=1)


def test_weighted_norm_ratio_deep_asymptotics():
    # min/max weighted-norm ratio: log-ratio / sum(1/s) -> -2 gamma; the
    # subordinate side decays like exp(-gamma S) while the dominant side
    # grows like exp(+gamma S)
    from antitree import subordinacy_batch
    eff = effective_quantities(BERN, 2.0, 1.0)
    law = GrowthLaw.uniform_power(1.5, 1.0)
    recs = subordinacy_batch(BERN, law, 2.0, 1.0, 10 ** 6, range(2), seed=77)
    slopes = [r.final_log_ratio / r.sum_inv[-1] for r in recs]
    assert np.mean(slopes) == pytest.approx(-2.0 * eff.gamma, rel=0.20)
