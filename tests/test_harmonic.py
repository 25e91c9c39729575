"""Harmonic-mean moment envelopes: exact enumeration vs Monte Carlo."""

import itertools
import math

import numpy as np
import pytest

from antitree import (
    DomainError,
    PotentialDistribution,
    SizeLimitError,
    enumerate_moments,
    mc_moments,
    moment_bounds,
)
from antitree.engine import BLOCK, _shell_stats_block
from antitree.harmonic import _harmonic_means, _jackknife
from antitree.streams import DOMAIN_MOMENT, seed_stream

BERN = PotentialDistribution.bernoulli()


def _valid_three_atom():
    # mean-zero three-point law on {-1, 0.2, 0.4}
    return PotentialDistribution.discrete([(-1.0, 3.0 / 14.0), (0.2, 0.5), (0.4, 2.0 / 7.0)])


def test_bounds_two_point_example():
    b = moment_bounds(BERN, 2.0, 1.0, 2)
    assert b.a == 1.0 and b.b == 3.0
    assert b.sigma2 == pytest.approx(1.0 / 9.0, abs=1e-14)
    assert b.first_upper == pytest.approx(0.375, abs=1e-12)
    assert b.second_lo == pytest.approx(0.125, abs=1e-12)
    assert b.second_hi == pytest.approx(1.125, abs=1e-12)
    assert b.first_asym == pytest.approx(0.375, abs=1e-12)
    assert b.second_asym == pytest.approx(0.5625, abs=1e-12)


def test_bounds_vanish_without_disorder():
    b = moment_bounds(BERN, 2.0, 0.0, 5)
    assert b.sigma2 == 0.0
    assert b.first_upper == 0.0 and b.second_hi == 0.0


def test_bounds_negative_side_mirror():
    b = moment_bounds(BERN, -2.0, 1.0, 2)
    assert b.sign == -1.0
    assert b.first_upper == pytest.approx(0.375, abs=1e-12)
    assert b.first_asym == pytest.approx(-0.375, abs=1e-12)  # h < 0 flips the drift


def test_bounds_even_envelope_formula():
    b = moment_bounds(BERN, 2.0, 1.0, 2)
    manual = (math.factorial(4) / (4 * 2)) * (b.h * b.b / b.a) ** 4 / b.n ** 2
    assert b.even_envelope(2) == pytest.approx(manual, rel=1e-14)


def test_bounds_reject_support_region():
    with pytest.raises(DomainError):
        moment_bounds(BERN, 0.5, 1.0, 3)


def test_enumeration_n2_exact():
    out = enumerate_moments(BERN, 2.0, 1.0, 2)
    assert out["h"] == pytest.approx(1.5, abs=1e-14)
    assert out["m1"] == pytest.approx(0.25, abs=1e-13)
    assert out["m2"] == pytest.approx(0.625, abs=1e-13)


def test_enumeration_n1_is_mean_gap():
    # single draw: E(M_1) - h = E(X) - h, positive by convexity
    out = enumerate_moments(BERN, 2.0, 1.0, 1)
    assert out["m1"] == pytest.approx(0.5, abs=1e-14)


def test_enumeration_matches_naive_tuples():
    dist = _valid_three_atom()
    n = 6
    fast = enumerate_moments(dist, 2.0, 1.0, n)
    vals = [2.0 - v for v, _ in dist.atoms]
    probs = [w for _, w in dist.atoms]
    h = fast["h"]
    acc = [0.0, 0.0, 0.0]
    for combo in itertools.product(range(len(vals)), repeat=n):
        weight = math.prod(probs[i] for i in combo)
        m = n / sum(1.0 / vals[i] for i in combo)
        dev = m - h
        acc[0] += weight * dev
        acc[1] += weight * dev ** 2
        acc[2] += weight * dev ** 3
    assert fast["m1"] == pytest.approx(acc[0], rel=1e-11)
    assert fast["m2"] == pytest.approx(acc[1], rel=1e-11)
    assert fast["m3"] == pytest.approx(acc[2], rel=1e-9)


def test_enumeration_guard():
    dist = _valid_three_atom()
    with pytest.raises(SizeLimitError):
        enumerate_moments(dist, 2.0, 1.0, 20)


def test_enumeration_respects_envelopes():
    for n in (1, 2, 4, 8, 12):
        out = enumerate_moments(BERN, 2.0, 1.0, n)
        b = moment_bounds(BERN, 2.0, 1.0, n)
        assert 0.0 < out["m1"] <= b.first_upper + 1e-13
        assert b.second_lo - 1e-13 <= out["m2"] <= b.second_hi + 1e-13


def test_mc_moments_against_enumeration():
    rep = mc_moments(BERN, 2.0, 1.0, 8, 100000, seed=7)
    assert rep.exact is not None
    assert abs(rep.m1 - rep.exact["m1"]) <= 4.0 * rep.m1_stderr
    assert abs(rep.m2 - rep.exact["m2"]) <= 4.0 * rep.m2_stderr
    assert rep.flags["first_moment_positive"]
    assert rep.flags["second_in_envelope"]


def test_mc_moments_three_atom_law():
    dist = _valid_three_atom()
    rep = mc_moments(dist, 2.0, 1.0, 6, 100000, seed=9)
    assert rep.exact is not None
    assert abs(rep.m1 - rep.exact["m1"]) <= 4.0 * rep.m1_stderr
    assert abs(rep.m2 - rep.exact["m2"]) <= 4.0 * rep.m2_stderr


def test_mc_moments_drift_targets():
    n = 1000
    rep = mc_moments(BERN, 2.0, 1.0, n, 50000, seed=21)
    assert n * rep.m1 == pytest.approx(0.375, abs=3 * n * rep.m1_stderr + 2e-3)
    assert n * rep.m2 == pytest.approx(0.5625, abs=3 * n * rep.m2_stderr + 2e-3)


def test_mc_moments_third_moment_scaling():
    # |E((M_n - h)^3)| = O(n^-2): n^2 m3 stays bounded
    vals = []
    for n in (100, 1000):
        rep = mc_moments(BERN, 2.0, 1.0, n, 50000, seed=23)
        vals.append(n * n * abs(rep.m3))
        assert n * n * abs(rep.m3) < 5.0
    assert vals[1] < 10.0 * max(vals[0], 0.3)


def test_mc_moments_fourth_moment_envelope():
    rep_n = 64
    rep = mc_moments(BERN, 2.0, 1.0, rep_n, 50000, seed=29)
    gen_bound = rep.bounds.even_envelope(2)
    # re-estimate the fourth moment from a fresh sample
    from antitree.streams import seed_stream
    from antitree.engine import _multinomial_counts
    gen = seed_stream(31, 0)
    counts = _multinomial_counts(gen, np.full(50000, rep_n, dtype=np.int64),
                                 np.array([0.5, 0.5]))
    rates = np.array([1.0 / 1.0, 1.0 / 3.0])
    m = rep_n / (counts @ rates)
    m4 = np.mean((m - rep.h) ** 4)
    assert m4 <= gen_bound


def test_mc_moments_continuous_law():
    uni = PotentialDistribution.uniform()
    rep = mc_moments(uni, 2.0, 1.0, 100, 5000, seed=33)
    assert rep.flags["first_moment_positive"]
    assert rep.flags["second_in_envelope"]
    assert rep.exact is None


@pytest.mark.parametrize("dist, n",
                         [(BERN, 200), (BERN, 300), (PotentialDistribution.uniform(), 20)],
                         ids=["bernoulli-popcount", "bernoulli-binomial", "uniform"])
def test_blocked_harmonic_means_match_one_draw(dist, n):
    # blocks of at most BLOCK shells continue one stream, so they reproduce
    # the unblocked draw bit for bit
    trials = BLOCK + 3
    a, _ = _shell_stats_block(dist, 2.5, 1.0, np.full(trials, float(n)),
                              seed_stream(9, DOMAIN_MOMENT, n))
    assert np.array_equal(_harmonic_means(dist, 2.5, 1.0, n, trials, 9), a)


def test_mc_requires_enough_trials():
    with pytest.raises(DomainError):
        mc_moments(BERN, 2.0, 1.0, 10, 100, seed=1)


def test_jackknife_tracks_naive_stderr():
    gen = np.random.default_rng(0)
    vals = gen.normal(size=20000)
    mean, se = _jackknife(vals)
    naive = vals.std(ddof=1) / math.sqrt(len(vals))
    assert mean == pytest.approx(vals.mean(), abs=1e-12)
    assert se == pytest.approx(naive, rel=0.2)
