"""Acceptance suite: one test per criterion, at the stated tolerances.

Closed-form identities run in milliseconds; ensemble checks pin the exact
sizes, seeds and tolerances they are specified with.  The d = 2 log-rate fit
is marked slow (tens of millions of shells); deselect with -m "not slow".
A summary line per criterion is printed at the end of the session.
"""

import math

import numpy as np
import pytest

from antitree import (
    GrowthLaw,
    PotentialDistribution,
    classify,
    decay_check,
    density_estimate,
    effective_quantities,
    enumerate_moments,
    free_density_theory,
    i_lambda,
    lyapunov_batch,
    lyapunov_estimate,
    m_function,
    mc_moments,
    moment_bounds,
    seed_stream,
    zd_brute_force,
    zd_hopping,
    zd_shell_counts,
)
from antitree.engine import _shell_blocks, _shell_stats_block
from antitree.harness import normalize_config, run_experiment
from antitree.streams import DOMAIN_TRAJECTORY

from reference import (
    PrueferState,
    harmonic_a,
    pruefer_step,
    psi_norm_sq,
    sheared_rotation,
    wronskian_drift,
)

BERN = PotentialDistribution.bernoulli()
UNI = PotentialDistribution.uniform()
TRI = PotentialDistribution.triangular()
EFF = effective_quantities(BERN, 2.0, 1.0)
GAMMA = 9.0 / 56.0


def test_criterion_01_closed_form_effective_quantities():
    assert effective_quantities(BERN, 2.0, 1.0).h == pytest.approx(1.5, abs=1e-10)
    assert effective_quantities(UNI, 2.0, 1.0).h == pytest.approx(2.0 / math.log(3.0), abs=1e-10)
    window = i_lambda(BERN, 1.0)
    assert window.intervals[1].hi == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-8)
    assert window.intervals[0].lo == pytest.approx(-1.0 - math.sqrt(2.0), abs=1e-8)
    assert i_lambda(TRI, 3.0).is_empty
    assert not i_lambda(TRI, 2.7).is_empty


def test_criterion_02_harmonic_mean_moments():
    exact = enumerate_moments(BERN, 2.0, 1.0, 2)
    bounds = moment_bounds(BERN, 2.0, 1.0, 2)
    assert exact["m1"] == pytest.approx(0.25, abs=1e-12)
    assert exact["m1"] <= bounds.first_upper == pytest.approx(0.375, abs=1e-12)
    assert exact["m2"] == pytest.approx(0.625, abs=1e-12)
    assert bounds.second_lo <= exact["m2"] <= bounds.second_hi
    assert (bounds.second_lo, bounds.second_hi) == (
        pytest.approx(0.125, abs=1e-12), pytest.approx(1.125, abs=1e-12))

    n = 10 ** 4
    rep = mc_moments(BERN, 2.0, 1.0, n, 10 ** 5, seed=2024)
    assert n * rep.m1 == pytest.approx(0.375, abs=3 * n * rep.m1_stderr)
    assert n * rep.m2 == pytest.approx(0.5625, abs=3 * n * rep.m2_stderr)


def test_criterion_03_lyapunov_growth_formula():
    law = GrowthLaw.uniform_power(1.5, 1.0)
    records = lyapunov_batch(BERN, law, 2.0, 1.0, 10 ** 6, range(100), seed=42)
    mean, stderr = lyapunov_estimate(records)
    assert mean == pytest.approx(GAMMA, rel=0.15)
    assert stderr < 0.1 * GAMMA


def test_criterion_04_shell_variable_moments():
    target1 = EFF.h ** 3 * EFF.sigma2_eff / EFF.sin_k          # 0.566946...
    target2 = EFF.h ** 4 * EFF.sigma2_eff / EFF.sin_k ** 2     # 9/7
    assert target1 == pytest.approx(0.566946, abs=1e-6)
    assert target2 == pytest.approx(9.0 / 7.0, abs=1e-12)
    trials = 10 ** 5
    for s in (100, 1000):
        gen = seed_stream(9000, s)
        a, _ = _shell_stats_block(BERN, 2.0, 1.0, np.full(trials, float(s)), gen)
        x = (a - EFF.h) / EFF.sin_k
        se1 = s * x.std(ddof=1) / math.sqrt(trials)
        se2 = s * (x ** 2).std(ddof=1) / math.sqrt(trials)
        # drift of the first moment carries an O(1/s) relative correction
        assert s * x.mean() == pytest.approx(target1, abs=3 * se1 + 3.0 / s)
        assert s * np.mean(x ** 2) == pytest.approx(target2, abs=3 * se2 + 3.0 / s)


def test_criterion_05_free_spectral_density():
    law = GrowthLaw.uniform_power(1.0, 1.0)
    grid = [-1.5, -1.0, 0.0, 1.0, 1.5]
    est = density_estimate(BERN, 0.0, law, grid, 10 ** 4, 16, seed=31, halfwidth=0.02)
    for E, rho in zip(est.energies, est.rho_hat):
        assert rho == pytest.approx(free_density_theory(float(E)), rel=0.02)

    cells = 40
    mids = -2.0 + 4.0 * (np.arange(cells) + 0.5) / cells
    est = density_estimate(BERN, 0.0, law, mids, 10 ** 4, 8, seed=32, halfwidth=0.05)
    mass = float(np.sum(est.rho_hat) * 4.0 / cells)
    assert mass == pytest.approx(1.0, rel=0.03)


def test_criterion_06_free_m_function():
    target = (math.sqrt(5.0) - 1.0) / 2.0 * 1j
    for beta in (0.0, 1.0, -3.0, 12.5):
        w = m_function(1j, 200, beta)
        assert abs(w.m - target) < 1e-6
        assert w.m.imag > 0.0
    for z in (0.4 + 0.3j, 2.0 + 0.05j, -1.2 + 1.0j):
        w = m_function(z, 400, 1.0, dist=BERN, lam=1.0,
                       law=GrowthLaw.uniform_power(2.0, 1.0), seed=606)
        assert w.m.imag > 0.0


def test_criterion_07_lattice_shell_geometry():
    for d in (2, 3, 4):
        for n in range(1, 9):
            assert zd_shell_counts(d, n).by_zero_count == \
                zd_brute_force(d, n).by_zero_count
    assert zd_hopping(2, 2) == pytest.approx(3.0 / math.sqrt(2.0), rel=1e-15)
    assert zd_hopping(2, 3) == pytest.approx(5.0 / math.sqrt(6.0), rel=1e-15)
    for d in (2, 3):
        ns = np.arange(10, 201)
        devs = np.array([abs(zd_hopping(d, int(n)) - d) for n in ns])
        assert np.polyfit(np.log(ns), np.log(devs), 1)[0] <= -1.9
        tails = [sum(abs(zd_hopping(d, n) - d) for n in range(N + 1, 2 * N + 1))
                 for N in (50, 100, 200)]
        assert tails[0] > tails[1] > tails[2]
        assert tails[2] < 1.0 / 200


def test_criterion_08_phase_classifier():
    assert classify(BERN, 1.0, 3.0, 1.0, 2.0).verdict == "ac"
    pp = classify(BERN, 1.0, 1.5, 1.0, 2.0)
    assert pp.verdict == "pp"
    assert pp.decay_constant == pytest.approx(-9.0 / 28.0, abs=1e-12)
    assert classify(BERN, 1.0, 2.0, 1.0, 2.0).verdict == "sc"
    assert classify(BERN, 1.0, 2.0, 1.0, 2.30).verdict == "pp"
    # the verdict is an analytic map: identical on repeated evaluation
    for _ in range(3):
        assert classify(BERN, 1.0, 2.0, 1.0, 2.30).verdict == "pp"


def test_criterion_09_decay_rate_fit():
    rep = decay_check(BERN, 1.0, 1.5, 1.0, 2.0, 10 ** 6, 50, seed=99)
    assert rep.theory == pytest.approx(-9.0 / 28.0, abs=1e-12)
    assert rep.fitted_mean == pytest.approx(-9.0 / 28.0, rel=0.20)


@pytest.mark.slow
def test_criterion_09b_decay_rate_fit_d2_slow():
    E = 2.35
    eff = effective_quantities(BERN, E, 1.0)
    rep = decay_check(BERN, 1.0, 2.0, 1.0, E, 10 ** 7, 16, seed=99)
    assert rep.regressor == "log n"
    assert rep.fitted_mean < 0.0
    assert rep.fitted_mean == pytest.approx(-eff.gamma, rel=0.30)


def test_criterion_10_engine_invariants():
    assert wronskian_drift(EFF.k, 10 ** 7, seed=7) < 1e-9

    gen = seed_stream(1010, 0)
    st = PrueferState(theta=0.3)
    vec = np.array([math.cos(0.3), math.sin(0.3)])
    log_norm = 0.0
    for _ in range(10 ** 4):
        x = gen.uniform(-0.5, 0.5)
        st = pruefer_step(st, x, EFF.k)
        vec = sheared_rotation(x, EFF.k) @ vec
        nv = float(np.linalg.norm(vec))
        log_norm += math.log(nv)
        vec /= nv
    assert st.log_r == pytest.approx(log_norm, abs=1e-8)

    pots = [1.0, -1.0]
    dE = 1e-6
    fd = (harmonic_a(2.0 + dE, 1.0, pots) - harmonic_a(2.0 - dE, 1.0, pots)) / (2 * dE)
    assert psi_norm_sq(2.0, 1.0, pots) == pytest.approx(fd, abs=1e-6)

    # the production forward pass against the polar recursion on its own
    # draws, at every checkpoint of three blocks
    law = GrowthLaw.uniform_power(1.5, 1.0)
    N = 2 * 10 ** 4
    for dist in (BERN, UNI):
        eff = effective_quantities(dist, 2.0, 1.0)
        records = lyapunov_batch(dist, law, 2.0, 1.0, N, [0, 1], seed=5)
        blocks = _shell_blocks(dist, law, 1.0, N, [(2.0, 0, 0), (2.0, 0, 1)], 5,
                               DOMAIN_TRAJECTORY)
        A = np.concatenate([blk[2] for blk in blocks])
        for t, rec in enumerate(records):
            st = PrueferState(theta=0.0)
            log_r = [st.log_r]
            for a in A[:, t].tolist():
                st = pruefer_step(st, (a - eff.h) / eff.sin_k, eff.k)
                log_r.append(st.log_r)
            ref = np.array(log_r)[rec.ns]
            assert np.all(np.abs(rec.log_r - ref) <= 1e-8 * np.maximum(1.0, np.abs(ref)))


def test_criterion_11_reproducibility(tmp_path):
    cfg = normalize_config({
        "experiment": "lyapunov",
        "distribution": {"kind": "bernoulli"},
        "lambda": 1.0,
        "growth": {"d": 1.5, "C": 1.0},
        "energy": {"min": 1.9, "max": 2.1, "steps": 3},
        "N": 2000, "trials": 48, "seed": 42, "output_dir": "r1",
    })
    run_experiment(cfg, threads=1, base_dir=tmp_path)
    run_experiment(dict(cfg, output_dir="r2"), threads=3, base_dir=tmp_path)
    one = (tmp_path / "r1" / "lyapunov.csv").read_bytes()
    many = (tmp_path / "r2" / "lyapunov.csv").read_bytes()
    assert one == many
