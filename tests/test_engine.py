"""Transfer dynamics: shell entries, polar steps, trajectories, m-function."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from antitree import (
    AntitreeError,
    DegenerateDenominatorError,
    DomainError,
    GrowthLaw,
    InsufficientTrialsError,
    PotentialDistribution,
    PrueferState,
    SingularShellError,
    SizeLimitError,
    TrajectoryRecord,
    effective_quantities,
    harmonic_a,
    i_lambda,
    lyapunov_batch,
    lyapunov_estimate,
    m_function,
    pruefer_step,
    psi_norm_sq,
    seed_stream,
    subordinacy_batch,
    wronskian_drift,
)
import antitree.engine as eng
from antitree.streams import DOMAIN_SUBORDINACY, DOMAIN_TRAJECTORY

import long_double

BERN = PotentialDistribution.bernoulli()
UNIF = PotentialDistribution.uniform()
TRI = PotentialDistribution.triangular()
EFF = effective_quantities(BERN, 2.0, 1.0)


# ---------------------------------------------------------------------------
# shell entries
# ---------------------------------------------------------------------------

def test_harmonic_entry_values():
    assert harmonic_a(2.0, 1.0, [1.0, -1.0]) == pytest.approx(1.5, abs=1e-15)
    assert harmonic_a(2.0, 1.0, [1.0]) == pytest.approx(1.0, abs=1e-15)
    assert harmonic_a(2.0, 0.0, [0.3, -0.7, 0.1]) == pytest.approx(2.0, abs=1e-15)


def test_harmonic_entry_singular_shell():
    # mixed signs with cancelling reciprocals: 1/(0+1) + 1/(0-1) = 0
    with pytest.raises(SingularShellError):
        harmonic_a(0.0, 1.0, [-1.0, 1.0])
    with pytest.raises(DomainError):
        harmonic_a(1.0, 1.0, [1.0, -1.0])  # exact hit E - lam*v = 0


def test_psi_norm_sq_values():
    assert psi_norm_sq(2.0, 1.0, [1.0, -1.0]) == pytest.approx(1.25, abs=1e-12)
    assert psi_norm_sq(2.0, 0.0, [0.5, -0.5]) == pytest.approx(1.0, abs=1e-15)


def test_psi_norm_sq_is_energy_derivative():
    pots = [1.0, -1.0]
    dE = 1e-6
    fd = (harmonic_a(2.0 + dE, 1.0, pots) - harmonic_a(2.0 - dE, 1.0, pots)) / (2 * dE)
    assert psi_norm_sq(2.0, 1.0, pots) == pytest.approx(fd, abs=1e-6)


def test_psi_norm_sq_at_least_one():
    gen = seed_stream(17, 0)
    for _ in range(50):
        pots = gen.uniform(-1, 1, size=7)
        assert psi_norm_sq(2.0, 1.0, pots) >= 1.0


def test_sampled_entries_stay_in_band():
    gen = seed_stream(3, 1)
    E, lam = 2.0, 1.0
    lo, hi = E - lam * BERN.v_plus, E - lam * BERN.v_minus
    for s in (1, 2, 5, 40):
        from antitree.potentials import sample
        pots = sample(BERN, gen, size=s)
        a = harmonic_a(E, lam, pots)
        assert lo - 1e-12 <= a <= hi + 1e-12
        x = (a - EFF.h) / EFF.sin_k
        assert lo / EFF.sin_k - 1e-9 <= x + EFF.h / EFF.sin_k


# ---------------------------------------------------------------------------
# exact shell sampling
# ---------------------------------------------------------------------------

FAIR = np.array([0.5, 0.5])


@pytest.mark.parametrize("s", [1, 63, 64, 65, 200, eng._POP_MAX, eng._POP_MAX + 1])
def test_fair_first_step_draws_the_binomial_law(s):
    from scipy import stats
    trials = 40000
    counts = eng._multinomial_counts(seed_stream(61, s), np.full(trials, s), FAIR)
    assert np.array_equal(counts.sum(axis=1), np.full(trials, s))
    c = counts[:, 0]
    # the stream holds the reference draw: popcounts of ceil(s/64) words per
    # shell, the last masked to s mod 64 bits, or a binomial above _POP_MAX
    ref = seed_stream(61, s)
    if s <= eng._POP_MAX:
        nw = -(-s // 64)
        words = ref.bit_generator.random_raw(trials * nw).reshape(trials, nw)
        words[:, -1] &= np.uint64(2 ** 64 - 1) >> np.uint64(64 * nw - s)
        assert np.array_equal(c, np.bitwise_count(words).sum(axis=1))
    else:
        assert np.array_equal(c, ref.binomial(np.full(trials, s), 0.5))
    # chi-square against the exact pmf, tails pooled into bins expecting >= 5
    expected = trials * stats.binom.pmf(np.arange(s + 1), s, 0.5)
    observed = np.bincount(c, minlength=s + 1).astype(float)
    keep = np.flatnonzero(expected >= 5.0)
    lo, hi = keep[0], keep[-1] + 1
    exp_b, obs_b = expected[lo:hi].copy(), observed[lo:hi].copy()
    exp_b[0] += expected[:lo].sum()
    exp_b[-1] += expected[hi:].sum()
    obs_b[0] += observed[:lo].sum()
    obs_b[-1] += observed[hi:].sum()
    assert stats.chisquare(obs_b, exp_b).pvalue > 1e-3
    assert c.mean() == pytest.approx(s / 2, abs=5.0 * math.sqrt(s / 4 / trials))
    assert c.var() == pytest.approx(s / 4, rel=0.05)


def test_popcount_counts_do_not_wrap():
    # all-ones words: every fair count equals its shell size, 256 included,
    # which a uint8 segment sum would wrap to 0; sizes come unsorted
    class AllOnes:
        class bit_generator:
            @staticmethod
            def random_raw(n):
                return np.full(n, np.uint64(2 ** 64 - 1))

    sizes = seed_stream(5, 0).permutation(np.arange(1, eng._POP_MAX + 1))
    counts = eng._multinomial_counts(AllOnes, sizes, FAIR)
    assert np.array_equal(counts[:, 0], sizes)
    assert np.all(counts[:, 1] == 0)


@pytest.mark.parametrize("probs", [[0.25, 0.5, 0.25], [2.0 / 3.0, 1.0 / 3.0]],
                         ids=["three-atom", "asymmetric"])
def test_unfair_laws_keep_the_binomial_chain(probs):
    probs = np.array(probs)
    sizes = np.array([1, 7, 64, 200, eng._POP_MAX, eng._POP_MAX + 1, 5000] * 50)
    counts = eng._multinomial_counts(seed_stream(8, 1), sizes, probs)
    assert np.array_equal(counts.sum(axis=1), sizes)
    assert np.all(counts >= 0)
    ref = seed_stream(8, 1)
    remaining, rem_p = sizes.copy(), 1.0
    for i, p in enumerate(probs[:-1]):
        step = ref.binomial(remaining, min(1.0, p / rem_p))
        assert np.array_equal(counts[:, i], step)
        remaining, rem_p = remaining - step, rem_p - p


@st.composite
def _discrete_laws(draw):
    a, b, c = (draw(st.floats(0.1, 1.0)) for _ in range(3))
    shape = draw(st.sampled_from(["fair", "two-atom", "fair-three-atom"]))
    if shape == "fair":
        return PotentialDistribution.discrete([(-a, 0.5), (a, 0.5)])
    if shape == "two-atom":
        return PotentialDistribution.discrete([(-a, b / (a + b)), (b, a / (a + b))])
    w = draw(st.floats(0.05, 0.45))
    return PotentialDistribution.discrete([(-2.0 * (b * w + c * (0.5 - w)), 0.5), (b, w),
                                           (c, 0.5 - w)])


@settings(max_examples=20, derandomize=True, deadline=None)
@given(dist=_discrete_laws(),
       pattern=st.lists(st.one_of(st.integers(1, 3 * eng._POP_MAX),
                                  st.sampled_from([eng._POP_MAX - 1, eng._POP_MAX,
                                                   eng._POP_MAX + 1])),
                        min_size=1, max_size=12),
       extra=st.integers(1, 300), split=st.lists(st.booleans(), min_size=4, max_size=4))
def test_shell_draws_ignore_column_grouping_and_direction(dist, pattern, extra, split):
    N = eng.BLOCK + extra
    law = GrowthLaw.from_sizes(np.resize(pattern, N))
    columns = [(2.5, 0, 0), (2.5, 0, 1), (3.0, 2, 0), (2.5, 7, 3)]
    part = [j for j in range(4) if split[j]]
    rest = [j for j in range(4) if not split[j]]

    def blocks(cols, reverse=False):
        return list(eng._shell_blocks(dist, law, 1.0, N, [columns[j] for j in cols], 13, 2,
                                      reverse=reverse, with_w=True))

    whole = blocks(range(4))
    for cols in (part, rest):
        for (n0, n1, A, W), (m0, m1, B, V) in zip(whole, blocks(cols), strict=True):
            assert (n0, n1) == (m0, m1)
            assert np.array_equal(A[:, cols], B) and np.array_equal(W[:, cols], V)
    for (n0, n1, A, W), (m0, m1, B, V) in zip(whole, reversed(blocks(range(4), True)),
                                              strict=True):
        assert (n0, n1) == (m0, m1)
        assert np.array_equal(A, B) and np.array_equal(W, V)


# ---------------------------------------------------------------------------
# determinant invariant
# ---------------------------------------------------------------------------

def test_determinant_drift_long_product():
    assert wronskian_drift(EFF.k, 10 ** 5, seed=2) < 1e-10


# ---------------------------------------------------------------------------
# polar recursion
# ---------------------------------------------------------------------------

def test_pruefer_free_rotation():
    st = PrueferState(theta=0.4)
    nxt = pruefer_step(st, 0.0, EFF.k)
    assert nxt.log_r == pytest.approx(0.0, abs=1e-15)
    assert nxt.theta == pytest.approx(0.4 + EFF.k, abs=1e-12)


def test_pruefer_crossing_angle():
    # theta + k = pi/2: the shear acts on a pure second component
    k = EFF.k
    st = PrueferState(theta=math.pi / 2.0 - k)
    for x in (-0.7, 0.3, 2.0):
        nxt = pruefer_step(st, x, k)
        assert nxt.log_r == pytest.approx(0.5 * math.log1p(x * x), rel=1e-12)


def test_pruefer_branch_window():
    gen = seed_stream(23, 5)
    st = PrueferState(theta=0.1)
    for _ in range(300):
        x = gen.uniform(-2.0, 2.0)
        nxt = pruefer_step(st, x, EFF.k)
        delta = nxt.theta - (st.theta + EFF.k)
        assert -math.pi / 2.0 < delta <= math.pi / 2.0
        st = nxt


def test_pruefer_matches_matrix_product():
    gen = seed_stream(29, 1)
    k = EFF.k
    st = PrueferState(theta=0.3)
    vec = np.array([math.cos(0.3), math.sin(0.3)])
    log_norm = 0.0
    for _ in range(2000):
        x = gen.uniform(-0.5, 0.5)
        st = pruefer_step(st, x, k)
        vec = eng.sheared_rotation(x, k) @ vec
        nv = float(np.linalg.norm(vec))
        log_norm += math.log(nv)
        vec /= nv
    assert st.log_r == pytest.approx(log_norm, abs=1e-9)


def test_conjugation_identity():
    # M T M^{-1} = shear(x) @ rotation(k) with a = h + x sin k
    gen = seed_stream(31, 7)
    for _ in range(25):
        k = gen.uniform(0.2, math.pi - 0.2)
        x = gen.uniform(-3.0, 3.0)
        a = 2.0 * math.cos(k) + x * math.sin(k)
        step = np.array([[a, -1.0], [1.0, 0.0]])
        M = np.array([[1.0, -math.cos(k)], [0.0, math.sin(k)]])
        lhs = M @ step @ np.linalg.inv(M)
        assert np.abs(lhs - eng.sheared_rotation(x, k)).max() < 1e-12


def test_pruefer_rejects_bad_phase():
    with pytest.raises(DomainError):
        pruefer_step(PrueferState(theta=0.0), 0.1, 0.0)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_free_trajectory_is_bounded():
    law = GrowthLaw.uniform_power(1.5, 1.0)
    rec = lyapunov_batch(BERN, law, 1.0, 0.0, 10 ** 4, [0], seed=1)[0]
    k = math.acos(0.5)
    assert np.max(np.abs(rec.log_r)) <= math.log(2.0 / math.sin(k))


def test_batch_kernel_matches_scalar_steps():
    # one trial, kernel trajectory vs explicit polar steps on the same draws
    law = GrowthLaw.uniform_power(1.5, 1.0)
    N = 500
    rec = lyapunov_batch(BERN, law, 2.0, 1.0, N, [0], seed=77, cell=3)[0]
    sizes = law.sizes_block(0, N)
    gen = seed_stream(77, 1, 3, 0, 0)  # domain=1 (trajectories), block 0
    mean1, _ = eng._shell_stats_block(BERN, 2.0, 1.0, sizes, gen)
    st = PrueferState(theta=0.0)
    for m in mean1:
        x = (1.0 / m - EFF.h) / EFF.sin_k
        st = pruefer_step(st, x, EFF.k)
    assert rec.final_log_r == pytest.approx(st.log_r, rel=1e-10)


def _per_shell_reference(A, ck, sk, first):
    """log R after every shell and the window sum over the shells n >= first,
    stepping each column shell by shell in Python floats, rescaled at every
    shell."""
    logs = np.empty(A.shape)
    sums = np.empty(A.shape[1])
    for j in range(A.shape[1]):
        u, p, e = 1.0, 0.0, 0
        terms = []
        for n, a in enumerate(A[:, j].tolist(), 1):
            u, p = a * u - p, u
            ex = math.frexp(max(abs(u), abs(p)))[1]
            u, p, e = math.ldexp(u, -ex), math.ldexp(p, -ex), e + ex
            logs[n - 1, j] = math.log(math.hypot(u - ck * p, sk * p)) + e * eng.LN2
            if n >= first:
                terms.append(math.ldexp(1.0 / (u * u + p * p), -2 * e))
        sums[j] = math.fsum(terms)
    return logs, sums


def _fold_replay_reads(blocks, cols, ck, sk, first):
    """Drive the kernel over ``blocks`` of (entries, stride) for the columns
    ``cols``, reading log R at every shell and the window sum from ``first``."""
    scan = eng._FoldReplay(len(cols), ck)
    logs, total, n0 = [], np.zeros(len(cols)), 0
    for A, stride in blocks:
        L = len(A)
        scan.fold(A[:, cols], stride)
        logs.append(np.empty((L, len(cols))))
        scan.log_radius(np.arange(1, L + 1), ck, sk, logs[-1])
        if n0 + L >= first:
            total += scan.window_sum(max(first - n0, 1))
        n0 += L
    return np.concatenate(logs), total


@settings(max_examples=60, derandomize=True, deadline=None)
@given(amax=st.floats(0.1, 1e4), cap=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
       lengths=st.lists(st.integers(1, 200), min_size=1, max_size=3),
       ncol=st.integers(2, 4), k=st.floats(0.3, math.pi - 0.3),
       where=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1),
       work_chunk=st.sampled_from([1, 7, 64, eng._WORK_CHUNK]))
def test_fold_replay_matches_per_shell_steps(amax, cap, lengths, ncol, k, where, seed,
                                             work_chunk):
    # entries up to 1e4 and the cap give every stride from 1 to 64; blocks of
    # any length, shorter than the stride too, and reads at every shell, so
    # on every segment start and end; small work chunks split the segments
    A = np.random.default_rng(seed).uniform(-amax, amax, (sum(lengths), ncol))
    ends = np.cumsum(lengths)
    blocks = [(A[n1 - L:n1], min(cap, eng._rescale_stride(np.abs(A[n1 - L:n1]).max())))
              for L, n1 in zip(lengths, ends)]
    ck, sk = math.cos(k), math.sin(k)
    first = 1 + int(where * (len(A) - 1))
    with mock.patch.object(eng, "_WORK_CHUNK", work_chunk):
        logs, total = _fold_replay_reads(blocks, list(range(ncol)), ck, sk, first)
        split = ncol // 2
        parts = [_fold_replay_reads(blocks, cols, ck, sk, first)
                 for cols in (list(range(split)), list(range(split, ncol)))]
    ref_logs, ref_total = _per_shell_reference(A, ck, sk, first)
    assert (np.abs(logs - ref_logs) <= 1e-12 * np.maximum(1.0, np.abs(ref_logs))).all()
    # terms below 2^-1022 round differently as subnormals
    assert (np.abs(total - ref_total) <= 1e-12 * ref_total + 1e-300).all()
    for (part_logs, part_total), cols in zip(parts, (slice(0, split), slice(split, ncol))):
        assert np.array_equal(part_logs, logs[:, cols])
        assert np.array_equal(part_total, total[cols])


def test_trajectories_deterministic_and_chunk_invariant():
    law = GrowthLaw.uniform_power(1.5, 1.0)
    full = lyapunov_batch(BERN, law, 2.0, 1.0, 3000, range(6), seed=5)
    again = lyapunov_batch(BERN, law, 2.0, 1.0, 3000, range(6), seed=5)
    first = lyapunov_batch(BERN, law, 2.0, 1.0, 3000, range(3), seed=5)
    second = lyapunov_batch(BERN, law, 2.0, 1.0, 3000, range(3, 6), seed=5)
    for a, b in zip(full, again):
        assert np.array_equal(a.log_r, b.log_r)
    for a, b in zip(full, first + second):
        assert np.array_equal(a.log_r, b.log_r)


def test_continuous_draws_beyond_the_budget_raise_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("potentials were drawn")

    monkeypatch.setattr(eng, "sample", no_draws)
    # about 2.3e10 potentials per trial, 2.4e9 of them in the first block
    with pytest.raises(SizeLimitError):
        lyapunov_batch(UNIF, GrowthLaw.uniform_power(2.5, 1.0), 2.0, 1.0, 2 * 10 ** 4, [0],
                       seed=1)
    # a single shell of 55 draws exceeds a chunk of 16
    monkeypatch.setattr(eng, "_DRAW_CHUNK", 16)
    with pytest.raises(SizeLimitError):
        lyapunov_batch(UNIF, GrowthLaw.uniform_power(1.5, 1.0), 2.0, 1.0, 3000, [0], seed=1)


@pytest.mark.parametrize("dist", [UNIF, TRI], ids=["uniform", "triangular"])
def test_chunked_continuous_draws_are_bit_identical(dist, monkeypatch):
    law = GrowthLaw.uniform_power(1.5, 1.0)
    whole = lyapunov_batch(dist, law, 2.0, 1.0, 3000, range(2), seed=4)
    monkeypatch.setattr(eng, "_DRAW_CHUNK", 100)   # shells reach 55 draws
    chunked = lyapunov_batch(dist, law, 2.0, 1.0, 3000, range(2), seed=4)
    for a, b in zip(whole, chunked, strict=True):
        assert np.array_equal(a.log_r, b.log_r)
        assert (a.a_min, a.a_max) == (b.a_min, b.a_max)


def test_empty_column_sets_give_empty_results():
    law = GrowthLaw.uniform_power(1.5, 1.0)
    assert lyapunov_batch(BERN, law, 2.0, 1.0, 500, [], seed=1) == []
    assert subordinacy_batch(UNIF, law, 2.0, 1.0, 500, [], seed=1) == []
    assert eng.dirichlet_window_average(BERN, 1.0, law, [], 500, 2, 1, 0.01).shape == (0,)


def test_shell_blocks_reverse_is_forward_reversed():
    law = GrowthLaw.uniform_power(1.5, 1.0)
    columns = [(2.0, 0, 0), (2.0, 0, 1), (2.0, 4, 0)]
    blk = eng.BLOCK
    N = 2 * blk + 200
    fwd = list(eng._shell_blocks(BERN, law, 1.0, N, columns, 9, 2, with_w=True))
    bwd = list(eng._shell_blocks(BERN, law, 1.0, N, columns, 9, 2, with_w=True,
                                 reverse=True))
    assert [(n0, n1) for n0, n1, _, _ in fwd] == [(0, blk), (blk, 2 * blk), (2 * blk, N)]
    assert len(bwd) == len(fwd)
    for (n0, n1, A, W), (m0, m1, B, V) in zip(fwd, reversed(bwd)):
        assert (n0, n1) == (m0, m1)
        assert np.array_equal(A, B) and np.array_equal(W, V)
    # lam = 0 draws nothing: the entries are the energies themselves
    for _, _, A, W in eng._shell_blocks(BERN, law, 0.0, N, [(-1.71, 0, 0)], 9, 2,
                                        with_w=True):
        assert np.all(A == -1.71) and np.all(W == 1.0)


def test_entries_of_trajectories_bounded():
    law = GrowthLaw.uniform_power(1.5, 1.0)
    recs = lyapunov_batch(BERN, law, 2.0, 1.0, 2000, range(4), seed=8)
    for r in recs:
        assert r.a_min >= 2.0 - 1.0 - 1e-12
        assert r.a_max <= 2.0 + 1.0 + 1e-12


def test_one_dimensional_growth_has_positive_rate():
    # constant shells: i.i.d. steps, positive growth exists but the harmonic
    # average formula for the rate does not apply (no value asserted)
    law = GrowthLaw.uniform_power(1.0, 1.0)
    recs = lyapunov_batch(BERN, law, 2.0, 1.0, 10 ** 4, range(4), seed=19)
    for r in recs:
        assert r.final_log_r > 0.0


def test_shell_vector_norm_bound():
    # ||psi|| <= (E + lam v_+)/(E - lam v_+) = 3 at E = 2, lam = 1
    gen = seed_stream(47, 0)
    from antitree.potentials import sample
    for s in (1, 3, 10, 50):
        pots = sample(BERN, gen, size=s)
        assert math.sqrt(psi_norm_sq(2.0, 1.0, pots)) <= 3.0 + 1e-12


def test_single_step_polar_matrix_agreement_random_phase():
    gen = seed_stream(53, 0)
    for _ in range(200):
        k = gen.uniform(0.1, math.pi - 0.1)
        theta = gen.uniform(0.0, 2.0 * math.pi)
        x = gen.uniform(-0.5, 0.5)
        st = pruefer_step(PrueferState(theta=theta), x, k)
        vec = eng.sheared_rotation(x, k) @ np.array([math.cos(theta), math.sin(theta)])
        assert st.log_r == pytest.approx(math.log(np.linalg.norm(vec)), abs=1e-12)


def test_summable_inverse_sizes_keep_radius_bounded():
    # at growth dimension 3 the radius stays bounded in N
    law = GrowthLaw.uniform_power(3.0, 1.0)
    small = lyapunov_batch(BERN, law, 2.0, 1.0, 10 ** 3, range(8), seed=13)
    large = lyapunov_batch(BERN, law, 2.0, 1.0, 10 ** 4, range(8), seed=13)
    for r in small + large:
        assert abs(r.final_log_r) < 10.0


def test_lyapunov_estimate_requires_trials():
    rec = TrajectoryRecord(E=2.0, lam=1.0, N=10, trial=0, ns=np.array([10]),
                           sum_inv=np.array([2.0]), log_r=np.array([0.0]))
    assert rec.slope == 0.0
    with pytest.raises(InsufficientTrialsError):
        lyapunov_estimate([rec])
    mean, se = lyapunov_estimate([rec, rec])
    assert mean == 0.0 and se == 0.0


def test_shell_variable_moments_small():
    # s * E(x) -> h^3 s2 / sin k and s * E(x^2) -> h^4 s2 / sin^2 k
    target1 = EFF.h ** 3 * EFF.sigma2_eff / EFF.sin_k
    target2 = EFF.h ** 4 * EFF.sigma2_eff / EFF.sin_k ** 2
    for s in (100, 1000):
        trials = 20000
        gen = seed_stream(41, s)
        mean1, _ = eng._shell_stats_block(BERN, 2.0, 1.0, np.full(trials, float(s)), gen)
        x = (1.0 / mean1 - EFF.h) / EFF.sin_k
        se1 = s * x.std(ddof=1) / math.sqrt(trials)
        se2 = s * (x ** 2).std(ddof=1) / math.sqrt(trials)
        assert s * x.mean() == pytest.approx(target1, abs=4 * se1)
        assert s * (x ** 2).mean() == pytest.approx(target2, abs=4 * se2 + 2.0 / s)


# ---------------------------------------------------------------------------
# subordinacy diagnostics
# ---------------------------------------------------------------------------

def test_free_case_has_no_subordinate_direction():
    law = GrowthLaw.uniform_power(1.5, 1.0)
    rec = subordinacy_batch(BERN, law, 1.0, 0.0, 5000, [0], seed=3)[0]
    assert np.nanmin(np.exp(rec.log_ratio[8:])) > 0.05


def test_weighted_norm_ratio_tracks_twice_gamma():
    law = GrowthLaw.uniform_power(1.5, 1.0)
    recs = subordinacy_batch(BERN, law, 2.0, 1.0, 10 ** 5, range(3), seed=11)
    slopes = [r.final_log_ratio / r.sum_inv[-1] for r in recs]
    assert np.mean(slopes) == pytest.approx(-2.0 * EFF.gamma, rel=0.30)


def test_fixed_angle_grid_floors_while_exact_ratio_descends():
    law = GrowthLaw.uniform_power(1.5, 1.0)
    rec = subordinacy_batch(BERN, law, 2.0, 1.0, 10 ** 5, [0], seed=11)[0]
    assert rec.log_ratio[-1] < -30.0
    assert rec.log_ratio_grid[-1] > -10.0


def test_subordinacy_split_over_trials_is_bit_identical():
    law = GrowthLaw.uniform_power(1.5, 1.0)
    full = subordinacy_batch(BERN, law, 2.0, 1.0, 3000, range(4), seed=6, cell=2)
    split = (subordinacy_batch(BERN, law, 2.0, 1.0, 3000, range(2), seed=6, cell=2)
             + subordinacy_batch(BERN, law, 2.0, 1.0, 3000, range(2, 4), seed=6, cell=2))
    for a, b in zip(full, split, strict=True):
        assert a.trial == b.trial
        for field in ("log_ratio", "log_ratio_grid", "log_sub", "log_dom"):
            assert np.array_equal(getattr(a, field), getattr(b, field), equal_nan=True)


def test_density_split_over_energies_is_bit_identical():
    law = GrowthLaw.uniform_power(1.5, 1.0)
    energies = [2.0, 2.1, 2.2]
    joint = eng.dirichlet_window_average(BERN, 1.0, law, energies, 2000, 3, 4, 0.01,
                                         energy_ids=[7, 8, 9])
    single = [eng.dirichlet_window_average(BERN, 1.0, law, [E], 2000, 3, 4, 0.01,
                                           energy_ids=[i])[0]
              for E, i in zip(energies, [7, 8, 9])]
    assert np.array_equal(joint, single)


SUB_FIELDS = ("log_ratio", "log_ratio_grid", "log_sub", "log_dom")


@pytest.mark.parametrize("E, lam, N", [(2.0, 1.0, 3000), (10.5, 10.0, 20000),
                                       (10000.5, 1e4, 3000)])
def test_subordinacy_stays_finite_where_raw_pairs_grow_fast(E, lam, N):
    # d = 1 keeps every shell a single site, so |a| reaches E + lam and the
    # raw pairs grow by up to a factor 1 + |a| per shell
    law = GrowthLaw.uniform_power(1.0, 1.0)
    for rec in subordinacy_batch(BERN, law, E, lam, N, range(4), seed=7):
        for field in SUB_FIELDS:
            assert np.isfinite(getattr(rec, field)).all(), field


LAWS = {"bernoulli": BERN, "uniform": PotentialDistribution.uniform(),
        "triangular": PotentialDistribution.triangular()}
# continuous laws draw every potential: uniform at d = 2.5 and N = 3000 draws
# about 2*10^8 values per trial, so they stop at d = 1.5
D_MAX = {"bernoulli": 2.5, "uniform": 1.5, "triangular": 1.5}
LAW_AND_D = st.sampled_from(sorted(LAWS)).flatmap(
    lambda name: st.tuples(st.just(name), st.floats(1.0, D_MAX[name])))


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(law_and_d=LAW_AND_D, lam=st.floats(0.05, 1e4),
       where=st.floats(0.01, 0.99), piece=st.integers(0, 1), C=st.floats(0.5, 3.0))
def test_records_are_finite_or_typed_errors_across_the_domain(law_and_d, lam, where, piece,
                                                               C):
    law_name, d = law_and_d
    dist = LAWS[law_name]
    pieces = i_lambda(dist, lam).intervals
    assume(pieces)
    iv = pieces[piece % len(pieces)]
    E = iv.lo + where * (iv.hi - iv.lo)
    law = GrowthLaw.uniform_power(d, C)
    try:
        lyap = lyapunov_batch(dist, law, E, lam, 3000, range(2), seed=3)
        sub = subordinacy_batch(dist, law, E, lam, 3000, range(2), seed=3)
    except AntitreeError:
        return
    for rec in lyap:
        assert np.isfinite(rec.log_r).all()
    for rec in sub:
        for field in SUB_FIELDS:
            assert np.isfinite(getattr(rec, field)).all(), field


@pytest.mark.skipif(not long_double.EXTENDED, reason="needs an extended-precision long double")
@pytest.mark.parametrize("dist", [BERN, UNIF], ids=["bernoulli", "uniform"])
def test_log_ratio_matches_long_double_recomputation(dist):
    # log_ratio + log_dom = log(sum_{k < c} psi_k^2 w_k^2 / (w_0^2 + w_{-1}^2))
    # for the backward solution w; recomputed in extended precision from the
    # same draws, it must agree at every checkpoint, the smallest included
    law = GrowthLaw.uniform_power(1.5, 1.0)
    N, trials = 3000, 2
    recs = subordinacy_batch(dist, law, 2.0, 1.0, N, range(trials), seed=5)
    columns = [(2.0, 0, t) for t in range(trials)]
    A, W = long_double.draws(dist, law, 1.0, N, columns, 5, DOMAIN_SUBORDINACY, with_w=True)
    log_prefix, log_coef = long_double.backward_log_norms(A, W, recs[0].ns)
    for t, rec in enumerate(recs):
        expected = (log_prefix[:, t] - log_coef[t]).astype(np.float64)
        assert np.abs(rec.log_ratio + rec.log_dom - expected).max() <= 1e-13


@pytest.mark.skipif(not long_double.EXTENDED, reason="needs an extended-precision long double")
@pytest.mark.parametrize("E, lam, N", [(-2.004986, 0.1, 10 ** 5), (2.0, 1.0, 2 * 10 ** 5)],
                         ids=["band-edge", "bernoulli-2-1"])
def test_forward_log_radius_matches_long_double_recomputation(E, lam, N):
    # the band-edge cell has sin k = 1.25e-3, where reading R off the raw pair
    # amplifies rounding by about 1/sin k
    law = GrowthLaw.uniform_power(1.5, 1.0)
    trials = 2
    recs = lyapunov_batch(BERN, law, E, lam, N, range(trials), seed=5)
    eff = effective_quantities(BERN, E, lam)
    A = long_double.draws(BERN, law, lam, N, [(E, 0, t) for t in range(trials)], 5,
                          DOMAIN_TRAJECTORY)
    expected = long_double.forward_log_radius(A, math.cos(eff.k), math.sin(eff.k),
                                              recs[0].ns).astype(np.float64)
    for t, rec in enumerate(recs):
        err = np.abs(rec.log_r - expected[:, t])
        assert (err <= 1e-12 * np.maximum(1.0, np.abs(expected[:, t]))).all(), err.max()


def test_gram_ratio_matches_dense_eigensolve_at_small_depth():
    law = GrowthLaw.uniform_power(1.5, 1.0)
    N = 300
    rec = subordinacy_batch(BERN, law, 2.0, 1.0, N, [0], seed=11)[0]
    sizes = law.sizes_block(0, N)
    gen = seed_stream(11, 2, 0, 0, 0)  # domain=2 (subordinacy)
    m1, m2 = eng._shell_stats_block(BERN, 2.0, 1.0, sizes, gen, with_w=True)
    A, W = 1.0 / m1, m2 / (m1 * m1)
    u, up, v, vp = 1.0, 0.0, 0.0, 1.0
    G = np.zeros((2, 2))
    cp = {int(n): i for i, n in enumerate(rec.ns)}
    for i in range(N):
        G += W[i] * np.outer([u, v], [u, v])
        u, up = A[i] * u - up, u
        v, vp = A[i] * v - vp, v
        ci = cp.get(i + 1)
        if ci is not None and i + 1 >= 16:
            lam_max = np.linalg.eigvalsh(G)[1]
            assert rec.log_dom[ci] == pytest.approx(math.log(lam_max), rel=1e-10)


# ---------------------------------------------------------------------------
# truncated m-function
# ---------------------------------------------------------------------------

def test_free_m_function_fixed_point():
    target = (math.sqrt(5.0) - 1.0) / 2.0
    for beta in (0.0, 1.0, -2.5, 17.0):
        w = m_function(1j, 200, beta)
        assert abs(w.m - target * 1j) < 1e-6


def test_m_function_single_shell_truncation():
    z = 2.7 + 0.3j
    w = m_function(z, 0, 0.0)
    assert w.m == pytest.approx(-1.0 / z)


def test_m_function_boundary_limit_density():
    w = m_function(1.0 + 1e-3j, 20000, 0.0)
    assert w.m.imag == pytest.approx(math.sqrt(3.0) / 2.0, rel=0.02)


def test_m_function_is_herglotz_with_randomness():
    law = GrowthLaw.uniform_power(2.0, 1.0)
    for z in (0.5 + 0.2j, -1.0 + 1.0j, 2.2 + 0.01j, 1j):
        for beta in (0.0, 3.0, -1.0):
            w = m_function(z, 300, beta, dist=BERN, lam=1.0, law=law, seed=5)
            assert w.m.imag > 0.0
    # random shells need both a distribution and a seed
    with pytest.raises(DomainError):
        m_function(1j, 10, 0.0, dist=BERN, lam=1.0)
    with pytest.raises(DomainError):
        m_function(1j, 10, 0.0, lam=1.0, seed=5)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(law_name=st.sampled_from(sorted(LAWS)), lam=st.floats(0.0, 10.0),
       re=st.floats(-15.0, 15.0), im=st.floats(0.01, 5.0), beta=st.floats(-10.0, 10.0),
       N=st.integers(1, 2000), d=st.floats(1.0, 2.0))
def test_random_shell_m_function_is_herglotz(law_name, lam, re, im, beta, N, d):
    w = m_function(complex(re, im), N, beta, dist=LAWS[law_name], lam=lam,
                   law=GrowthLaw.uniform_power(d), seed=11)
    assert w.m.imag > 0.0


def test_m_function_degenerate_denominator():
    # at z = 0 the free solution is 4-periodic and u vanishes at odd shells
    with pytest.raises(DegenerateDenominatorError):
        m_function(0.0 + 0.0j, 2, 0.0)
