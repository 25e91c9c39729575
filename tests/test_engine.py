"""Transfer dynamics: shell entries, polar steps, trajectories, m-function."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from antitree import (
    AntitreeError,
    DegenerateDenominatorError,
    DomainError,
    GrowthLaw,
    InsufficientTrialsError,
    PotentialDistribution,
    SingularShellError,
    SizeLimitError,
    TrajectoryRecord,
    checkpoints_geometric,
    decay_check,
    density_estimate,
    effective_quantities,
    enumerate_moments,
    i_lambda,
    lyapunov_batch,
    lyapunov_estimate,
    m_function,
    mc_moments,
    moment_bounds,
    seed_stream,
    subordinacy_batch,
)
import antitree.engine as eng
from antitree.streams import (
    DOMAIN_DENSITY,
    DOMAIN_SUBORDINACY,
    DOMAIN_TRAJECTORY,
    DOMAIN_WEYL,
)

import long_double
from reference import (
    PrueferState,
    alias_table_vose,
    block_stream,
    cut_logs_per_segment,
    fair_counts,
    fold_factor,
    fold_segments_per_segment,
    gram_fold_per_segment,
    harmonic_a,
    log_radius_per_hit,
    m_function_per_shell,
    pruefer_step,
    psi_norm_sq,
    segment_maps,
    sheared_rotation,
    shell_blocks_per_column,
    window_sum_two_squares,
    wronskian_drift,
)

BERN = PotentialDistribution.bernoulli()
UNIF = PotentialDistribution.uniform()
TRI = PotentialDistribution.triangular()
UNFAIR = PotentialDistribution.discrete([(-0.5, 0.6), (0.75, 0.4)])
HALVES = PotentialDistribution.discrete([(-0.5, 0.5), (0.5, 0.5)])
EFF = effective_quantities(BERN, 2.0, 1.0)
LAW15 = GrowthLaw.uniform_power(1.5, 1.0)


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


@pytest.mark.parametrize("s", [1, 2, 63, 64, 65, 200, 256, 257, 512, 513, 707, 1000,
                               eng._ALIAS_MAX, eng._ALIAS_MAX + 1])
def test_fair_first_step_draws_the_binomial_law(s):
    from scipy import stats
    trials = 40000
    counts = eng._multinomial_counts(seed_stream(61, s), np.full(trials, s), FAIR)
    assert np.array_equal(counts.sum(axis=1), np.full(trials, s))
    c = counts[:, 0]
    # the stream holds the reference draw: up to _ALIAS_MAX draws one raw
    # word per shell, whose top bits pick a slot of the alias table and
    # whose low bits decide its coin; a binomial above
    ref = seed_stream(61, s)
    if s <= eng._ALIAS_MAX:
        bits, cut, pairs = eng._alias_table(s)
        words = ref.bit_generator.random_raw(trials)
        slot = (words >> np.uint64(64 - bits)).astype(np.int64)
        low = words & np.uint64(2 ** (64 - bits) - 1)
        threshold = cut[slot] - slot.astype(np.uint64) * np.uint64(2 ** (64 - bits))
        assert np.array_equal(c, np.where(low < threshold, pairs[2 * slot], pairs[2 * slot + 1]))
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


@pytest.mark.parametrize("s", range(1, eng._ALIAS_MAX + 1))
def test_alias_table_masses_are_the_binomial_law(s):
    # each count's mass, in units of 2^-64, is the sum of the slot coins that
    # land on it: within one unit of C(s, k) 2^(64 - s), and 2^64 in all
    bits, cut, pairs = eng._alias_table(s)
    unit = 2 ** (64 - bits)
    assert len(cut) == 2 ** bits and len(pairs) == 2 ** (bits + 1)
    mass = [0] * (s + 1)
    for i, (own, alias) in enumerate(pairs.reshape(-1, 2).tolist()):
        threshold = int(cut[i]) - i * unit
        assert 0 <= threshold < unit
        mass[own] += threshold
        mass[alias] += unit - threshold
    assert sum(mass) == 2 ** 64
    for k, m in enumerate(mass):
        assert abs(m * 2 ** s - math.comb(s, k) * 2 ** 64) <= 2 ** s


def _same_table(a, b):
    return a[0] == b[0] and all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
                                for x, y in zip(a[1:], b[1:]))


@pytest.mark.parametrize("order", ["increasing", "shuffled"])
def test_alias_tables_equal_the_vose_reference_for_every_size(order, monkeypatch):
    # the tables from a window of counts, ranked by half and paired in closed
    # form, are byte for byte those of Vose's loop over every count; built in
    # increasing order, as a block's sizes are, the binomials come from the
    # row before by Pascal's rule, and shuffled mostly from math.comb
    sizes = list(range(1, eng._ALIAS_MAX + 1))
    if order == "shuffled":
        sizes = seed_stream(8, 0).permutation(sizes).tolist()
    eng._alias_table.cache_clear()
    monkeypatch.setattr(eng, "_BINOMIAL_ROW", (0, 0, [1]))
    built = {s: eng._alias_table(s) for s in sizes}
    for s in sizes:
        assert _same_table(built[s], alias_table_vose(s)), s
        assert not (built[s][1].flags.writeable or built[s][2].flags.writeable)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(start=st.integers(0, 1100),
       calls=st.lists(st.tuples(st.integers(-20, 12), st.floats(0.0, 1.0)), min_size=1,
                      max_size=12))
def test_binomial_window_is_exact_in_any_call_order(start, calls):
    # from the row formed last (a size up to 8 below, a window starting
    # anywhere) or afresh, every entry is the exact binomial
    s = start
    for step, where in calls:
        s = max(0, s + step)
        k0 = int(where * (s // 2))
        assert eng._binomial_window(s, k0) == [math.comb(s, k) for k in range(k0, s // 2 + 1)]


def test_extreme_words_draw_counts_of_the_shell():
    # all-zero and all-ones words read a table's first and last slots, the
    # latter zero-mass padding for most sizes: both draw counts 0 <= c <= s
    sizes = seed_stream(5, 0).permutation(np.arange(1, eng._ALIAS_MAX + 1))
    for word in (0, 2 ** 64 - 1):
        gen = mock.Mock()
        gen.bit_generator.random_raw = lambda n, word=word: np.full(n, np.uint64(word))
        counts = eng._multinomial_counts(gen, sizes, FAIR)
        assert np.all((counts >= 0) & (counts <= sizes[:, None]))
        assert np.array_equal(counts.sum(axis=1), sizes)


# any size, a power of two, or a size on either side of _ALIAS_MAX
SHELL_SIZE = st.one_of(st.integers(1, eng._ALIAS_MAX),
                       st.sampled_from([2 ** k for k in range(11)]),
                       st.integers(eng._ALIAS_MAX - 8, eng._ALIAS_MAX + 8),
                       st.integers(eng._ALIAS_MAX + 1, 4 * eng._ALIAS_MAX))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(sizes=st.one_of(
    # short unsorted lists, whose fair and binomial shells interleave
    st.lists(SHELL_SIZE, min_size=1, max_size=40),
    # up to 3000 non-decreasing sizes, in long runs of each size
    st.lists(st.tuples(SHELL_SIZE, st.integers(1, 250)), min_size=1, max_size=12).map(
        lambda runs: sorted(s for s, n in runs for _ in range(n)))))
@example(sizes=list(np.repeat(np.arange(1, eng._ALIAS_MAX + 2), 3)))
def test_fair_counts_are_one_word_per_shell_then_the_binomials(sizes):
    # each shell's table is read from its own word, in shell order, whatever
    # the other sizes of the block; the binomials of the larger shells follow
    sizes = np.array(sizes)
    layout = eng._fair_layout(sizes)
    counts = eng._multinomial_counts(seed_stream(17, len(sizes)), sizes, FAIR, layout=layout)
    assert np.array_equal(counts[:, 0], fair_counts(seed_stream(17, len(sizes)), sizes))
    assert np.array_equal(counts.sum(axis=1), sizes)


@pytest.mark.parametrize("probs", [[0.25, 0.5, 0.25], [2.0 / 3.0, 1.0 / 3.0]],
                         ids=["three-atom", "asymmetric"])
def test_unfair_laws_keep_the_binomial_chain(probs):
    probs = np.array(probs)
    sizes = np.array([1, 7, 64, 200, eng._ALIAS_MAX, eng._ALIAS_MAX + 1, 5000] * 50)
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
       pattern=st.lists(st.one_of(st.integers(1, 2 * eng._ALIAS_MAX),
                                  st.sampled_from([eng._ALIAS_MAX - 1, eng._ALIAS_MAX,
                                                   eng._ALIAS_MAX + 1])),
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
        for (n0, n1, A, W, _), (m0, m1, B, V, _) in zip(whole, blocks(cols), strict=True):
            assert (n0, n1) == (m0, m1)
            assert np.array_equal(A[:, cols], B) and np.array_equal(W[:, cols], V)
    for (n0, n1, A, W, _), (m0, m1, B, V, _) in zip(whole, reversed(blocks(range(4), True)),
                                                    strict=True):
        assert (n0, n1) == (m0, m1)
        assert np.array_equal(A, B) and np.array_equal(W, V)


# ---------------------------------------------------------------------------
# determinant invariant
# ---------------------------------------------------------------------------

def test_determinant_drift_long_product():
    assert wronskian_drift(EFF.k, 10 ** 5, seed=2) < 1e-10


@settings(max_examples=40, derandomize=True, deadline=None)
@given(dist=st.sampled_from([BERN, UNIF, TRI]), lam=st.floats(1e-3, 20.0),
       where=st.floats(0.01, 0.99), piece=st.integers(0, 1), d=st.floats(1.5, 2.5),
       blocks=st.integers(0, 2), extra=st.integers(1, eng.BLOCK), centred=st.booleans())
def test_fold_keeps_the_determinant_of_the_fundamental_pair(dist, lam, where, piece, d, blocks,
                                                             extra, centred):
    # the columns seeded (1, 0) and (0, 1) are a fundamental pair: every step
    # has determinant one, so u0 p1 - u1 p0 stays 2^-(exps0 + exps1), up to
    # rounding of the larger of its two products; compared in the pair's own
    # units, it stays finite however far the pair grows.  The centred fold is
    # seeded with the kernel's own c = cos k = h/2
    pieces = i_lambda(dist, lam).intervals
    assume(pieces)
    iv = pieces[piece % len(pieces)]
    E = iv.lo + where * (iv.hi - iv.lo)
    h = effective_quantities(dist, E, lam).h
    law = GrowthLaw.uniform_power(d if dist is BERN else min(d, 1.5), 1.0)
    N = blocks * eng.BLOCK + extra
    scan = eng._FoldReplay(2, 0.5 * h if centred else 0.0)
    scan.u[1], scan.p[1] = 0.0, 1.0
    for _, _, A, _, strides in eng._shell_blocks(dist, law, lam, N, [(E, 0, 0)], 3,
                                                 DOMAIN_TRAJECTORY):
        scan.fold(np.hstack([A, A]), np.hstack([strides, strides]))
    (u0, u1), (p0, p1), e = scan.u, scan.p, int(scan.exps.sum())
    assert abs(u0 * p1 - u1 * p0 - math.ldexp(1.0, -e)) <= 1e-12 * (abs(u0 * p1) + abs(u1 * p0))


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
        vec = sheared_rotation(x, k) @ vec
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
        assert np.abs(lhs - sheared_rotation(x, k)).max() < 1e-12


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
    gen = block_stream(77, DOMAIN_TRAJECTORY, 3, 0, 0)
    entries, _ = eng._shell_stats_block(BERN, 2.0, 1.0, sizes, gen)
    st = PrueferState(theta=0.0)
    for a in entries:
        x = (a - EFF.h) / EFF.sin_k
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
    """Drive the kernel over ``blocks`` of entries for the columns ``cols``,
    reading log R at every shell and the window sum from ``first``."""
    scan = eng._FoldReplay(len(cols), ck)
    logs, total, n0 = [], np.zeros(len(cols)), 0
    for A in blocks:
        L = len(A)
        scan.fold(A[:, cols], eng._column_strides(A[:, cols]))
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
       where=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_fold_replay_matches_per_shell_steps(amax, cap, lengths, ncol, k, where, seed):
    # entries up to 1e4 and the stride cap give every stride from 1 to 64;
    # blocks of any length, shorter than the stride too, and reads at every
    # shell, so on every segment start and end
    A = np.random.default_rng(seed).uniform(-amax, amax, (sum(lengths), ncol))
    ends = np.cumsum(lengths)
    blocks = [A[n1 - L:n1] for L, n1 in zip(lengths, ends)]
    ck, sk = math.cos(k), math.sin(k)
    first = 1 + int(where * (len(A) - 1))
    with mock.patch.object(eng, "_MAX_STRIDE", cap):
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


def _fold_states(A, cols, c, u, p, exps):
    """The start states and exponents of the one group of a fold of the
    columns ``cols`` of A from the state (u, p) * 2^exps, and the state
    after it."""
    scan = eng._FoldReplay(len(cols), c)
    scan.u[:], scan.p[:], scan.exps[:] = u[cols], p[cols], exps[cols]
    scan.fold(A[:, cols], eng._column_strides(A[:, cols]))
    (g,) = scan._groups
    assert np.array_equal(g.cols, np.arange(len(cols)))
    return g.start.copy(), g.start_exp.copy(), (scan.u, scan.p, scan.exps)


def _state_errors(X, E, ref, ref_exp):
    """Largest difference of the states X 2^E from ``ref`` 2^ref_exp, per
    state and column, relative to the larger entry of the reference state."""
    ref = ref.astype(np.result_type(ref, np.longdouble))
    diff = np.abs(np.ldexp(np.longdouble(1), E - ref_exp)[:, None] * X - ref)
    return diff.max(axis=1) / np.abs(ref).max(axis=1)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(amax=st.floats(0.1, 1e4), cap=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
       nseg=st.integers(1, 700), last=st.integers(1, 64), ncol=st.integers(2, 4),
       c=st.floats(-1.0, 1.0) | st.just(0j), seed=st.integers(0, 2 ** 32 - 1))
@example(amax=1e4, cap=64, nseg=700, last=3, ncol=2, c=0.5, seed=0)     # 700 segments of 8
@example(amax=100.0, cap=64, nseg=512, last=16, ncol=3, c=-0.9, seed=1)  # 512 of 16: 9 levels
@example(amax=1e4, cap=64, nseg=600, last=5, ncol=2, c=0j, seed=2)      # 10 levels, complex
@example(amax=3.0, cap=1, nseg=700, last=1, ncol=4, c=0.99, seed=3)     # stride 1
@example(amax=1.0, cap=64, nseg=1, last=30, ncol=2, c=0.3, seed=4)      # one short segment
@example(amax=1.0, cap=64, nseg=2, last=64, ncol=2, c=0j, seed=5)       # one map, no level
def test_state_fold_scan_matches_the_sequential_folds(amax, cap, nseg, last, ncol, c, seed):
    # entries up to 1e4 and the stride cap give every stride from 1 to 64,
    # every column sharing the one of its largest entry amax; the blocks
    # hold up to 700 segments, the last one shorter unless last >= stride.
    # Complex entries fold with c = 0j, as the m-function does.
    rng = np.random.default_rng(seed)
    with mock.patch.object(eng, "_MAX_STRIDE", cap):
        stride = int(eng._rescale_stride(amax))
        nseg = min(nseg, eng.BLOCK // stride)
        L = (nseg - 1) * stride + min(last, stride)
        A = rng.uniform(-amax, amax, (L, ncol))
        if isinstance(c, complex):
            A = np.abs(A) * np.exp(2j * np.pi * rng.uniform(size=A.shape))
        A[0] = amax
        u, p = rng.uniform(-1.0, 1.0, (2, ncol))
        exps = rng.integers(0, 1000, ncol)
        X, E, final = _fold_states(A, list(range(ncol)), c, u, p, exps)
        split = ncol // 2
        parts = [_fold_states(A, cols, c, u, p, exps)
                 for cols in (list(range(split)), list(range(split, ncol)))]
    assert X.shape == (nseg + 1, 2, ncol)
    for got, want in zip(final, (X[-1, 0], X[-1, 1], E[-1])):
        assert np.array_equal(got, want)
    # columns split over two folds give the same bits
    for (Xs, Es, fs), cols in zip(parts, (slice(0, split), slice(split, ncol))):
        assert np.array_equal(Xs, X[:, :, cols]) and np.array_equal(Es, E[:, cols])
        for got, joint in zip(fs, final):
            assert np.array_equal(got, joint[cols])
    # the scan associates the products differently from folding segment by
    # segment; over 400 random draws of this domain it stayed within 124
    # L eps of the per-segment fold of the same maps, and both within 228
    # L eps of the long-double fold
    bound = 512 * L * np.finfo(float).eps
    ref, ref_exp = fold_segments_per_segment(segment_maps(A, stride, c), c, u, p, exps)
    assert (_state_errors(X, E, ref, ref_exp) <= bound).all()
    if long_double.EXTENDED:
        ref, ref_exp = long_double.fold_segments(A, stride, c, u, p, exps)
        assert (_state_errors(X, E, ref, ref_exp) <= bound).all()


def _log_top_eigenvalue(g11, g12, g22):
    return math.log(0.5 * (g11 + g22) + math.hypot(0.5 * (g11 - g22), g12))


def _per_shell_pair_reference(A, W, cuts):
    """Per column, the pairs (u, p) seeded (1, 0) and (v, q) seeded (0, 1)
    stepped shell by shell in Python floats, rescaled together at every shell:
    log hypot(u, p) after every shell, the log of sum W_n u_n^2 (u before
    shell n) over the shells after the previous of the sorted ``cuts`` up to
    each cut, and the log top eigenvalue of sum W_n (u_n, v_n)^T (u_n, v_n)
    after every shell."""
    logs, doms = np.empty(A.shape), np.empty(A.shape)
    sums = np.empty((len(cuts), A.shape[1]))
    at = {int(c): i for i, c in enumerate(cuts)}
    for j in range(A.shape[1]):
        u, p, v, q, e = 1.0, 0.0, 0.0, 1.0, 0
        g = [0.0, 0.0, 0.0]   # the Gram matrix in units 4^e
        terms = []            # the open sum's terms, each with its e
        for n, (a, w) in enumerate(zip(A[:, j].tolist(), W[:, j].tolist()), 1):
            g = [g[0] + w * u * u, g[1] + w * u * v, g[2] + w * v * v]
            terms.append((w * u * u, e))
            u, p, v, q = a * u - p, u, a * v - q, v
            ex = math.frexp(max(abs(u), abs(p), abs(v), abs(q)))[1]
            u, p, v, q = (math.ldexp(x, -ex) for x in (u, p, v, q))
            g = [math.ldexp(x, -2 * ex) for x in g]
            e += ex
            logs[n - 1, j] = math.log(math.hypot(u, p)) + e * eng.LN2
            doms[n - 1, j] = _log_top_eigenvalue(*g) + 2 * e * eng.LN2
            if n in at:
                total = math.fsum(math.ldexp(x, 2 * (te - e)) for x, te in terms)
                sums[at[n], j] = math.log(total) + 2 * e * eng.LN2
                terms = []
    return logs, sums, doms


def _pair_reads(blocks, W, cols, c, cuts):
    """Drive the backward-pass reads (log hypot(u, p) at every shell, sums
    between ``cuts``) and the Gram read (log_dom at every shell) of the
    kernel over ``blocks`` of entries for the columns ``cols``."""
    ncol = len(cols)
    back, pairs = eng._FoldReplay(ncol, c), eng._FoldReplay(2 * ncol, c)
    pairs.u[ncol:], pairs.p[ncol:] = 0.0, 1.0
    acc, acc_exp = np.zeros(ncol), np.zeros(ncol, dtype=np.int64)
    factor, factor_exp = np.zeros((3, ncol)), np.zeros(ncol, dtype=np.int64)
    sums = np.empty((len(cuts), ncol))
    logs, doms, n0 = [], [], 0
    for A in blocks:
        L = len(A)
        Ab, Wb = A[:, cols], W[n0:n0 + L][:, cols]
        shells = np.arange(1, L + 1)
        strides = eng._column_strides(Ab)
        back.fold(Ab, strides)
        logs.append(np.empty((L, ncol)))
        back.log_radius(shells, 0.0, 1.0, logs[-1])
        lo, hi = np.searchsorted(cuts, [n0, n0 + L], side="right")
        back.weighted_sums(Wb, cuts[lo:hi] - n0, acc, acc_exp, sums[lo:hi])
        pairs.fold(np.hstack([Ab, Ab]), np.hstack([strides, strides]))
        doms.append(np.empty((L, ncol)))
        pairs.gram(Wb, shells, factor, factor_exp, doms[-1], np.empty((L, ncol)))
        n0 += L
    return np.concatenate(logs), sums, np.concatenate(doms)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(amax=st.floats(0.1, 1e4), cap=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
       lengths=st.lists(st.integers(1, 200), min_size=1, max_size=3),
       ncol=st.integers(2, 4), k=st.floats(0.3, math.pi - 0.3),
       cut_frac=st.sampled_from([0.02, 0.3, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_fold_replay_pair_reads_match_per_shell_steps(amax, cap, lengths, ncol, k, cut_frac,
                                                      seed):
    # as above, with columns of different scales, hence strides, and blocks
    # of any length; the sums are cut at a random share of the shells
    rng = np.random.default_rng(seed)
    A = rng.uniform(-amax, amax, (sum(lengths), ncol)) * rng.uniform(0.01, 1.0, ncol)
    W = rng.uniform(1.0, 10.0, A.shape)
    cuts = np.flatnonzero(rng.uniform(size=len(A)) < cut_frac) + 1
    ends = np.cumsum(lengths)
    blocks = [A[n1 - L:n1] for L, n1 in zip(lengths, ends)]
    with mock.patch.object(eng, "_MAX_STRIDE", cap):
        reads = _pair_reads(blocks, W, list(range(ncol)), math.cos(k), cuts)
        split = ncol // 2
        parts = [_pair_reads(blocks, W, cols, math.cos(k), cuts)
                 for cols in (list(range(split)), list(range(split, ncol)))]
    for got, ref in zip(reads, _per_shell_pair_reference(A, W, cuts)):
        assert (np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))).all()
    for part, cols in zip(parts, (slice(0, split), slice(split, ncol))):
        for got, joint in zip(part, reads):
            assert np.array_equal(got, joint[:, cols])


# a Cholesky factor (l11 >= 0, l21, l22 >= 0), or a zero column
_FACTOR_ENTRY = st.floats(-2.0 ** 200, 2.0 ** 200)
_FACTOR = st.one_of(st.just((0.0, 0.0, 0.0)),
                    st.tuples(_FACTOR_ENTRY.map(abs) | st.just(0.0), _FACTOR_ENTRY,
                              _FACTOR_ENTRY.map(abs)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(pairs=st.lists(st.tuples(_FACTOR, _FACTOR, st.integers(-60, 60)), min_size=1,
                      max_size=8))
@example(pairs=[((0.0, -0.0, 0.0), (0.0, -0.0, 1.0), 0), ((1.0, -0.0, 0.0), (0.0, 0.0, 0.0), 3)])
def test_fold_factor_matches_two_rank_one_updates(pairs):
    factor, other, exps = zip(*pairs)
    factor, other = (np.array(x, dtype=np.float64).T.copy() for x in (factor, other))
    scale = np.ldexp(1.0, np.array(exps))
    got = eng._fold_factor(factor, other, scale)
    ref = fold_factor(factor, other, scale)
    bits = [np.asarray(x).view(np.int64) for x in (*got, *ref)]
    assert np.array_equal(bits[0], bits[3]) and np.array_equal(bits[2], bits[5])
    # the second update of the reference adds 0 * scale * o22 = +0 to l21,
    # which turns a -0.0 into +0.0; a zero's sign reads only through squares
    assert np.array_equal((got[1] + 0.0).view(np.int64), bits[4])


def _gram_in_units(factor, exp, to, dtype=np.float64):
    """Entries (g11, g12, g22) of L L^T 4^(exp - to) for the factors L
    (3, ...) in units 2^exp, formed in ``dtype``."""
    l11, l21, l22 = np.ldexp(factor.astype(dtype), exp - to)
    return np.array([l11 * l11, l11 * l21, l21 * l21 + l22 * l22])


def _top_eigenvalue(g):
    return 0.5 * (g[0] + g[2]) + np.sqrt((0.5 * (g[0] - g[2])) ** 2 + g[1] * g[1])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(nseg=st.integers(1, 600), h=st.integers(1, 3), gap=st.integers(0, 600),
       zero=st.sampled_from(["none", "running", "all"]), seed=st.integers(0, 2 ** 32 - 1))
@example(nseg=1, h=1, gap=0, zero="all", seed=0)
@example(nseg=600, h=2, gap=600, zero="running", seed=1)
@example(nseg=550, h=3, gap=0, zero="none", seed=2)
def test_fold_scan_matches_the_segment_by_segment_fold(nseg, h, gap, zero, seed):
    # lower factors with entries of 2^-20 .. 2^20 in their units, the
    # segments' exponents rising by up to ``gap`` from one to the next; the
    # running factor, or every factor, all zeros
    rng = np.random.default_rng(seed)
    items = rng.standard_normal((3, nseg + 1, h)) * np.ldexp(1.0, rng.integers(-20, 21,
                                                                               (nseg + 1, h)))
    items[[0, 2]] = np.abs(items[[0, 2]])
    if zero != "none":
        items[:, :1 if zero == "running" else None] = 0.0
    exps = np.cumsum(rng.integers(0, gap + 1, (nseg + 1, h)), axis=0) + rng.integers(-50, 50, h)
    got, got_exp = eng._fold_scan(items.copy(), exps.copy())
    if zero == "all":
        # the reference scales the next factor to a zero running factor's
        # units, by 2^(seg_exp - run_exp), which overflows once the
        # exponents have risen by 1024
        assert not got.any()
        return
    start, start_exp, run, run_exp = gram_fold_per_segment(items[:, 0], exps[0], items[:, 1:],
                                                           exps[1:])
    ref = np.concatenate([start, run[:, None]], axis=1)
    ref_exp = np.vstack([start_exp, run_exp])
    eps = np.finfo(float).eps
    # measured against long-double sums, the segment-by-segment fold drifts
    # by up to 21 eps of the trace over many comparable items and the scan
    # by up to 7, so the two may differ by about their sum
    to = np.maximum(got_exp, ref_exp)
    G, R = _gram_in_units(got, got_exp, to), _gram_in_units(ref, ref_exp, to)
    assert (np.abs(G - R) <= 32 * eps * (R[0] + R[2])).all()
    top = _top_eigenvalue(R)
    assert (np.abs(_top_eigenvalue(G) - top) <= 1e-14 * top).all()
    if long_double.EXTENDED:
        X, to = long_double.gram_prefix_sums(items, exps)
        G = _gram_in_units(got, got_exp, to, np.longdouble)
        assert (np.abs(G - X) <= 8 * eps * (X[0] + X[2])).all()
        top = _top_eigenvalue(X)
        assert (np.abs(_top_eigenvalue(G) - top) <= 2e-15 * top).all()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(nseg=st.integers(1, 600), ng=st.integers(1, 3),
       cuts=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=12),
       gap=st.integers(0, 300), seed=st.integers(0, 2 ** 32 - 1))
@example(nseg=40, ng=2, cuts=[], gap=300, seed=0)                     # no cut in the block
@example(nseg=40, ng=2, cuts=[0.5, 0.51, 0.52, 0.53], gap=200, seed=1)  # cuts in one segment
@example(nseg=40, ng=1, cuts=[0.0, 0.0, 0.99, 0.999], gap=1, seed=2)  # the first and last one
@example(nseg=1, ng=3, cuts=[0.0, 0.0], gap=0, seed=3)
def test_cut_logs_match_the_segment_by_segment_sums(nseg, ng, cuts, gap, seed):
    # positive pieces and tails of 2^-40 .. 2^40 in their segments' units,
    # the exponents rising by up to ``gap`` per segment; a segment with a cut
    # may end on it and hold no tail
    rng = np.random.default_rng(seed)
    cseg = np.sort(np.array(cuts, dtype=float) * nseg).astype(np.int64)

    def terms(n):
        return rng.uniform(1.0, 2.0, (n, ng)) * np.ldexp(1.0, rng.integers(-40, 41, (n, ng)))

    pieces, tails = terms(len(cseg)), terms(nseg)
    tails[cseg[rng.uniform(size=len(cseg)) < 0.3]] = 0.0
    seg_exp = np.cumsum(rng.integers(0, gap + 1, (nseg, ng)), axis=0)
    acc = terms(1)[0] * (rng.uniform() < 0.8)
    acc_exp = seg_exp[0] - rng.integers(0, gap + 1, ng)
    got = eng._cut_logs(pieces, tails, seg_exp, cseg, acc, acc_exp)
    ref = cut_logs_per_segment(pieces, tails, seg_exp, cseg, acc, acc_exp)
    for x, y in zip(got, ref, strict=True):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_fold_replay_scratch_is_bounded_by_the_block():
    # |a| up to 1e4 folds in segments of 8 shells, up to 100 in 16 (512
    # segments, whose scan takes 9 levels): the buffers grow on the first
    # block to 18 values per segment and column (start states 3, work space
    # 15, the scan's two buffers among them), and never again
    ncol = 5
    for amax, stride in [(1e4, 8), (100.0, 16)]:
        rng = np.random.default_rng(4)
        scan = eng._FoldReplay(ncol, 0.3)
        assert int(eng._rescale_stride(amax)) == stride
        buffers = []
        for n in range(6):
            A = rng.uniform(-amax, amax, (eng.BLOCK, ncol))
            scan.fold(A, eng._column_strides(A))
            assert {g.stride for g in scan._groups} == {stride}
            scan.log_radius(np.array([1, 100, eng.BLOCK]), 0.3, 0.9, np.empty((3, ncol)))
            scan.window_sum(eng.BLOCK // 2)
            buffers.append((scan._start, scan._start_exp, scan._work, scan._work_exp))
        nbytes = [sum(buf.nbytes for buf in held) for held in buffers]
        assert nbytes[2] == nbytes[5] <= 18 * 8 * (eng.BLOCK // stride + 1) * ncol
        assert all(a is b for a, b in zip(buffers[0], buffers[5]))   # not reallocated either


def test_mixed_stride_fold_keeps_groups_contiguous():
    # columns of scale 1, 20 and 1e4 fold in segments of 64, 16 and 8 shells;
    # each group's entries are gathered C-contiguous, so the replays' row
    # gathers read contiguous memory
    A = np.random.default_rng(2).uniform(-1.0, 1.0, (300, 6)) * [1, 1e4, 1, 20, 1e4, 1]
    scan = eng._FoldReplay(6)
    scan.fold(A, eng._column_strides(A))
    assert [g.stride for g in scan._groups] == [8, 16, 64]
    assert sorted(np.concatenate([g.cols for g in scan._groups])) == list(range(6))
    for g in scan._groups:
        assert g.A.flags.c_contiguous
        assert np.array_equal(g.A, A[:, g.cols])


def _fold_and_read_both_ways(A, ck, sk, shells, first):
    """The kernel's log R at ``shells`` and window sum from ``first`` after
    one fold of A, and the per-hit, two-square references on the same fold."""
    scan = eng._FoldReplay(A.shape[1], ck)
    scan.fold(A, eng._column_strides(A))
    got, want = (np.full((len(shells), A.shape[1]), np.nan) for _ in range(2))
    scan.log_radius(shells, ck, sk, got)
    log_radius_per_hit(scan, shells, ck, sk, want)
    return (got, scan.window_sum(first)), (want, window_sum_two_squares(scan, first)), scan


def test_reads_equal_the_per_hit_references_bit_for_bit():
    # 300 shells end on a short last segment at every stride; columns of
    # scale 1, 20 and 1e4 fold in groups of 64, 16 and 8 shells; the window
    # starts inside a segment of every group (skip 13, 13 and 5), and the
    # reads fall on segment starts and ends and between them
    A = np.random.default_rng(5).uniform(-1.0, 1.0, (300, 6)) * [1, 1e4, 1, 20, 1e4, 1]
    shells = np.array([1, 2, 8, 9, 16, 17, 63, 64, 65, 150, 256, 257, 299, 300])
    first = 142
    for ck, sk in ((0.3, math.sqrt(1 - 0.09)), (0.0, 1.0)):
        got, want, scan = _fold_and_read_both_ways(A, ck, sk, shells, first)
        assert [g.stride for g in scan._groups] == [8, 16, 64]
        assert all(300 % g.stride and (first - 1) % g.stride for g in scan._groups)
        for x, y in zip(got, want):
            assert x.tobytes() == y.tobytes()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(L=st.integers(1, 700), scales=st.lists(st.sampled_from([0.5, 3.0, 20.0, 1e4]),
                                              min_size=1, max_size=5),
       k=st.floats(0.1, math.pi - 0.1), where=st.floats(0.0, 1.0),
       pick=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_reads_equal_the_per_hit_references_on_any_block(L, scales, k, where, pick, seed):
    # any block length and mix of strides, any starting shell of the window
    # and any set of read shells, the last one always among them
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (L, len(scales))) * scales
    shells = np.flatnonzero(rng.random(L) < pick) + 1
    shells = np.union1d(shells, [L])
    first = 1 + int(where * (L - 1))
    got, want, _ = _fold_and_read_both_ways(A, math.cos(k), math.sin(k), shells, first)
    for x, y in zip(got, want):
        assert x.tobytes() == y.tobytes()


# (dist, law, lam, energies, N, which blocks must take their strides from
# the entries' source, by index; None: every block)
STRIDE_SOURCES = {
    "lam0-real": (BERN, LAW15, 0.0, [0.5, -1.9, 3.0, -40.0, 1e4], 2 * eng.BLOCK + 30, None),
    "lam0-complex": (BERN, LAW15, 0.0, [2.0 + 0.5j, -30.0 + 1.0j, 1e3j], eng.BLOCK + 30, None),
    # block 0's slot table holds a = 3.000000000000001, from a shell of
    # few draws all at v = -1: it keeps measuring, the later blocks do not
    "bernoulli-2-1": (BERN, LAW15, 1.0, [2.0] * 16, 4 * eng.BLOCK + 100, {1, 2, 3, 4}),
    "fair-two-atom": (HALVES, LAW15, 1.0, [1.5] * 16, 3 * eng.BLOCK, {0, 1, 2}),
    "unfair-two-atom": (UNFAIR, LAW15, 1.0, [2.2] * 16, 3 * eng.BLOCK, {0, 1, 2}),
    # entries up to about 20 allow segments of 16 shells only
    "stride-16": (BERN, GrowthLaw.uniform_power(1.0, 1.0), 10.0, [10.5] * 8, 2 * eng.BLOCK,
                  set()),
    "uniform": (UNIF, LAW15, 1.0, [2.0] * 8, 2 * eng.BLOCK, set()),
}


@pytest.mark.parametrize("case", sorted(STRIDE_SOURCES))
def test_block_strides_equal_the_measured_strides(case, monkeypatch):
    """Every block's strides are _column_strides of the block, taken from
    its entries' source where that fixes them and measured elsewhere."""
    dist, law, lam, energies, N, known = STRIDE_SOURCES[case]
    columns = [(E, 0, j) for j, E in enumerate(energies)]
    measure = eng._column_strides
    measured = []
    monkeypatch.setattr(eng, "_column_strides", lambda A: measured.append(len(A)) or measure(A))
    fixed = set()
    for b, (_, _, A, W, strides) in enumerate(eng._shell_blocks(dist, law, lam, N, columns, 3,
                                                                DOMAIN_TRAJECTORY, with_w=True)):
        if not measured:
            fixed.add(b)
            assert not strides.flags.writeable
        measured.clear()
        assert strides.dtype == np.int64
        assert np.array_equal(strides, measure(A))
    assert fixed == (set(range(-(-N // eng.BLOCK))) if known is None else known)


def test_column_strides_runs_only_where_no_source_fixes_the_strides(monkeypatch):
    # a lam = 0 call measures no block; the ensemble shape (100 trials at
    # (E, lam) = (2, 1), N = 50,000) measures block 0 alone; the uniform law
    # and the stride-16 cell measure every block they draw, once
    measured = []
    strides = eng._column_strides
    monkeypatch.setattr(eng, "_column_strides", lambda A: measured.append(len(A)) or strides(A))
    eng.dirichlet_window_average(BERN, 0.0, LAW15, [-1.0, 0.5], 3 * eng.BLOCK, 4, 1, 0.01)
    eng.m_function(0.3 + 0.1j, 3 * eng.BLOCK, 0.0)
    subordinacy_batch(BERN, LAW15, 1.5, 0.0, 2 * eng.BLOCK, range(2), seed=1)
    assert measured == []
    lyapunov_batch(BERN, LAW15, 2.0, 1.0, 50_000, range(100), seed=1)
    assert measured == [eng.BLOCK]
    for dist, law, E, lam in ((UNIF, LAW15, 2.0, 1.0),
                              (BERN, GrowthLaw.uniform_power(1.0, 1.0), 10.5, 10.0)):
        measured.clear()
        lyapunov_batch(dist, law, E, lam, 2 * eng.BLOCK + 5, range(4), seed=1)
        assert measured == [eng.BLOCK, eng.BLOCK, 5]
        measured.clear()
        subordinacy_batch(dist, law, E, lam, eng.BLOCK + 5, range(2), seed=1)
        assert measured == [eng.BLOCK, 5]   # the backward pass reads the held blocks


def test_each_trial_alone_matches_the_joint_call():
    # |a| = |E - lam v| reaches 3.03: columns whose block passes 3 fold in
    # segments of 32 shells, the others of 64
    law = GrowthLaw.uniform_power(1.0, 1.0)
    args = (UNIF, law, -2.03, 1.0, 100)
    (_, _, A, _, _), = eng._shell_blocks(UNIF, law, 1.0, 100, [(-2.03, 0, t) for t in range(32)],
                                         3, DOMAIN_TRAJECTORY)
    assert {int(eng._rescale_stride(x)) for x in np.abs(A).max(axis=0)} == {32, 64}
    joint = lyapunov_batch(*args, range(32), seed=3)
    joint_sub = subordinacy_batch(*args, range(32), seed=3)
    for t in range(32):
        assert np.array_equal(lyapunov_batch(*args, [t], seed=3)[0].log_r, joint[t].log_r)
        alone = subordinacy_batch(*args, [t], seed=3)[0]
        for field in SUB_FIELDS:
            assert np.array_equal(getattr(alone, field), getattr(joint_sub[t], field),
                                  equal_nan=True), field


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


def test_stream_keys_are_whole_numbers():
    # numpy integers and integral floats key the stream of the whole number;
    # a fraction, a negative or a nan is no key rather than a truncated one
    log_r = lyapunov_batch(BERN, LAW15, 2.0, 1.0, 300, [3], seed=1)[0].log_r
    for trials, seed in (([np.int64(3)], np.uint8(1)), ([3.0], 1.0)):
        rec, = lyapunov_batch(BERN, LAW15, 2.0, 1.0, 300, trials, seed=seed)
        assert rec.trial == 3 and np.array_equal(rec.log_r, log_r)
    for trials, seed in (([0.5, 0], 1), ([0], 1.9), ([-1], 1), ([0], -1), ([0], math.nan)):
        with pytest.raises(DomainError) as err:
            lyapunov_batch(BERN, LAW15, 2.0, 1.0, 300, trials, seed=seed)
        assert err.value.reason == "seed"
    # lam = 0 draws nothing, but its records still carry the trial ids
    for driver in (lyapunov_batch, subordinacy_batch):
        with pytest.raises(DomainError) as err:
            driver(BERN, LAW15, 1.3, 0.0, 300, [0.5, 0], seed=1)
        assert err.value.reason == "seed"


def test_seed_stream_is_sfc64_seeded_by_the_seed_sequence_of_its_key():
    for seed, ids in ((0, ()), (7, (1,)), (2 ** 63, (3, 4, 5, 6)), (11, (2, 0, 9, 1))):
        got = seed_stream(seed, *ids)
        ref = np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=seed,
                                                                         spawn_key=ids)))
        assert isinstance(got.bit_generator, np.random.SFC64)
        assert np.array_equal(got.bit_generator.random_raw(257),
                              ref.bit_generator.random_raw(257))
        assert np.array_equal(got.random(16), ref.random(16))


def test_continuous_draws_beyond_the_budget_raise_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("potentials were drawn")

    monkeypatch.setattr(eng, "sample", no_draws)
    # about 2.3e10 potentials per trial, 2.4e9 of them in the first block
    with pytest.raises(SizeLimitError):
        lyapunov_batch(UNIF, GrowthLaw.uniform_power(2.5, 1.0), 2.0, 1.0, 2 * 10 ** 4, [0],
                       seed=1)
    # a single shell of 55 draws exceeds a one-shell bound of 16
    monkeypatch.setattr(eng, "_SHELL_DRAWS", 16)
    with pytest.raises(SizeLimitError):
        lyapunov_batch(UNIF, GrowthLaw.uniform_power(1.5, 1.0), 2.0, 1.0, 3000, [0], seed=1)


@pytest.mark.parametrize("dist", [UNIF, TRI], ids=["uniform", "triangular"])
def test_chunked_continuous_draws_are_bit_identical(dist, monkeypatch):
    columns = [(2.0, 0, t) for t in range(2)]   # the trajectories' own columns
    calls = []
    sample = eng.sample
    monkeypatch.setattr(eng, "sample", lambda *args, **kw: calls.append(1) or sample(*args, **kw))

    def run(law, N):
        calls.clear()
        records = lyapunov_batch(dist, law, 2.0, 1.0, N, range(2), seed=4)
        draws = [(A, W) for _, _, A, W, _ in eng._shell_blocks(dist, law, 1.0, N, columns, 4,
                                                               DOMAIN_TRAJECTORY, with_w=True)]
        return records, draws, len(calls)

    # (law, N, loop chunk): shells of up to 55 draws in chunks of 100 draws
    # or of one shell each; shells of 70,000 and 100,000 draws past the loop
    # chunk, within the one-shell bound, between small ones
    law15 = GrowthLaw.uniform_power(1.5, 1.0)
    for law, N, chunk in [(law15, 3000, 100), (law15, 3000, 16),
                          (GrowthLaw.from_sizes([3, 70_000, 5, 1, 100_000, 9, 2]), 7,
                           eng._DRAW_CHUNK)]:
        # each column's block in one draw
        monkeypatch.setattr(eng, "_DRAW_CHUNK", eng._SHELL_DRAWS)
        whole, whole_draws, whole_calls = run(law, N)
        monkeypatch.setattr(eng, "_DRAW_CHUNK", chunk)
        chunked, chunked_draws, chunked_calls = run(law, N)
        assert chunked_calls > whole_calls
        for a, b in zip(whole, chunked, strict=True):
            assert np.array_equal(a.log_r, b.log_r)
        for (A, W), (B, V) in zip(whole_draws, chunked_draws, strict=True):
            assert np.array_equal(A, B) and np.array_equal(W, V)


def test_empty_column_sets_give_empty_results():
    law = GrowthLaw.uniform_power(1.5, 1.0)
    assert lyapunov_batch(BERN, law, 2.0, 1.0, 500, [], seed=1) == []
    assert subordinacy_batch(UNIF, law, 2.0, 1.0, 500, [], seed=1) == []
    assert eng.dirichlet_window_average(BERN, 1.0, law, [], 500, 2, 1, 0.01).shape == (0,)


def test_each_block_draws_from_its_column_stream_restated(monkeypatch):
    # block b of a column draws from the column's one seed_stream, re-stated
    # to words [4b, 4b + 4) of its seed sequence's state (block_stream), for
    # any N and in either direction; lam = 0 derives no stream at all
    law = GrowthLaw.uniform_power(1.5, 1.0)
    columns = [(2.0, 0, 0), (2.3, 3, 5)]
    keys = []
    stream = eng.seed_stream
    monkeypatch.setattr(eng, "seed_stream", lambda *key: keys.append(key) or stream(*key))
    for N, reverse in ((eng.BLOCK + 1, False), (3 * eng.BLOCK + 50, False),
                       (3 * eng.BLOCK + 50, True)):
        keys.clear()
        for n0, n1, A, _, _ in eng._shell_blocks(BERN, law, 1.0, N, columns, 7, DOMAIN_TRAJECTORY,
                                                 reverse=reverse):
            sizes = law.sizes_block(n0, n1).astype(np.int64)
            for j, (E, cell, trial) in enumerate(columns):
                gen = block_stream(7, DOMAIN_TRAJECTORY, cell, trial, n0 // eng.BLOCK)
                assert A[:, j].tobytes() == eng._shell_stats_block(BERN, E, 1.0, sizes,
                                                                   gen)[0].tobytes()
        assert keys == [(7, DOMAIN_TRAJECTORY, cell, trial) for _, cell, trial in columns]
    keys.clear()
    list(eng._shell_blocks(BERN, law, 0.0, 3 * eng.BLOCK, columns, 7, DOMAIN_TRAJECTORY))
    assert keys == []


def test_shell_blocks_reverse_is_forward_reversed():
    law = GrowthLaw.uniform_power(1.5, 1.0)
    columns = [(2.0, 0, 0), (2.0, 0, 1), (2.0, 4, 0)]
    blk = eng.BLOCK
    N = 2 * blk + 200
    fwd = list(eng._shell_blocks(BERN, law, 1.0, N, columns, 9, 2, with_w=True))
    bwd = list(eng._shell_blocks(BERN, law, 1.0, N, columns, 9, 2, with_w=True,
                                 reverse=True))
    assert [(n0, n1) for n0, n1, _, _, _ in fwd] == [(0, blk), (blk, 2 * blk), (2 * blk, N)]
    assert len(bwd) == len(fwd)
    for (n0, n1, A, W, _), (m0, m1, B, V, _) in zip(fwd, reversed(bwd)):
        assert (n0, n1) == (m0, m1)
        assert np.array_equal(A, B) and np.array_equal(W, V)
    # lam = 0 draws nothing: the entries are the energies themselves
    for _, _, A, W, _ in eng._shell_blocks(BERN, law, 0.0, N, [(-1.71, 0, 0)], 9, 2,
                                           with_w=True):
        assert np.all(A == -1.71) and np.all(W == 1.0)


THREE = PotentialDistribution.discrete([(-0.75, 0.5), (0.5, 0.25), (1.0, 0.25)])
# every size 1 .. _ALIAS_MAX, each eight times in one block: its slot table
# has 572,500 entries, which 71 columns at one energy allow
ALIAS_SIZES = GrowthLaw.from_sizes(np.resize(seed_stream(6, 0).permutation(
    np.arange(1, eng._ALIAS_MAX + 1)), eng.BLOCK))
# (dist, law, N, energies, with_w, reverse, the kinds of entry table that some
# block reads: "entries" by (size, count), "slots" by alias pair);
# 71, 37, 21, 19, 17 and 11 columns are not multiples of the tile
SAMPLER_CASES = {
    "bernoulli-alias": (BERN, LAW15, eng.BLOCK + 808, [2.0] * 37, True, False, {"slots"}),
    "bernoulli-large-shells": (BERN, GrowthLaw.from_sizes(np.resize([600, 700, 513, 1000, 3, 64,
                                                                     1500], 3000)),
                               3000, [2.0] * 21, True, True, {"entries"}),
    "bernoulli-every-alias-size": (BERN, ALIAS_SIZES, eng.BLOCK, [2.0] * 71, True, False,
                                   {"slots"}),
    "fair-every-alias-size": (HALVES, ALIAS_SIZES, eng.BLOCK, [1.5] * 71, False, False, {"slots"}),
    # shells at and either side of _ALIAS_MAX in one block keep the (size,
    # count) rows
    "fair-large-shells": (HALVES, GrowthLaw.from_sizes(np.resize([1024, 1025, 3, 700, 2048, 1],
                                                               1500)),
                          1500, [1.5] * 19, True, False, {"entries"}),
    "unfair-two-atom": (UNFAIR, LAW15, eng.BLOCK + 808, [2.2] * 19, True, True, {"entries"}),
    "three-atom": (THREE, LAW15, 3000, [2.2] * 17, True, False, set()),
    "uniform": (UNIF, LAW15, 3000, [2.0] * 17, True, True, set()),
    "triangular": (TRI, LAW15, 3000, [2.0] * 17, False, False, set()),
    "custom-past-the-table-bound": (BERN, GrowthLaw.from_sizes(np.arange(1, 1201)), 1200,
                                    [2.0] * 3, True, False, set()),
    # the last block's one shell of 9 draws has a 32-entry slot table, more
    # than its 11 columns allow, and a 10-row (size, count) table
    "one-shell-block": (BERN, GrowthLaw.from_sizes(np.resize([5, 7, 9], eng.BLOCK + 1)),
                        eng.BLOCK + 1, [2.3] * 11, True, False, {"slots", "entries"}),
    "per-column-energies": (BERN, LAW15, eng.BLOCK + 808, [2.0 + 0.01 * j for j in range(19)],
                            True, False, {"entries"}),
    # one call's energies are all complex, some of them on the real axis
    "complex-z": (BERN, LAW15, eng.BLOCK + 808,
                  [2.0 + 0.5j] * 5 + [2.0 + 0j, 1.5 + 1.0j, 2.5 + 0j] * 4, True, True,
                  {"slots"}),
    "bernoulli-one-column": (BERN, LAW15, 3000, [2.0], False, False, {"entries"}),
    # sizes that fall and binomial shells between alias ones: the alias
    # counts and the binomials are scattered into the block's shells
    "non-monotone": (BERN, GrowthLaw.from_sizes(np.resize([300, 5, 130, 700, 64, 1100, 65, 1,
                                                           512, 200, 2000], eng.BLOCK + 500)),
                     eng.BLOCK + 500, [2.0] * 13, True, False, {"entries"}),
}


@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
def test_shell_blocks_equal_the_per_column_reference(case, monkeypatch):
    """Entry tables, slot tables and tiled copies leave every bit of A and W
    as the per-column computation gives them."""
    dist, law, N, energies, with_w, reverse, kinds = SAMPLER_CASES[case]
    columns = [(E, j % 5, j) for j, E in enumerate(energies)]
    built = set()
    entry_tables = eng._entry_tables

    def spy(*args):
        out = entry_tables(*args)
        built.update("slots" if t.start is None else "entries" for t in out.values())
        return out

    monkeypatch.setattr(eng, "_entry_tables", spy)
    got = list(eng._shell_blocks(dist, law, 1.0, N, columns, 23, DOMAIN_SUBORDINACY,
                                 reverse=reverse, with_w=with_w))
    want = list(shell_blocks_per_column(dist, law, 1.0, N, columns, 23, DOMAIN_SUBORDINACY,
                                        reverse=reverse, with_w=with_w))
    assert built == kinds
    for (n0, n1, A, W, _), (m0, m1, B, V) in zip(got, want, strict=True):
        assert (n0, n1) == (m0, m1)
        assert A.dtype == B.dtype and A.tobytes() == B.tobytes()
        assert W is V is None or W.tobytes() == V.tobytes()


def test_atom_tables_are_built_once_per_energy(monkeypatch):
    # eight columns at two energies, over two blocks: two tables
    built = []
    atom_tables = eng._atom_tables
    monkeypatch.setattr(eng, "_atom_tables",
                        lambda dist, E, lam: built.append(E) or atom_tables(dist, E, lam))
    columns = [(E, 0, j) for j, E in enumerate([2.0, 1.5] * 4)]
    for _ in eng._shell_blocks(BERN, LAW15, 1.0, eng.BLOCK + 5, columns, 1, DOMAIN_TRAJECTORY):
        pass
    assert built == [2.0, 1.5]


@pytest.mark.parametrize("dist, E", [(BERN, 2.0), (UNFAIR, 2.2), (BERN, 2.0 + 0.5j)],
                         ids=["bernoulli", "unfair-two-atom", "complex-z"])
def test_entries_are_the_inverse_mean_and_the_weight_bit_for_bit(dist, E):
    # a = 1/m1 and w = m2/(m1*m1) on the shell means m = counts @ r / s, the
    # entry table's gathers and the per-shell division alike
    sizes = np.resize([1, 2, 5, 64, 300, 700, 3], 4000).astype(np.int64)
    tables = eng._atom_tables(dist, E, 1.0)
    probs, r1, r2 = tables
    counts = eng._multinomial_counts(seed_stream(19, 0), sizes, probs)
    m1, m2 = counts @ r1 / sizes, counts @ r2 / sizes
    entries = eng._entry_tables(sizes, {E: tables}, {E: len(sizes)}, True)[E]
    for table in (None, entries):
        a, w = eng._shell_stats_block(dist, E, 1.0, sizes, seed_stream(19, 0), with_w=True,
                                      entries=table)
        assert a.tobytes() == (1.0 / m1).tobytes()
        assert w.tobytes() == (m2 / (m1 * m1)).tobytes()


def test_table_path_raises_at_the_same_singular_shell():
    # E = 0 between the atoms +-1: a shell with as many of each has mean zero
    law = GrowthLaw.from_sizes(np.resize([3, 5, 2], eng.BLOCK + 40))
    columns = [(0.0, 0, t) for t in range(6)]
    errors = []
    for blocks in (eng._shell_blocks, shell_blocks_per_column):
        with pytest.raises(SingularShellError) as info:
            for _ in blocks(BERN, law, 1.0, eng.BLOCK + 40, columns, 3, DOMAIN_TRAJECTORY):
                pass
        errors.append((info.value.shell, str(info.value)))
    assert errors[0] == errors[1]


def test_a_shells_entry_does_not_depend_on_the_shell_count():
    # shell 8192 is alone in the last block at N = 8193 and the first of two
    # at N = 8194; a one-row matmul would form it by a dot, which rounds
    # differently from the gemv of longer blocks in 17 of these 64 columns
    law = GrowthLaw.uniform_power(1.5, 1.0)
    columns = [(2.3, 0, t) for t in range(64)]
    entries = [list(eng._shell_blocks(BERN, law, 1.0, N, columns, 7, DOMAIN_TRAJECTORY))[-1][2][0]
               for N in (eng.BLOCK + 1, eng.BLOCK + 2)]
    assert np.array_equal(entries[0], entries[1])


def test_forward_pass_frees_each_block_before_drawing_the_next():
    # four blocks of 64 columns, 4 MiB of entries each: with the folded
    # block released before the next one is drawn the traced peak was
    # 6.8 MiB, and 10.9 MiB while two blocks were resident at each boundary
    law = GrowthLaw.uniform_power(1.5, 1.0)
    T = 64
    tracemalloc.start()
    try:
        lyapunov_batch(BERN, law, 2.0, 1.0, 3 * eng.BLOCK + 100, range(T), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * eng.BLOCK * T * 8


def test_entries_of_trajectories_bounded():
    # a = 1/mean(1/(E - lam v)) over v = +-1 lies within [E - lam, E + lam]
    law = GrowthLaw.uniform_power(1.5, 1.0)
    columns = [(2.0, 0, t) for t in range(4)]
    for _, _, A, _, _ in eng._shell_blocks(BERN, law, 1.0, 2000, columns, 8, DOMAIN_TRAJECTORY):
        assert A.min() >= 2.0 - 1.0 - 1e-12
        assert A.max() <= 2.0 + 1.0 + 1e-12


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
        vec = sheared_rotation(x, k) @ np.array([math.cos(theta), math.sin(theta)])
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
        a, _ = eng._shell_stats_block(BERN, 2.0, 1.0, np.full(trials, float(s)), gen)
        x = (a - EFF.h) / EFF.sin_k
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


@pytest.mark.parametrize("dist", [BERN, UNIF], ids=["bernoulli", "uniform"])
def test_decay_mode_fills_only_the_backward_amplitude(dist, monkeypatch):
    # without the Gram pass, log_sub keeps its bits and the backward pass
    # draws no weights and sums no weighted norms
    args = (dist, LAW15, 2.0, 1.0, eng.BLOCK + 3000, range(3))
    gram = subordinacy_batch(*args, seed=6, cell=1)

    def no_sums(*args, **kwargs):
        raise AssertionError("weighted norms summed without the Gram pass")

    stats = eng._shell_stats_block

    def no_weights(*args, with_w=False, **kwargs):
        assert not with_w, "weights drawn without the Gram pass"
        return stats(*args, with_w=with_w, **kwargs)

    monkeypatch.setattr(eng._FoldReplay, "weighted_sums", no_sums)
    monkeypatch.setattr(eng, "_shell_stats_block", no_weights)
    decay = subordinacy_batch(*args, seed=6, cell=1, with_gram=False)
    for a, b in zip(gram, decay, strict=True):
        assert a.log_sub.tobytes() == b.log_sub.tobytes()
        for field in ("log_ratio", "log_dom", "log_ratio_grid"):
            assert np.isnan(getattr(b, field)).all(), field


def test_held_and_redrawn_blocks_give_identical_records(monkeypatch):
    # three blocks of 2 trials: the forward Gram pass holds none of them for
    # the backward pass, only the last (dropping the first two on the way),
    # or all of them, so the backward pass redraws 3, 2 or 0 blocks
    law = GrowthLaw.uniform_power(1.0, 1.0)
    N = 2 * eng.BLOCK + 500
    one_block = 2 * eng.BLOCK * 2 * 8   # the bytes of a full block's A and W
    stats = eng._shell_stats_block
    calls = []

    def counted(*args, **kwargs):
        calls[-1] += 1
        return stats(*args, **kwargs)

    monkeypatch.setattr(eng, "_shell_stats_block", counted)
    runs = []
    for hold in (0, one_block, eng._HOLD_BYTES):
        monkeypatch.setattr(eng, "_HOLD_BYTES", hold)
        calls.append(0)
        runs.append(subordinacy_batch(BERN, law, 2.0, 1.0, N, range(2), seed=4))
    assert calls == [2 * (3 + 3), 2 * (3 + 2), 2 * 3]   # per trial and block
    for run in runs[1:]:
        for a, b in zip(runs[0], run, strict=True):
            for field in SUB_FIELDS:
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


def test_density_split_over_energies_is_bit_identical():
    # the joint call shares each block's alias layout and each energy's atom
    # tables between its columns
    mixed = GrowthLaw.from_sizes(np.resize([1, 64, 65, eng._ALIAS_MAX, eng._ALIAS_MAX + 1, 600],
                                           2000))   # alias and binomial shells
    three = PotentialDistribution.discrete([(-0.75, 0.5), (0.5, 0.25), (1.0, 0.25)])
    energies = [2.0, 2.1, 2.2]
    for dist, law in [(BERN, LAW15), (BERN, mixed), (three, LAW15), (UNIF, LAW15)]:
        joint = eng.dirichlet_window_average(dist, 1.0, law, energies, 2000, 3, 4, 0.01,
                                             energy_ids=[7, 8, 9])
        single = [eng.dirichlet_window_average(dist, 1.0, law, [E], 2000, 3, 4, 0.01,
                                               energy_ids=[i])[0]
                  for E, i in zip(energies, [7, 8, 9])]
        assert np.array_equal(joint, single), dist.kind


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


# (dist, d, E, lam, N): the paper's point for both law kinds, and the
# large-disorder cell whose raw pairs grow so fast that the rescale stride is 16
LONG_DOUBLE_CELLS = {"bernoulli": (BERN, 1.5, 2.0, 1.0, 3000),
                     "uniform": (UNIF, 1.5, 2.0, 1.0, 3000),
                     "stride-16": (BERN, 1.0, 10.5, 10.0, 1000)}


@pytest.mark.skipif(not long_double.EXTENDED, reason="needs an extended-precision long double")
@pytest.mark.parametrize("cell, relative, seed", [
    ("bernoulli", False, 6), ("uniform", False, 6), ("stride-16", True, 6),
    pytest.param("uniform", False, 9, marks=pytest.mark.xfail(
        strict=True, reason="the kernel misses the bound on the backward sums: 2.6e-13 for "
        "trial 0, against 8.2e-15 for a per-shell float64 loop; over seeds 0-99 the kernel "
        "misses in some cell for 27 seeds and the loop for 10")),
], ids=["bernoulli", "uniform", "stride-16", "uniform-seed-9"])
def test_log_ratio_matches_long_double_recomputation(cell, relative, seed):
    # log_ratio + log_dom = log(sum_{k < c} psi_k^2 w_k^2 / (w_0^2 + w_{-1}^2))
    # for the backward solution w; recomputed in extended precision from the
    # same draws, it must agree at every checkpoint, the smallest included.
    # In the stride-16 cell the two log norms are about 2600 and their
    # difference is of order one, so there the bound is relative to the norms.
    # Seed 6 is the first from 5 on whose draws a per-shell float64 loop,
    # rescaled at every shell, meets these bounds in every cell: at seed 5
    # the uniform cell's trial 1 is so ill-conditioned that the loop misses
    # by 5.8x (and the kernel by 11x).  Seed 9 is the first from 5 on where
    # the loop meets them and the kernel does not.
    dist, d, E, lam, N = LONG_DOUBLE_CELLS[cell]
    law = GrowthLaw.uniform_power(d, 1.0)
    trials = 2
    recs = subordinacy_batch(dist, law, E, lam, N, range(trials), seed=seed)
    columns = [(E, 0, t) for t in range(trials)]
    A, W = long_double.draws(dist, law, lam, N, columns, seed, DOMAIN_SUBORDINACY,
                             with_w=True)
    log_prefix, log_coef = long_double.backward_log_norms(A, W, recs[0].ns)
    for t, rec in enumerate(recs):
        expected = (log_prefix[:, t] - log_coef[t]).astype(np.float64)
        bound = 1e-13 * (np.maximum(1.0, np.abs(log_prefix[:, t])) if relative else 1.0)
        assert (np.abs(rec.log_ratio + rec.log_dom - expected) <= bound).all()


@pytest.mark.skipif(not long_double.EXTENDED, reason="needs an extended-precision long double")
@pytest.mark.parametrize("cell", sorted(LONG_DOUBLE_CELLS))
def test_log_dom_matches_long_double_recomputation(cell):
    dist, d, E, lam, N = LONG_DOUBLE_CELLS[cell]
    law = GrowthLaw.uniform_power(d, 1.0)
    trials = 2
    recs = subordinacy_batch(dist, law, E, lam, N, range(trials), seed=5)
    columns = [(E, 0, t) for t in range(trials)]
    A, W = long_double.draws(dist, law, lam, N, columns, 5, DOMAIN_SUBORDINACY, with_w=True)
    expected = long_double.gram_log_dom(A, W, recs[0].ns).astype(np.float64)
    for t, rec in enumerate(recs):
        err = np.abs(rec.log_dom - expected[:, t])
        assert (err <= 1e-13 * np.maximum(1.0, np.abs(expected[:, t]))).all(), err.max()


@pytest.mark.skipif(not long_double.EXTENDED, reason="needs an extended-precision long double")
@pytest.mark.parametrize("E, lam, N, trials", [
    (-2.004986, 0.1, 10 ** 5, (0, 1)),
    (2.0, 1.0, 2 * 10 ** 5, (0, 1)),
    pytest.param(-2.004986, 0.1, 10 ** 5, (87, 105), marks=pytest.mark.xfail(
        strict=True, reason="the kernel misses the bound at the band edge: 4.4e-12 and "
        "5.6e-12 for these trials, against 1.1e-13 and 2.0e-13 for a per-shell float64 "
        "loop; over trials 0-319 the kernel misses for 17 trials and the loop for 15")),
], ids=["band-edge", "bernoulli-2-1", "band-edge-trials-87-105"])
def test_forward_log_radius_matches_long_double_recomputation(E, lam, N, trials):
    # the band-edge cell has sin k = 1.25e-3, where reading R off the raw pair
    # amplifies rounding by about 1/sin k
    law = GrowthLaw.uniform_power(1.5, 1.0)
    recs = lyapunov_batch(BERN, law, E, lam, N, trials, seed=5)
    eff = effective_quantities(BERN, E, lam)
    A = long_double.draws(BERN, law, lam, N, [(E, 0, t) for t in trials], 5, DOMAIN_TRAJECTORY)
    expected = long_double.forward_log_radius(A, math.cos(eff.k), math.sin(eff.k),
                                              recs[0].ns).astype(np.float64)
    for t, rec in enumerate(recs):
        err = np.abs(rec.log_r - expected[:, t])
        assert (err <= 1e-12 * np.maximum(1.0, np.abs(expected[:, t]))).all(), err.max()


@pytest.mark.skipif(not long_double.EXTENDED, reason="needs an extended-precision long double")
@pytest.mark.xfail(strict=True, reason="the kernel misses the bound on the growing "
                   "solution: 3.1e-12 here, against 2.9e-13 for a per-shell float64 loop; over "
                   "seeds 0-284 the kernel misses for 11 seeds and the loop for 9")
def test_density_window_matches_long_double_recomputation():
    # at the paper's point the solutions grow and the window mean is ~1e-25;
    # a per-shell float64 loop on these draws is 2.9e-13 from its
    # extended-precision recomputation
    law = GrowthLaw.uniform_power(1.5, 1.0)
    E, N, trials, seed, halfwidth = 2.0, 2 * 10 ** 4, 4, 82, 0.025
    got = eng.dirichlet_window_average(BERN, 1.0, law, [E], N, trials, seed, halfwidth)
    offs = halfwidth * ((2.0 * np.arange(trials) + 1.0) / trials - 1.0)
    A = long_double.draws(BERN, law, 1.0, N, [(E + off, 0, t) for t, off in enumerate(offs)],
                          seed, DOMAIN_DENSITY)
    expected = long_double.window_mean(A, trials).astype(np.float64)
    assert abs(got[0] - expected[0]) <= 2e-12 * expected[0]


def test_gram_ratio_matches_dense_eigensolve_at_small_depth():
    law = GrowthLaw.uniform_power(1.5, 1.0)
    N = 300
    rec = subordinacy_batch(BERN, law, 2.0, 1.0, N, [0], seed=11)[0]
    sizes = law.sizes_block(0, N)
    gen = block_stream(11, DOMAIN_SUBORDINACY, 0, 0, 0)
    A, W = eng._shell_stats_block(BERN, 2.0, 1.0, sizes, gen, with_w=True)
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
    # a beta past the rescale bound is brought under it before the fold
    for beta in (0.0, 1.0, -2.5, 17.0, 1e300):
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


@pytest.mark.parametrize("shells", [(None, 0.0, None), (BERN, 1.0, 1.5), (UNIF, 0.7, 1.2)],
                         ids=["free", "bernoulli", "uniform"])
def test_m_function_matches_the_per_shell_loop(shells):
    # z = 5j rescales within about 110 shells, and u and v take their own
    # exponents there; N = 8193 and 20000 cross blocks
    dist, lam, d = shells
    law = None if d is None else GrowthLaw.uniform_power(d)
    for z in (1j, 5j, 1 + 1e-3j, 2.2 + 0.01j, -15 + 5j):
        for N in (0, 1, 110, 8193, 20000):
            for beta in (0.0, -3.0):
                m = m_function(z, N, beta, dist=dist, lam=lam, law=law, seed=7).m
                ref = m_function_per_shell(z, N, beta, dist=dist, lam=lam, law=law, seed=7)
                assert abs(m - ref) <= 1e-12 * abs(ref)


@pytest.mark.skipif(not long_double.EXTENDED, reason="needs an extended-precision long double")
def test_real_axis_m_function_matches_long_double_recomputation():
    # z = 1 lies inside the scaled support [-2, 2]; at d = 1 every shell holds
    # one draw, so the real entries are the m-function's own.  On these draws
    # the kernel is 2.7e-16 from the recomputation and m_function_per_shell
    # 1.3e-13
    law = GrowthLaw.uniform_power(1.0, 1.0)
    z, N, seed = 1.0, 2 * 10 ** 4, 336
    m = m_function(z, N, 0.0, dist=TRI, lam=2.0, law=law, seed=seed).m
    A = long_double.draws(TRI, law, 2.0, N + 1, [(z, 0, 0)], seed, DOMAIN_WEYL)
    expected = float(long_double.m_function(A, 0.0))
    assert abs(m - expected) <= 5e-13 * abs(expected)


@pytest.mark.skipif(not long_double.EXTENDED, reason="needs an extended-precision long double")
def test_real_axis_m_function_misses_no_more_often_than_the_per_shell_loop():
    # the cell above over seeds 0-63, counted rather than picked, so that the
    # test holds when the draws change: the kernel misses 5e-13 on one seed
    # (28, a miss of the loop too), the per-shell complex loop on 22
    law = GrowthLaw.uniform_power(1.0, 1.0)
    z, N = 1.0, 2 * 10 ** 4
    misses = {"kernel": 0, "loop": 0}
    for seed in range(64):
        A = long_double.draws(TRI, law, 2.0, N + 1, [(z, 0, 0)], seed, DOMAIN_WEYL)
        expected = float(long_double.m_function(A, 0.0))
        for name, m in (
                ("kernel", m_function(z, N, 0.0, dist=TRI, lam=2.0, law=law, seed=seed).m),
                ("loop", m_function_per_shell(z, N, 0.0, dist=TRI, lam=2.0, law=law, seed=seed))):
            misses[name] += abs(m - expected) > 5e-13 * abs(expected)
    assert misses["kernel"] <= misses["loop"]


# counts that are not numbers, or too large for a float, are typed errors too
NOT_COUNTS = ["10", None, [3], pytest.param(10 ** 400, id="10**400")]


@pytest.mark.parametrize("N", [-1, -5, 10.5, *NOT_COUNTS])
def test_m_function_needs_a_whole_shell_count(N):
    with pytest.raises(DomainError):
        m_function(1j, N, 2.0)
    with pytest.raises(DomainError):
        m_function(1j, N, 0.0, dist=BERN, lam=1.0, seed=5)


SHELL_COUNT_DRIVERS = {
    "lyapunov": lambda N: lyapunov_batch(BERN, LAW15, 2.0, 1.0, N, [0, 1], seed=1),
    "subordinacy": lambda N: subordinacy_batch(BERN, LAW15, 2.0, 1.0, N, [0], seed=1),
    "window": lambda N: eng.dirichlet_window_average(BERN, 1.0, LAW15, [2.0], N, 2, 1, 0.01),
    "density": lambda N: density_estimate(BERN, 1.0, LAW15, [2.0], N, 2, 1),
    "decay": lambda N: decay_check(BERN, 1.0, 1.5, 1.0, 2.0, N, 2, 1),
    "m_function": lambda N: m_function(1j, N, 0.0),
    "checkpoints": checkpoints_geometric,
}


@pytest.mark.parametrize("driver", sorted(SHELL_COUNT_DRIVERS))
def test_shell_counts_are_whole_numbers(driver):
    call = SHELL_COUNT_DRIVERS[driver]
    for N in (10.5, 1000.5, math.nan, math.inf, -3, "10", None, [3], 10 ** 400):
        with pytest.raises(DomainError) as err:
            call(N)
        assert err.value.reason == "N"
    # an integral float is the whole number, down to the records' N
    assert repr(call(1000.0)) == repr(call(1000))


def _no_work(*args, **kwargs):
    raise AssertionError("work started on an oversized shell count")


@pytest.mark.parametrize("driver", sorted(SHELL_COUNT_DRIVERS))
@settings(max_examples=10, derandomize=True, deadline=None)
@given(N=st.one_of(st.integers(eng._SHELL_BUDGET + 1, 2 ** 80),
                   st.floats(eng._SHELL_BUDGET + 1.0, 1e300).map(math.floor)
                   .map(float).filter(lambda x: x > eng._SHELL_BUDGET)))
def test_shell_counts_beyond_the_budget_raise_before_any_work(driver, N):
    # whole counts past _SHELL_BUDGET, integral floats up to 1e300 included,
    # are refused before a shell size is computed or a block drawn
    with mock.patch.object(GrowthLaw, "sizes_block", _no_work), \
            mock.patch.object(eng, "_shell_blocks", _no_work):
        with pytest.raises(SizeLimitError):
            SHELL_COUNT_DRIVERS[driver](N)


TRIAL_COUNT_DRIVERS = {
    "window": lambda t: eng.dirichlet_window_average(BERN, 1.0, LAW15, [2.0], 1000, t, 1, 0.01),
    "density": lambda t: density_estimate(BERN, 1.0, LAW15, [2.0], 1000, t, 1),
}


@pytest.mark.parametrize("trials", [0, -1, 2.5, math.nan, True, *NOT_COUNTS])
@pytest.mark.parametrize("driver", sorted(TRIAL_COUNT_DRIVERS))
def test_trial_counts_are_whole_numbers(driver, trials):
    with pytest.raises(DomainError) as err:
        TRIAL_COUNT_DRIVERS[driver](trials)
    assert err.value.reason == "trials"


@pytest.mark.parametrize("driver", sorted(TRIAL_COUNT_DRIVERS))
def test_an_integral_float_trial_count_is_the_whole_number(driver):
    # down to the estimate's trial count
    call = TRIAL_COUNT_DRIVERS[driver]
    assert repr(call(3.0)) == repr(call(3))


# public counts with a least value of their own, checked by the one
# whole-count check of every count and stream key: (call, least, reason)
LEAST_COUNTS = {
    "moment-bounds-n": (lambda n: moment_bounds(BERN, 2.0, 1.0, n), 1, "n"),
    "enumerate-n": (lambda n: enumerate_moments(BERN, 2.0, 1.0, n), 1, "n"),
    "mc-trials": (lambda t: mc_moments(BERN, 2.0, 1.0, 4, t, 1), 1000, "trials"),
    "decay-trials": (lambda t: decay_check(BERN, 1.0, 1.5, 1.0, 2.0, 1000, t, 1), 2, "trials"),
}


@pytest.mark.parametrize("name", sorted(LEAST_COUNTS))
def test_public_counts_below_their_least_or_fractional_raise_domain_errors(name):
    # decay_check at one trial had returned a nan standard error; fractional
    # counts had raised a bare TypeError, or for moment_bounds returned bounds
    call, least, reason = LEAST_COUNTS[name]
    for bad in (least - 1, least + 0.5, math.nan, True, str(least), None, 10 ** 400):
        with pytest.raises(DomainError) as err:
            call(bad)
        assert err.value.reason == reason
    # an integral float is the whole number
    assert repr(call(float(least))) == repr(call(least))


# laws whose shell sizes reach 2^63 past shell 0: d = 1000 overflows the
# power itself (a custom sequence with such a size is refused when built)
HUGE_SIZES = [GrowthLaw.uniform_power(1.5, 1e19), GrowthLaw.uniform_power(1000.0, 1.0)]
THREE_ATOMS = PotentialDistribution.discrete([(-0.5, 0.4), (0.25, 0.4), (0.5, 0.2)])


@pytest.mark.parametrize("law", HUGE_SIZES, ids=["C-1e19", "d-1000"])
@pytest.mark.parametrize("dist", [BERN, THREE_ATOMS], ids=["bernoulli", "three-atom"])
def test_shell_sizes_beyond_int64_raise_size_limit_errors(dist, law):
    # they had been cast to -2^63 and raised MemoryError in the alias table,
    # or numpy's ValueError in the binomial
    E = 2.0 if dist is BERN else 1.5
    calls = [lambda: lyapunov_batch(dist, law, E, 1.0, 3, [0, 1], 1),
             lambda: subordinacy_batch(dist, law, E, 1.0, 3, [0, 1], 1),
             lambda: density_estimate(dist, 1.0, law, [E], 1000, 2, 1),
             lambda: m_function(E + 0.01j, 3, 0.0, dist=dist, lam=1.0, law=law, seed=1)]
    for call in calls:
        with pytest.raises(SizeLimitError):
            call()


def _finite(values) -> bool:
    return all(np.isfinite(np.asarray(v)).all() for v in values)


# each driver's numbers at one window energy, with two trials where it takes trials
DOMAIN_DRIVERS = {
    "lyapunov": lambda dist, law, E, lam, N: [
        r.log_r for r in lyapunov_batch(dist, law, E, lam, N, [0, 1], 1)],
    "subordinacy": lambda dist, law, E, lam, N: [
        getattr(r, f) for r in subordinacy_batch(dist, law, E, lam, N, [0, 1], 1)
        for f in ("log_ratio", "log_ratio_grid", "log_sub", "log_dom")],
    "window": lambda dist, law, E, lam, N: [
        eng.dirichlet_window_average(dist, lam, law, [E], N, 2, 1, 0.0)],
    "m_function": lambda dist, law, E, lam, N: [
        m_function(E + 0.01j, N, 0.0, dist=dist, lam=lam, law=law, seed=1).m],
}


@pytest.mark.parametrize("dist", [BERN, THREE_ATOMS], ids=["bernoulli", "three-atom"])
def test_the_largest_int64_shell_sizes_give_finite_numbers(dist):
    # a two-atom law's entry table has s + 1 rows per size s, which int64
    # cannot count at s = 2^63 - 1
    law = GrowthLaw.from_sizes([1, 2 ** 63 - 1, 2 ** 63 - 1, 5, 7])
    E = 2.0 if dist is BERN else 1.5
    for driver in DOMAIN_DRIVERS.values():
        assert _finite(driver(dist, law, E, 1.0, 4))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(dist=st.sampled_from([BERN, UNIF, TRI, THREE_ATOMS]), lam=st.floats(1e-3, 20.0),
       piece=st.integers(0, 1),
       where=st.one_of(st.sampled_from(["lo", "hi"]), st.floats(0.0, 1.0)),
       d=st.floats(1.0, 40.0), log_c=st.floats(-3.0, 25.0), N=st.integers(1, 50))
def test_every_input_of_the_documented_domain_is_finite_or_a_typed_error(dist, lam, piece,
                                                                          where, d, log_c, N):
    # E in a component of I(lam), the floats next to its ends included: every
    # driver takes it, and returns finite numbers or raises AntitreeError
    pieces = i_lambda(dist, lam).intervals
    assume(pieces)
    iv = pieces[piece % len(pieces)]
    if where == "lo":
        E = float(np.nextafter(iv.lo, math.inf))
    elif where == "hi":
        E = float(np.nextafter(iv.hi, -math.inf))
    else:
        E = min(max(iv.lo + where * (iv.hi - iv.lo), np.nextafter(iv.lo, math.inf)),
                np.nextafter(iv.hi, -math.inf))
    effective_quantities(dist, E, lam)
    law = GrowthLaw.uniform_power(d, 10.0 ** log_c)
    for name, driver in DOMAIN_DRIVERS.items():
        try:
            values = driver(dist, law, E, lam, N)
        except AntitreeError:
            continue
        assert _finite(values), (name, values)


@pytest.mark.parametrize("reverse", [False, True])
def test_singular_shell_is_named_by_its_index_past_the_first_block(reverse):
    # at E = 0 a shell that draws both atoms has a vanishing inverse mean; the
    # first shell of two draws, n = BLOCK + 10, does so at this seed
    n = eng.BLOCK + 10
    law = GrowthLaw.from_sizes([1] * n + [2] * 200)
    with pytest.raises(SingularShellError) as err:
        if reverse:
            list(eng._shell_blocks(BERN, law, 1.0, n + 200, [(0.0, 0, 0)], 5, DOMAIN_DENSITY,
                                   reverse=True))
        else:
            eng.dirichlet_window_average(BERN, 1.0, law, [0.0], n + 200, 1, 5, 0.0)
    assert err.value.shell == n
    assert str(err.value) == f"sampled shell {n} has vanishing inverse mean"


def test_entries_past_the_rescale_rule_raise_a_domain_error():
    # one shell may grow an entry |a| > 2^128 past the rescale rule's bound,
    # at any stride, so every pass refuses such a block rather than stepping
    # it: the density at lam = 1e300 read nan before
    assert eng._rescale_stride([2.0 ** 127, 2.0 ** 129, math.inf]).tolist() == [1, 0, 0]
    for call in (lambda: eng.dirichlet_window_average(UNIF, 1e300, LAW15, [0.6], 1500, 1, 0, 0.0),
                 lambda: eng.dirichlet_window_average(BERN, 0.0, LAW15, [1e200], 1500, 1, 0, 0.0),
                 lambda: m_function(1e200 + 1j, 100, 0.0)):
        with pytest.raises(DomainError) as err:
            call()
        assert err.value.reason == "entry_range"


def test_m_function_degenerate_denominator():
    # at z = 0 the free solution is 4-periodic and u vanishes at odd shells
    with pytest.raises(DegenerateDenominatorError):
        m_function(0.0 + 0.0j, 2, 0.0)
    with pytest.raises(DegenerateDenominatorError):
        m_function_per_shell(0.0 + 0.0j, 2, 0.0)
