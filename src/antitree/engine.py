"""Shell-by-shell transfer dynamics in log-scaled form.

A shell of size s with sampled potentials v_1..v_s enters the dynamics only
through the harmonic entry

    a = [ (1/s) * sum_j 1/(E - lam*v_j) ]^(-1),

the 2x2 step matrix ((a, -1), (1, 0)) acting on (u_n, u_{n-1}); every pass
steps this raw pair, rescaled by exact powers of two.  With x = (a - h)/sin k
and M = ((sin k, cos k), (0, 1)) the step conjugates to shear times rotation,
((a, -1), (1, 0)) M = M ((1, x), (0, 1)) Rot(k), and M e_1 = sin k (u_0, u_{-1})
for the Dirichlet solution, so its polar radius is read off the raw pair:

    R_n^2 = (u_n - cos k * u_{n-1})^2 + (sin k * u_{n-1})^2.

The polar (Pruefer) recursion R^2 -> R^2 (1 + x sin(2(theta+k)) +
x^2 sin^2(theta+k)), cot(theta') = cot(theta+k) + x, stays as the scalar
reference ``pruefer_step`` that tests compare against.  Radii are read in the
log domain with the rescale exponents added back.  Batched drivers vectorize
across trials and draw shell statistics from counter-based streams keyed by
(seed, domain, cell, trial, block), so a trial's randomness is reproducible
in any processing order; for discrete laws a shell of s draws is compressed
into its multinomial atom counts, the sufficient statistic for the harmonic
entry.  The counts come from a binomial chain, except that a fair first step
(atom weight 1/2, as in the Bernoulli law) on a shell of at most _POP_MAX
draws is the popcount of ceil(s/64) raw Philox words, whose bits are fair
coins; the word layout depends only on the sizes and is computed once per
block.  Subordinate solutions are extracted by backward propagation, stable
because the forward-decaying direction dominates in reverse; weighted-norm
extremes over all solution directions come from a rank-one updated Cholesky
factor of the 2x2 Gram matrix, whose determinant is a product of diagonals
and therefore immune to the cancellation that makes the raw min/max
hopeless at depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    DomainError,
    InsufficientTrialsError,
    SingularShellError,
    SizeLimitError,
)
from .geometry import GrowthLaw
from .potentials import PotentialDistribution, effective_quantities, sample
from .streams import (
    DOMAIN_DENSITY,
    DOMAIN_DRIFT,
    DOMAIN_SUBORDINACY,
    DOMAIN_TRAJECTORY,
    DOMAIN_WEYL,
    seed_stream,
)

LN2 = math.log(2.0)
BLOCK = 8192
CHECKPOINTS = 192      # geometric checkpoints per trajectory
GRID_ANGLES = 64       # fixed solution directions of the log_ratio_grid comparison
DRIFT_X_BOUND = 1.0    # shears of wronskian_drift are uniform in [-bound, bound]
# Raw passes divide a column by 2^e once its largest entry passes 2^RESCALE_EXP,
# checking every ``_rescale_stride`` shells.  A step multiplies entries by at
# most 1 + |a| and a stride grows them by at most 2^(RESCALE_EXP/2), so
# entries stay below 2^384 and their weighted squares far from the 2^1024
# overflow.  The Gram factor is rescaled again right before each checkpoint,
# where the eigenvalue discriminant takes fourth powers of entries < 2^256.
RESCALE_EXP = 256
_MAX_STRIDE = 64
_DRAW_CHUNK = 1 << 22     # continuous-law potentials held at once
_DRAW_BUDGET = 1 << 32    # continuous-law potentials one column may draw
# Largest shell whose fair first multinomial step is a popcount of raw words:
# the power of two below the measured crossover, between 320 and 384 draws,
# above which numpy's binomial (BTPE) is the faster exact draw.
_POP_MAX = 256


# ---------------------------------------------------------------------------
# scalar shell quantities
# ---------------------------------------------------------------------------

def harmonic_a(E: float, lam: float, potentials) -> float:
    """Reciprocal of the shell average of 1/(E - lam*v).

    Raises SingularShellError when the average vanishes, which is possible
    only when the shifted values change sign (E inside the scaled support
    hull).
    """
    x = E - lam * np.asarray(potentials, dtype=np.float64)
    if np.any(x == 0.0):
        raise DomainError("E - lam*v vanishes on the shell", reason="inside_support")
    mean_inv = float(np.mean(1.0 / x))
    if mean_inv == 0.0:
        raise SingularShellError("shell inverse mean is zero")
    return 1.0 / mean_inv


def psi_norm_sq(E: float, lam: float, potentials) -> float:
    """Squared norm of the normalized shell resolvent vector.

    Equals a^2 * (1/s) * sum 1/(E - lam*v)^2, which is also the E-derivative
    of the harmonic entry; always >= 1 by Cauchy-Schwarz.
    """
    a = harmonic_a(E, lam, potentials)
    x = E - lam * np.asarray(potentials, dtype=np.float64)
    return a * a * float(np.mean(1.0 / (x * x)))


def sheared_rotation(x: float, k: float) -> np.ndarray:
    """((1, x), (0, 1)) @ rotation(k): the step in the polar frame."""
    ck, sk = math.cos(k), math.sin(k)
    return np.array([[ck + x * sk, -sk + x * ck], [sk, ck]])


# ---------------------------------------------------------------------------
# polar recursion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrueferState:
    theta: float
    log_r: float = 0.0


def pruefer_step(state: PrueferState, x: float, k: float) -> PrueferState:
    """One polar step: rotate by k, shear by x.

    The log-radius grows by half the log of 1 + x sin(2 tb) + x^2 sin^2(tb),
    a sum of squares hence positive; the angle advances on the branch with
    theta_new - theta_bar in (-pi/2, pi/2], making it continuous in x.
    """
    if not 0.0 < k < math.pi:
        raise DomainError(f"phase k = {k} outside (0, pi)", reason="k")
    tb = state.theta + k
    s = math.sin(tb)
    c = math.cos(tb)
    w1 = c + x * s
    growth = w1 * w1 + s * s
    # branch selection: the new angle solves cot(theta') = cot(tb) + x
    raw = math.atan2(s, w1)
    delta = raw - tb
    delta -= math.pi * math.ceil(delta / math.pi - 0.5)
    return PrueferState(theta=tb + delta, log_r=state.log_r + 0.5 * math.log(growth))


# ---------------------------------------------------------------------------
# sampling of shell statistics
# ---------------------------------------------------------------------------

def _atom_tables(dist: PotentialDistribution, E: float, lam: float):
    vals = np.array([v for v, _ in dist.atoms])
    probs = np.array([w for _, w in dist.atoms])
    x = E - lam * vals
    if np.any(x == 0.0):
        raise DomainError("E - lam*v vanishes at an atom", reason="inside_support")
    return probs, 1.0 / x, 1.0 / (x * x)


@dataclass(frozen=True)
class _PopcountLayout:
    """Where a fair first step finds each shell's raw words, from the sizes alone.

    Shells of at most _POP_MAX draws (``small``, in shell order) take
    ceil(s/64) consecutive raw 64-bit words each, the first at ``starts``;
    ``mask`` keeps every bit of a shell's words but those of its last word
    beyond s.  The ``large`` shells go through the binomial.
    """

    small: np.ndarray
    large: np.ndarray
    starts: np.ndarray
    mask: np.ndarray


def _popcount_layout(sizes: np.ndarray) -> _PopcountLayout:
    s_int = sizes.astype(np.int64)
    small = np.flatnonzero(s_int <= _POP_MAX)
    s = s_int[small]
    nwords = (s + 63) // 64
    ends = np.cumsum(nwords)
    ones = np.uint64(2 ** 64 - 1)
    mask = np.full(int(ends[-1]) if len(ends) else 0, ones)
    mask[ends - 1] = ones >> ((-s) % 64).astype(np.uint64)
    return _PopcountLayout(small=small, large=np.flatnonzero(s_int > _POP_MAX),
                           starts=ends - nwords, mask=mask)


def _multinomial_counts(gen: np.random.Generator, n_arr: np.ndarray, probs: np.ndarray, *,
                        layout: _PopcountLayout | None = None) -> np.ndarray:
    """Exact multinomial counts for per-row totals.

    The counts follow a binomial chain, atom by atom.  When its first step is
    fair (probs[0] == 1/2), rows of at most _POP_MAX draws take that count as
    the popcount of their raw Philox words, each word being 64 fair coins,
    all drawn before the binomials of the other rows; ``layout`` is
    ``_popcount_layout(n_arr)``, built here when not given.
    """
    k = len(probs)
    counts = np.empty((len(n_arr), k), dtype=np.int64)
    remaining = n_arr.astype(np.int64)
    rem_p = 1.0
    for i in range(k - 1):
        p = min(1.0, probs[i] / rem_p)
        if i == 0 and p == 0.5:
            if layout is None:
                layout = _popcount_layout(remaining)
            c = np.empty_like(remaining)
            if len(layout.small):
                words = gen.bit_generator.random_raw(len(layout.mask))
                words &= layout.mask
                c[layout.small] = np.add.reduceat(np.bitwise_count(words), layout.starts,
                                                  dtype=np.int64)
            if len(layout.large):
                c[layout.large] = gen.binomial(remaining[layout.large], p)
        else:
            c = gen.binomial(remaining, p)
        counts[:, i] = c
        remaining -= c
        rem_p -= probs[i]
    counts[:, k - 1] = remaining
    return counts


def _shell_stats_block(dist: PotentialDistribution, E: float, lam: float,
                       sizes: np.ndarray, gen: np.random.Generator, *,
                       with_w: bool = False, layout: _PopcountLayout | None = None):
    """Per-shell (mean of 1/(E-lam*v), mean of 1/(E-lam*v)^2) for one trial;
    the second is formed only ``with_w`` and is None otherwise.

    Discrete laws reduce to multinomial atom counts (``layout`` is passed on
    to _multinomial_counts); continuous laws draw every potential and
    segment-sum, in chunks of whole shells of at most _DRAW_CHUNK draws that
    continue one stream, so they reproduce one draw bit for bit (a split
    shell would be summed in a different order).
    """
    s_int = sizes.astype(np.int64)
    if dist.is_discrete:
        probs, r1, r2 = _atom_tables(dist, E, lam)
        counts = _multinomial_counts(gen, s_int, probs, layout=layout)
        sum1 = counts @ r1
        sum2 = counts @ r2 if with_w else None
    else:
        ends = np.cumsum(s_int)
        sum1, sum2 = [], []
        i0 = 0
        while i0 < len(s_int):
            base = ends[i0] - s_int[i0]
            i1 = max(i0 + 1, int(np.searchsorted(ends, base + _DRAW_CHUNK, side="right")))
            v = sample(dist, gen, size=int(ends[i1 - 1] - base))
            r = 1.0 / (E - lam * v)
            starts = ends[i0:i1] - s_int[i0:i1] - base
            sum1.append(np.add.reduceat(r, starts))
            if with_w:
                sum2.append(np.add.reduceat(r * r, starts))
            i0 = i1
        sum1 = np.concatenate(sum1)
        sum2 = np.concatenate(sum2) if with_w else None
    mean1 = sum1 / sizes
    if np.any(mean1 == 0.0):
        shell = int(np.nonzero(mean1 == 0.0)[0][0])
        raise SingularShellError("sampled shell has vanishing inverse mean", shell=shell)
    return mean1, (sum2 / sizes if with_w else None)


def _shell_blocks(dist: PotentialDistribution, law: GrowthLaw, lam: float, N: int,
                  columns, seed: int, domain: int, *, reverse: bool = False,
                  with_w: bool = False):
    """Yield ``(n0, n1, A, W)`` for each block of shells n0 <= n < n1.

    ``columns`` lists ``(E, cell, trial)``; column j of the fresh (n1 - n0,
    len(columns)) array A holds the harmonic entries 1/mean(1/(E - lam*v))
    of its shells, drawn from the stream keyed (seed, domain, cell, trial,
    block index).  A column's draws therefore do not depend on which other
    columns share the call or on the direction: ``reverse`` yields the same
    blocks last to first.  W holds the squared shell-vector norms
    a^2 * mean(1/(E - lam*v)^2) when ``with_w`` is set and is None
    otherwise.  lam = 0 draws nothing: A = E and W = 1 exactly.  A is
    complex when an energy is (the m-function's spectral parameter z).
    Raises SizeLimitError before drawing when a continuous-law column would
    exceed _DRAW_BUDGET draws or one shell _DRAW_CHUNK.
    """
    if lam != 0.0 and not dist.is_discrete:
        total = largest = 0.0
        for n0 in range(0, N, BLOCK):
            sizes = law.sizes_block(n0, min(N, n0 + BLOCK))
            total += float(sizes.sum())
            largest = max(largest, float(sizes.max()))
        if total > _DRAW_BUDGET or largest > _DRAW_CHUNK:
            raise SizeLimitError(f"{total:.0f} potential draws per trial, {largest:.0f} in "
                                 f"one shell: over {_DRAW_BUDGET} or {_DRAW_CHUNK}")
    energies = [E for E, _, _ in columns]
    dtype = np.result_type(float, *energies)
    energies = np.array(energies, dtype=dtype)
    nblocks = (N + BLOCK - 1) // BLOCK
    for b in (range(nblocks - 1, -1, -1) if reverse else range(nblocks)):
        n0 = b * BLOCK
        n1 = min(N, n0 + BLOCK)
        sizes = law.sizes_block(n0, n1)
        A = np.empty((n1 - n0, len(columns)), dtype=dtype)
        W = np.empty_like(A) if with_w else None
        if lam == 0.0:
            A[:] = energies
            if with_w:
                W[:] = 1.0
        else:
            layout = _popcount_layout(sizes) if dist.is_discrete else None
            for j, (E, cell, trial) in enumerate(columns):
                m1, m2 = _shell_stats_block(dist, E, lam, sizes,
                                            seed_stream(seed, domain, cell, trial, b),
                                            with_w=with_w, layout=layout)
                A[:, j] = 1.0 / m1
                if with_w:
                    W[:, j] = m2 / (m1 * m1)
        yield n0, n1, A, W


def _rescale_stride(a_abs_max: float) -> int:
    """Shells between rescale checks of the raw passes over a block of |a| <= a_abs_max.

    The largest power of two up to _MAX_STRIDE whose growth bound
    (1 + max|a|)^stride stays within 2^(RESCALE_EXP/2).  Every stride
    divides BLOCK, so each block ends on a check.
    """
    growth = math.log2(1.0 + a_abs_max)
    stride = _MAX_STRIDE
    while stride > 1 and stride * growth > RESCALE_EXP / 2:
        stride //= 2
    return stride


def checkpoints_geometric(N: int) -> np.ndarray:
    """Geometrically spaced shell indices in [1, N], always including N, as a
    read-only array that every record of a batch shares."""
    if N < 1:
        raise DomainError("need N >= 1")
    cps = np.unique(np.rint(np.geomspace(1.0, float(N), CHECKPOINTS)).astype(np.int64))
    cps.flags.writeable = False
    return cps


def _checkpoint_sum_inv(law: GrowthLaw, cps: np.ndarray) -> np.ndarray:
    """sum_{j < c} 1/s_j for each checkpoint c (the shells applied so far)."""
    out = np.empty(len(cps))
    N = int(cps[-1])
    total = 0.0
    for n0 in range(0, N, BLOCK):
        n1 = min(N, n0 + BLOCK)
        csum = total + np.cumsum(1.0 / law.sizes_block(n0, n1))
        lo = np.searchsorted(cps, n0 + 1, side="left")
        hi = np.searchsorted(cps, n1, side="right")
        out[lo:hi] = csum[cps[lo:hi] - n0 - 1]
        total = float(csum[-1])
    out.flags.writeable = False   # shared by every record of a batch
    return out


# ---------------------------------------------------------------------------
# forward trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectoryRecord:
    """Polar log-radius along one disorder realization, at checkpoints."""

    E: float
    lam: float
    N: int
    trial: int
    ns: np.ndarray         # checkpoint shell counts
    sum_inv: np.ndarray    # sum of 1/s_j over applied shells, per checkpoint
    log_r: np.ndarray      # log R at each checkpoint
    a_min: float = math.nan
    a_max: float = math.nan

    @property
    def final_log_r(self) -> float:
        return float(self.log_r[-1])

    @property
    def slope(self) -> float:
        return self.final_log_r / float(self.sum_inv[-1])


def _forward_polar_pass(dist, law, eff, N, trial_ids, seed, cell):
    """Polar log-radius for lyapunov_batch, vectorized across trials: steps the
    Dirichlet pair from (1, 0), reading log R off it at each checkpoint."""
    E, lam = eff.E, eff.lam
    ck, sk = math.cos(eff.k), math.sin(eff.k)
    T = len(trial_ids)
    cps = checkpoints_geometric(N)
    cp_index = {int(n): i for i, n in enumerate(cps)}
    cp_suminv = _checkpoint_sum_inv(law, cps)
    cp_logr = np.empty((len(cps), T))
    u = np.ones(T)
    p = np.zeros(T)
    exps = np.zeros(T, dtype=np.int64)
    a_min = np.full(T, math.inf)
    a_max = np.full(T, -math.inf)
    columns = [(E, cell, trial) for trial in trial_ids]
    for n0, _, A, _ in _shell_blocks(dist, law, lam, N, columns, seed, DOMAIN_TRAJECTORY):
        lo, hi = A.min(axis=0), A.max(axis=0)
        a_min, a_max = np.minimum(a_min, lo), np.maximum(a_max, hi)
        stride = _rescale_stride(max(hi.max(initial=0.0), -lo.min(initial=0.0)))
        for n, a_row in enumerate(A, n0 + 1):
            u, p = a_row * u - p, u
            if n % stride == 0:
                exps = _rescale_where([u, p], exps)
            ci = cp_index.get(n)
            if ci is not None:
                cp_logr[ci] = np.log(np.hypot(u - ck * p, sk * p)) + exps * LN2
    if lam == 0.0:   # the free case draws no entries
        a_min[:] = a_max[:] = math.nan
    return [TrajectoryRecord(E=E, lam=lam, N=N, trial=int(trial), ns=cps, sum_inv=cp_suminv,
                             log_r=cp_logr[:, t].copy(), a_min=float(a_min[t]),
                             a_max=float(a_max[t]))
            for t, trial in enumerate(trial_ids)]


def lyapunov_batch(dist: PotentialDistribution, law: GrowthLaw, E: float, lam: float,
                   N: int, trial_ids, seed: int, cell: int = 0) -> list[TrajectoryRecord]:
    """Forward trajectories for a set of trial ids with keyed streams.

    Per-trial draws are identical however trials are grouped, which keeps
    sweep outputs independent of scheduling.
    """
    eff = effective_quantities(dist, E, lam)
    return _forward_polar_pass(dist, law, eff, N, list(trial_ids), seed, cell)


def lyapunov_estimate(records) -> tuple[float, float]:
    """Ensemble mean and standard error of log R / sum(1/s) over trials."""
    if len(records) < 2:
        raise InsufficientTrialsError("need at least 2 trajectory records")
    slopes = np.array([r.slope for r in records])
    return float(slopes.mean()), float(slopes.std(ddof=1) / math.sqrt(len(slopes)))


# ---------------------------------------------------------------------------
# subordinacy: weighted-norm extremes and the backward solution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubordinacyRecord:
    """Checkpoint diagnostics for the subordinate/dominant split.

    ``log_ratio`` is the log of (minimal / maximal) psi-weighted running
    norm over unit solution directions.  The maximum is the top eigenvalue
    of the weighted Gram matrix of the forward fundamental pair; the
    minimum is evaluated on the backward-propagated solution (normalized to
    unit coefficients in the fundamental basis), whose direction converges
    to the minimizing one.  This split matters: any forward-only evaluation
    in doubles floors near log(eps^2) = -72 because the subordinate
    component is destroyed in the representation of the solution pair,
    while a fixed 64-angle grid floors already near log((pi/128)^2); the
    grid variant is kept as ``log_ratio_grid`` for comparison.  ``log_dom``
    is the absolute log of the maximal weighted norm.  ``log_sub`` is the
    log-amplitude sqrt(w_n^2 + w_{n-1}^2) of the backward solution, defined
    up to one additive constant per trial; both backward quantities are
    contaminated by the dominant solution within a few 1/(2 gamma) units of
    sum(1/s) below N.
    """

    E: float
    lam: float
    N: int
    trial: int
    ns: np.ndarray
    sum_inv: np.ndarray
    log_ratio: np.ndarray
    log_ratio_grid: np.ndarray
    log_sub: np.ndarray
    log_dom: np.ndarray

    @property
    def final_log_ratio(self) -> float:
        return float(self.log_ratio[-1])


def _chol_rank1_update(l11, l21, l22, x1, x2):
    """Rank-one update of a 2x2 lower Cholesky factor (Givens form)."""
    r = np.hypot(l11, x1)
    # before any update l11 = 0 and the first vector has x1 != 0; afterwards
    # l11 > 0, so r > 0 except for all-zero updates, which are no-ops
    safe = r > 0.0
    cg = np.divide(l11, r, out=np.ones_like(r), where=safe)
    sg = np.divide(x1, r, out=np.zeros_like(r), where=safe)
    l21n = cg * l21 + sg * x2
    x2n = cg * x2 - sg * l21
    return r, l21n, np.hypot(l22, x2n)


def _rescale_where(arrays, exps):
    """Divide each column by 2^e where its magnitude exponent e exceeds
    RESCALE_EXP; accumulate e into ``exps`` (int64, modified in place)."""
    m = np.abs(arrays[0])
    for arr in arrays[1:]:
        np.maximum(m, np.abs(arr), out=m)
    ex = np.frexp(m)[1].astype(np.int64)
    sh = np.where(ex > RESCALE_EXP, ex, 0)
    if sh.any():
        f = np.ldexp(1.0, -sh)
        for arr in arrays:
            arr *= f
        exps += sh
    return exps


def subordinacy_batch(dist: PotentialDistribution, law: GrowthLaw, E: float, lam: float,
                      N: int, trial_ids, seed: int, cell: int = 0, *,
                      with_gram: bool = True) -> list[SubordinacyRecord]:
    """Two-pass subordinacy diagnostics on shared randomness.

    Forward: evolve the fundamental pair (u: 1, 0 and v: 0, 1 seeds),
    accumulate the psi-weighted Gram factor over applied shells, record
    eigen-extreme ratios.  Backward: propagation from the seed (0, 1) at
    shell N isolates the forward-decaying solution wherever the dominant
    contamination is small.  Both passes regenerate identical shell draws
    from (trial, block)-keyed streams.
    """
    eff = effective_quantities(dist, E, lam)
    trial_ids = list(trial_ids)
    T = len(trial_ids)
    cps = checkpoints_geometric(N)
    cp_index = {int(n): i for i, n in enumerate(cps)}
    ncp = len(cps)
    cp_suminv = _checkpoint_sum_inv(law, cps)
    columns = [(E, cell, trial) for trial in trial_ids]
    cp_logmax = np.full((ncp, T), math.nan)
    cp_ratio_grid = np.full((ncp, T), math.nan)
    angles = np.linspace(0.0, math.pi, GRID_ANGLES, endpoint=False)
    cth = np.cos(angles)[:, None]
    sth = np.sin(angles)[:, None]

    if with_gram:
        u_cur = np.ones(T); u_prev = np.zeros(T)
        v_cur = np.zeros(T); v_prev = np.ones(T)
        pair_exp = np.zeros(T, dtype=np.int64)
        l11 = np.zeros(T); l21 = np.zeros(T); l22 = np.zeros(T)
        gram_exp = np.zeros(T, dtype=np.int64)
        for n0, n1, A, W in _shell_blocks(dist, law, lam, N, columns, seed, DOMAIN_SUBORDINACY,
                                          with_w=True):
            stride = _rescale_stride(max(A.max(initial=0.0), -A.min(initial=0.0)))
            for n_applied, ai, wi in zip(range(n0 + 1, n1 + 1), A, W):
                # Gram gains the current direction (u_n, v_n), then the pair
                # advances; a checkpoint at c therefore covers shells < c
                sw = np.sqrt(wi)
                unit = np.ldexp(1.0, pair_exp - gram_exp)
                l11, l21, l22 = _chol_rank1_update(
                    l11, l21, l22, sw * u_cur * unit, sw * v_cur * unit)
                u_cur, u_prev = ai * u_cur - u_prev, u_cur
                v_cur, v_prev = ai * v_cur - v_prev, v_cur
                ci = cp_index.get(n_applied)
                if n_applied % stride == 0 or ci is not None:
                    pair_exp = _rescale_where([u_cur, u_prev, v_cur, v_prev], pair_exp)
                    gram_exp = _rescale_where([l11, l21, l22], gram_exp)
                if ci is not None:
                    g11 = l11 * l11
                    g12 = l11 * l21
                    g22 = l21 * l21 + l22 * l22
                    half_tr = 0.5 * (g11 + g22)
                    disc = np.sqrt((0.5 * (g11 - g22)) ** 2 + g12 * g12)
                    with np.errstate(divide="ignore"):
                        cp_logmax[ci] = np.log(half_tr + disc) + 2.0 * gram_exp * LN2
                        q1 = cth * l11 + sth * l21
                        q2 = sth * l22
                        vals = q1 * q1 + q2 * q2
                        cp_ratio_grid[ci] = np.log(vals.min(axis=0)) - np.log(vals.max(axis=0))

    # backward pass: seed (w_N, w_{N-1}) = (0, 1), recursion
    # w_{m-1} = a_m w_m - w_{m+1} for m = N-1 .. 0.  Alongside the amplitude
    # we accumulate the psi-weighted norm sum w_k^2 psi_k^2 of each segment
    # between checkpoints; prefixes are log-domain sums of positive terms,
    # which cannot cancel.  The final state (w_0, w_{-1}) gives the
    # coefficients of w in the (u, v) basis for unit normalization.
    cp_sub = np.full((ncp, T), math.nan)
    cp_logseg = np.full((ncp, T), -math.inf)
    w_hi = np.zeros(T)   # w_{m+1}
    w_mid = np.ones(T)   # w_m
    back_exp = np.zeros(T, dtype=np.int64)
    seg = np.zeros(T)    # segment sum in units 2^(2 back_exp)
    for n0, n1, A, W in _shell_blocks(dist, law, lam, N, columns, seed, DOMAIN_SUBORDINACY,
                                      reverse=True, with_w=True):
        stride = _rescale_stride(max(A.max(initial=0.0), -A.min(initial=0.0)))
        for m, ai, wi in zip(range(n1 - 1, n0 - 1, -1), A[::-1], W[::-1]):
            ci = cp_index.get(m + 1)
            if ci is not None:
                # entering iteration m the state holds (w_{m+1}, w_m) and
                # seg covers the shells m+1 <= k < next checkpoint
                with np.errstate(divide="ignore"):
                    cp_sub[ci] = 0.5 * np.log(w_hi * w_hi + w_mid * w_mid) + back_exp * LN2
                    cp_logseg[ci] = np.log(seg) + 2.0 * back_exp * LN2
                seg[:] = 0.0
            seg += wi * w_mid * w_mid
            w_hi, w_mid = w_mid, ai * w_mid - w_hi
            if m % stride == 0:
                old = back_exp.copy()
                back_exp = _rescale_where([w_hi, w_mid], back_exp)
                seg = np.ldexp(seg, 2 * (old - back_exp))
    with np.errstate(divide="ignore"):
        log_bottom = np.log(seg) + 2.0 * back_exp * LN2   # shells k < c_0
        log_coef = np.log(w_hi * w_hi + w_mid * w_mid) + 2.0 * back_exp * LN2
    # prefix(c_i) = bottom + seg_0 + ... + seg_{i-1}, with seg_i for c_i <= k < c_{i+1}
    log_prefix = np.logaddexp.accumulate(np.vstack([log_bottom, cp_logseg[:-1]]), axis=0)
    cp_ratio = log_prefix - log_coef[None, :] - cp_logmax

    records = []
    for t, trial in enumerate(trial_ids):
        records.append(SubordinacyRecord(
            E=E, lam=lam, N=N, trial=int(trial), ns=cps,
            sum_inv=cp_suminv, log_ratio=cp_ratio[:, t].copy(),
            log_ratio_grid=cp_ratio_grid[:, t].copy(), log_sub=cp_sub[:, t].copy(),
            log_dom=cp_logmax[:, t].copy(),
        ))
    return records


# ---------------------------------------------------------------------------
# spectral-density window averages
# ---------------------------------------------------------------------------

def dirichlet_window_average(dist, lam: float, law: GrowthLaw, energies, N: int,
                             trials: int, seed: int, halfwidth: float, *,
                             energy_ids=None) -> np.ndarray:
    """Window average of 1/(u_n^2 + u_{n-1}^2) for the Dirichlet solution.

    For each grid energy the trials are spread over midpoint offsets in
    [-halfwidth, halfwidth]: the limit defining the density holds weakly in
    the energy variable, so pointwise evaluation needs a narrow
    mollification (at isolated resonant phases, such as the free case at
    E = 1 where the transfer phase is pi/3, the unmollified time average has
    a genuinely different limit).  Returns the mean over the window
    [N/2, N] and over trials, one value per energy, not yet divided by pi.
    """
    energies = np.asarray(energies, dtype=np.float64)
    if trials < 1:
        raise DomainError("need trials >= 1")
    if energy_ids is None:
        energy_ids = list(range(len(energies)))
    offs = halfwidth * ((2.0 * np.arange(trials) + 1.0) / trials - 1.0)
    # one column per (energy, trial), keyed by the energy id and the trial
    columns = [(float(E + off), eid, ti)
               for E, eid in zip(energies, energy_ids) for ti, off in enumerate(offs)]
    ncol = len(columns)
    u = np.ones(ncol)
    p = np.zeros(ncol)
    col_exp = np.zeros(ncol, dtype=np.int64)
    acc = np.zeros(ncol)
    count = 0
    w0 = N // 2
    for n0, _, A, _ in _shell_blocks(dist, law, lam, N, columns, seed, DOMAIN_DENSITY):
        stride = _rescale_stride(max(A.max(initial=0.0), -A.min(initial=0.0)))
        for n, a_row in enumerate(A, n0 + 1):
            u, p = a_row * u - p, u
            if n >= w0:
                acc += np.ldexp(1.0 / (u * u + p * p), -2 * col_exp)
                count += 1
            if n % stride == 0:
                col_exp = _rescale_where([u, p], col_exp)
    if count == 0:
        raise DomainError("empty averaging window")
    vals = (acc / count).reshape(len(energies), trials)
    return vals.mean(axis=1)


# ---------------------------------------------------------------------------
# truncated m-function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeylPoint:
    """Boundary Green's function of the N-shell truncation at spectral
    parameter z with boundary condition beta."""

    z: complex
    beta: float
    N: int
    m: complex


def m_function(z: complex, N: int, beta: float, *, dist: PotentialDistribution | None = None,
               lam: float = 0.0, law: GrowthLaw | None = None,
               seed: int | None = None) -> WeylPoint:
    """m = (beta*v_N + v_{N+1}) / (beta*u_N + u_{N+1}) from the fundamental
    complex solution pair; the common power-of-two rescale cancels in the
    ratio.  Herglotz: Im z > 0 forces Im m > 0.  Random shells (``dist``
    with lam != 0) draw from the streams keyed (seed, DOMAIN_WEYL, 0, 0,
    block)."""
    z = complex(z)
    if not (z.imag >= 0.0 and math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"need a finite z with Im z >= 0, got {z}", reason="z")
    if lam != 0.0 and (dist is None or seed is None):
        raise DomainError("random potentials need a dist and a seed", reason="seed")
    if law is None:
        law = GrowthLaw.uniform_power(1.0, 1.0)
    u_cur, u_prev = 1.0 + 0.0j, 0.0 + 0.0j   # (u_0, u_{-1})
    v_cur, v_prev = 0.0 + 0.0j, 1.0 + 0.0j
    exps = np.zeros(1, dtype=np.int64)
    for n0, _, A, _ in _shell_blocks(dist, law, lam, N + 1, [(z, 0, 0)], seed, DOMAIN_WEYL):
        stride = _rescale_stride(float(np.abs(A).max()))
        # Python complex steps: numpy's complex product rounds differently
        for n, a in enumerate(A[:, 0].tolist(), n0 + 1):
            u_cur, u_prev = a * u_cur - u_prev, u_cur
            v_cur, v_prev = a * v_cur - v_prev, v_cur
            if n % stride == 0:
                pair = np.array([[u_cur], [u_prev], [v_cur], [v_prev]])
                _rescale_where(list(pair), exps)
                u_cur, u_prev, v_cur, v_prev = pair[:, 0].tolist()
    # after the loop *_prev sits at N, *_cur at N+1
    num = beta * v_prev + v_cur
    den = beta * u_prev + u_cur
    if den == 0.0:
        raise DegenerateDenominatorError(f"boundary denominator vanished at z = {z}")
    return WeylPoint(z=z, beta=float(beta), N=N, m=num / den)


# ---------------------------------------------------------------------------
# determinant drift of long products
# ---------------------------------------------------------------------------

def wronskian_drift(k: float, n_steps: int, seed: int) -> float:
    """Worst accumulated log|det| of a random transfer product, in QR form.

    Every exact step has determinant one.  The raw cross-difference of two
    propagated columns cancels below machine precision once the product is
    hyperbolic, so the determinant residue is tracked on the QR factor,
    where it is a product of triangular diagonals: per step B = T Q has
    |det B| = 1 and its Givens factorization exposes log|det| = log(r * r22)
    stably.  The shears x are uniform in [-DRIFT_X_BOUND, DRIFT_X_BOUND].
    Returns max over the run of |sum of per-step log dets|.
    """
    gen = seed_stream(seed, DOMAIN_DRIFT, 0, 0, 0)
    q00, q01, q10, q11 = 1.0, 0.0, 0.0, 1.0
    ck2 = 2.0 * math.cos(k)
    sk = math.sin(k)
    drift = 0.0
    worst = 0.0
    chunk = 1 << 16
    done = 0
    while done < n_steps:
        mlen = min(chunk, n_steps - done)
        xs = gen.uniform(-DRIFT_X_BOUND, DRIFT_X_BOUND, size=mlen)
        for x in xs:
            a = ck2 + x * sk
            b00 = a * q00 - q10
            b01 = a * q01 - q11
            b10 = q00
            b11 = q01
            r = math.hypot(b00, b10)
            cg = b00 / r
            sg = b10 / r
            r11 = cg * b11 - sg * b01
            drift += math.log(abs(r * r11))
            if abs(drift) > worst:
                worst = abs(drift)
            # next Q = Givens(cg, sg)^T, the orthogonal factor of B
            q00, q10 = cg, sg
            q01, q11 = -sg, cg
        done += mlen
    return worst
