"""Scalar references that the tests compare the library against.

The library steps transfer matrices only through ``engine._FoldReplay``.
These are the independent forms of the same dynamics, stepped one shell at a
time in Python floats: the harmonic entry and shell-vector norm of explicit
potentials, the polar (Pruefer) recursion and its step matrix, the
determinant drift of a product in QR form, the segment maps of a block and
their fold onto the state one segment after the other, the fold of two Gram
factors by two rank-one updates, the segment-by-segment folds of the Gram
pass and of the backward sums, and the per-shell complex loop of the
truncated m-function.  The shell entries of a block are also formed one
column at a time from the same draws, without the sampler's entry tables and
tiles, each block's stream rebuilt from its column's key
(``block_stream``).  The inverse moments of the continuous laws, which
``potentials`` takes from closed forms, are also computed here by adaptive
quadrature of the laws' densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from antitree.engine import (
    BLOCK,
    LN2,
    _chol_rank1_update,
    _rescale_stride,
    _rescale_where,
    _shell_blocks,
    _shell_stats_block,
)
from antitree.errors import DegenerateDenominatorError, DomainError, SingularShellError
from antitree.geometry import GrowthLaw
from antitree.streams import DOMAIN_WEYL, seed_stream

DOMAIN_DRIFT = 0xD     # stream domain of wronskian_drift, apart from the library's
DRIFT_X_BOUND = 1.0    # shears of wronskian_drift are uniform in [-bound, bound]


# ---------------------------------------------------------------------------
# inverse moments of the continuous laws
# ---------------------------------------------------------------------------

DENSITIES = {
    "uniform": lambda v: 0.5,              # on [-1, 1]
    "triangular": lambda v: 1.0 - abs(v),  # on [-1, 1]
}


def inverse_moment_quadrature(dist, E: float, lam: float, power: int = 1) -> float:
    """Adaptive Gauss-Kronrod evaluation of E_v[ 1/(E - lam*v)^power ] for a
    continuous law; E must lie outside the scaled support lam*[-1, 1]."""
    density = DENSITIES[dist.kind]
    val, _ = integrate.quad(lambda v: density(v) / (E - lam * v) ** power,
                            dist.v_minus, dist.v_plus, epsabs=0.0, epsrel=1e-10, limit=200)
    return val


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


def block_stream(seed: int, domain: int, cell: int, trial: int, b: int) -> np.random.Generator:
    """The generator that draws block b of the column keyed (seed, domain,
    cell, trial): the column's ``seed_stream`` set to words [4b, 4b + 4) of
    its seed sequence's uint64 state."""
    gen = seed_stream(seed, domain, cell, trial)
    words = gen.bit_generator.seed_seq.generate_state(4 * b + 4, np.uint64)[4 * b:]
    gen.bit_generator.state = {"bit_generator": "SFC64", "state": {"state": words},
                               "has_uint32": 0, "uinteger": 0}
    return gen


def shell_blocks_per_column(dist, law: GrowthLaw, lam: float, N: int, columns, seed: int,
                            domain: int, *, reverse: bool = False, with_w: bool = False):
    """``engine._shell_blocks``'s blocks one column at a time: each column's
    entries A = 1/m1 and W = m2/m1^2 from its own ``_shell_stats_block`` call
    on the full atom counts (no entry table), written column by column."""
    dtype = np.result_type(float, *[E for E, _, _ in columns])
    nblocks = -(-N // BLOCK)
    for b in (range(nblocks - 1, -1, -1) if reverse else range(nblocks)):
        n0, n1 = b * BLOCK, min(N, (b + 1) * BLOCK)
        sizes = law.sizes_block(n0, n1).astype(np.int64)
        A = np.empty((n1 - n0, len(columns)), dtype=dtype)
        W = np.ones_like(A) if with_w else None
        for j, (E, cell, trial) in enumerate(columns):
            if lam == 0.0:
                A[:, j] = E
                continue
            a, w = _shell_stats_block(dist, E, lam, sizes,
                                      block_stream(seed, domain, cell, trial, b),
                                      with_w=with_w, first=n0)
            A[:, j] = a
            if with_w:
                W[:, j] = w
        yield n0, n1, A, W


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


# ---------------------------------------------------------------------------
# segment maps and the state fold
# ---------------------------------------------------------------------------

def segment_maps(A, stride: int, c) -> np.ndarray:
    """M[row, seed, segment, column] for the entries A (shells x columns) cut
    into segments of ``stride`` shells, the last one shorter when the stride
    does not divide the block: the two solutions seeded (1, 0) and (c, 1),
    stepped one shell at a time through each segment; row 0 holds their last
    entries and row 1 the ones before."""
    L, ncol = A.shape
    nseg = -(-L // stride)
    dtype = np.result_type(A, c)
    M = np.empty((2, 2, nseg, ncol), dtype=dtype)
    for j in range(nseg):
        cur = np.array([np.ones(ncol), np.full(ncol, c)], dtype=dtype)
        prev = np.array([np.zeros(ncol), np.ones(ncol)], dtype=dtype)
        for a in A[j * stride:(j + 1) * stride]:
            cur, prev = a * cur - prev, cur
        M[0, :, j], M[1, :, j] = cur, prev
    return M


def fold_segments_per_segment(M, c, u, p, exps):
    """The state (u, p) * 2^exps folded through the segment maps M (as from
    ``segment_maps``) one segment after the other: the state's coefficients
    (u - c p, p) in the seed basis multiply the segment's solutions, and
    ``_rescale_where`` rescales at each segment end.  Returns the state at
    every segment start and after the last one (segments + 1, 2, columns)
    and its exponents (segments + 1, columns)."""
    nseg = M.shape[2]
    X = np.empty((nseg + 1, 2, len(u)), dtype=M.dtype)
    E = np.empty((nseg + 1, len(u)), dtype=np.int64)
    X[0, 0], X[0, 1], E[0] = u, p, exps
    w = np.empty_like(X[0])
    alpha = w[0]   # the coefficient u - c p of the seed (1, 0)
    for j in range(nseg):
        np.multiply(c, X[j, 1], out=alpha)
        np.subtract(X[j, 0], alpha, out=alpha)
        np.multiply(M[:, 0, j], alpha, out=X[j + 1])
        np.multiply(M[:, 1, j], X[j, 1], out=w)
        X[j + 1] += w
        E[j + 1] = E[j]
        _rescale_where([X[j + 1, 0], X[j + 1, 1]], E[j + 1])
    return X, E


# ---------------------------------------------------------------------------
# Gram factors
# ---------------------------------------------------------------------------

def fold_factor(factor, other, scale):
    """Lower Cholesky factor of F F^T + scale^2 O O^T, for the factors
    F = ``factor`` and O = ``other`` given as (l11, l21, l22): two rank-one
    updates, by the columns (o11, o21) and (0, o22) of scale * O."""
    l11, l21, l22 = _chol_rank1_update(factor[0], factor[1], factor[2],
                                       scale * other[0], scale * other[1])
    return _chol_rank1_update(l11, l21, l22, np.zeros_like(l11), scale * other[2])


def gram_fold_per_segment(run, run_exp, local, seg_exp):
    """The running Gram factor ``run`` (3, columns) in units 2^run_exp
    folded with the segment factors ``local`` (3, segments, columns), segment
    s in units 2^seg_exp[s], one segment after the other: each folds onto the
    running factor in the running factor's units, which ``_rescale_where``
    then updates.  Returns the factor at each segment start (3, segments,
    columns) and its exponents, then the final factor and its exponent."""
    start = np.empty(local.shape)
    start_exp = np.empty(seg_exp.shape, dtype=np.int64)
    run, run_exp = np.array(run, dtype=np.float64), np.array(run_exp, dtype=np.int64)
    for s in range(local.shape[1]):
        start[:, s], start_exp[s] = run, run_exp
        run = np.array(fold_factor(run, local[:, s], np.ldexp(1.0, seg_exp[s] - run_exp)))
        _rescale_where(list(run), run_exp)
    return start, start_exp, run, run_exp


def cut_logs_per_segment(pieces, tails, seg_exp, cseg, acc, acc_exp):
    """``engine._cut_logs`` one segment after the other: the open sum is
    rescaled to each segment's units in turn, takes in the pieces of the
    segment's cuts, each cut writing its log and restarting the sum at zero,
    and then the segment's tail."""
    first = np.searchsorted(cseg, np.arange(len(tails) + 1))
    total, total_exp = np.array(acc, dtype=np.float64), np.array(acc_exp, dtype=np.int64)
    logs = np.empty(pieces.shape)
    with np.errstate(divide="ignore"):
        for s in range(len(tails)):
            e = seg_exp[s]
            total = np.ldexp(total, 2 * (total_exp - e))
            total_exp = e
            for k in range(first[s], first[s + 1]):
                total += pieces[k]
                logs[k] = np.log(total) + 2.0 * e * LN2
                total[:] = 0.0
            total += tails[s]
    return logs, total, total_exp


# ---------------------------------------------------------------------------
# truncated m-function
# ---------------------------------------------------------------------------

def m_function_per_shell(z: complex, N: int, beta: float, *, dist=None, lam: float = 0.0,
                         law: GrowthLaw | None = None, seed: int | None = None) -> complex:
    """``engine.m_function``'s value from the same draws, stepping the
    fundamental pair shell by shell in Python complex arithmetic with one
    power-of-two rescale common to both solutions, every
    ``_rescale_stride`` of the block's largest |a| shells."""
    if law is None:
        law = GrowthLaw.uniform_power(1.0, 1.0)
    u_cur, u_prev = 1.0 + 0.0j, 0.0 + 0.0j   # (u_0, u_{-1})
    v_cur, v_prev = 0.0 + 0.0j, 1.0 + 0.0j
    exps = np.zeros(1, dtype=np.int64)
    for n0, _, A, _ in _shell_blocks(dist, law, lam, N + 1, [(z, 0, 0)], seed, DOMAIN_WEYL):
        stride = int(_rescale_stride(np.abs(A).max()))
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
    return num / den
