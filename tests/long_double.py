"""Extended-precision recursions on the engine's own draws, for accuracy tests.

The entries come from ``engine._shell_blocks`` in float64 and are stepped in
numpy's long double (80-bit on x86), whose 64-bit mantissa and 15-bit
exponent hold the raw pair of these test sizes without rescaling, except in
the real-axis m-function, whose pair is rescaled by exact powers of two.
"""

import numpy as np

import antitree.engine as eng

EXTENDED = np.finfo(np.longdouble).eps <= 1e-18


def draws(dist, law, lam, N, columns, seed, domain, *, with_w=False):
    """The (N, columns) entries A and, ``with_w``, the weights W, as long doubles."""
    blocks = list(eng._shell_blocks(dist, law, lam, N, columns, seed, domain, with_w=with_w))
    A = np.concatenate([b[2] for b in blocks]).astype(np.longdouble)
    if not with_w:
        return A
    return A, np.concatenate([b[3] for b in blocks]).astype(np.longdouble)


def backward_log_norms(A, W, ns):
    """For the backward solution w seeded (w_N, w_{N-1}) = (0, 1): log of
    sum_{k < c} W_k w_k^2 at each checkpoint c in ``ns`` (rows), minus
    log(w_0^2 + w_{-1}^2) (one value per column)."""
    N, ncol = A.shape
    w_hi = np.zeros(ncol, dtype=np.longdouble)
    w_mid = np.ones(ncol, dtype=np.longdouble)
    terms = np.empty_like(W)
    for m in range(N - 1, -1, -1):
        terms[m] = W[m] * w_mid * w_mid
        w_hi, w_mid = w_mid, A[m] * w_mid - w_hi
    prefix = np.cumsum(terms, axis=0)   # row c - 1 sums the shells k < c
    return np.log(prefix[ns - 1]), np.log(w_hi * w_hi + w_mid * w_mid)


def forward_log_radius(A, ck, sk, ns):
    """log hypot(u_n - ck u_{n-1}, sk u_{n-1}) of the Dirichlet pair seeded
    (1, 0), at each checkpoint n in ``ns`` (rows)."""
    ncol = A.shape[1]
    ck, sk = np.longdouble(ck), np.longdouble(sk)
    u = np.ones(ncol, dtype=np.longdouble)
    p = np.zeros(ncol, dtype=np.longdouble)
    out = np.empty((len(ns), ncol), dtype=np.longdouble)
    at = {int(n): i for i, n in enumerate(ns)}
    for n, a in enumerate(A, 1):
        u, p = a * u - p, u
        i = at.get(n)
        if i is not None:
            out[i] = 0.5 * np.log((u - ck * p) ** 2 + (sk * p) ** 2)
    return out


def gram_log_dom(A, W, ns):
    """log of the top eigenvalue of the Gram sum sum_{n < c} W_n (u_n, v_n)^T (u_n, v_n)
    of the pair seeded (u_0, u_{-1}) = (1, 0), (v_0, v_{-1}) = (0, 1), at each
    checkpoint c in ``ns`` (rows)."""
    ncol = A.shape[1]
    u, u_prev = np.ones(ncol, dtype=np.longdouble), np.zeros(ncol, dtype=np.longdouble)
    v, v_prev = np.zeros(ncol, dtype=np.longdouble), np.ones(ncol, dtype=np.longdouble)
    g11, g12, g22 = (np.zeros(ncol, dtype=np.longdouble) for _ in range(3))
    out = np.empty((len(ns), ncol), dtype=np.longdouble)
    at = {int(n): i for i, n in enumerate(ns)}
    for n, (a, w) in enumerate(zip(A, W), 1):
        g11 += w * u * u
        g12 += w * u * v
        g22 += w * v * v
        u, u_prev = a * u - u_prev, u
        v, v_prev = a * v - v_prev, v
        i = at.get(n)
        if i is not None:
            # in units of the trace, whose square could overflow at depth
            tr = g11 + g22
            x11, x12, x22 = g11 / tr, g12 / tr, g22 / tr
            top = 0.5 * (x11 + x22) + np.sqrt((0.5 * (x11 - x22)) ** 2 + x12 * x12)
            out[i] = np.log(tr) + np.log(top)
    return out


def window_mean(A, trials):
    """Mean of 1/(u_n^2 + u_{n-1}^2) over the shells N/2 <= n <= N of the
    Dirichlet pair seeded (u_0, u_{-1}) = (1, 0), per column, then over each
    run of ``trials`` columns (one energy's)."""
    N, ncol = A.shape
    first = max(N // 2, 1)
    u = np.ones(ncol, dtype=np.longdouble)
    p = np.zeros(ncol, dtype=np.longdouble)
    acc = np.zeros(ncol, dtype=np.longdouble)
    for n, a in enumerate(A, 1):
        u, p = a * u - p, u
        if n >= first:
            acc += 1 / (u * u + p * p)
    return (acc / (N - first + 1)).reshape(-1, trials).mean(axis=1)


def m_function(A, beta):
    """(beta v_N + v_{N+1}) / (beta u_N + u_{N+1}) for the fundamental pair
    seeded (u_0, u_{-1}) = (1, 0), (v_0, v_{-1}) = (0, 1) and stepped by the
    real entries A[0..N] (one column).  Every 64 shells one power-of-two
    rescale, common to both solutions, keeps the pair in range."""
    u, u_prev = np.longdouble(1), np.longdouble(0)
    v, v_prev = np.longdouble(0), np.longdouble(1)
    for n, a in enumerate(A[:, 0], 1):
        u, u_prev = a * u - u_prev, u
        v, v_prev = a * v - v_prev, v
        if n % 64 == 0:
            _, e = np.frexp(max(abs(u), abs(u_prev), abs(v), abs(v_prev)))
            u, u_prev, v, v_prev = (np.ldexp(x, -e) for x in (u, u_prev, v, v_prev))
    beta = np.longdouble(beta)
    return (beta * v_prev + v) / (beta * u_prev + u)


def gram_prefix_sums(items, exps):
    """Entries (g11, g12, g22) of the Gram matrices sum_{i <= j} L_i L_i^T
    4^exps[i] for the lower factors ``items`` (3, n, columns), as
    (3, n, columns) long doubles in units 4^to, and ``to``, the running
    maximum of ``exps``."""
    to = np.maximum.accumulate(exps, axis=0)
    l11, l21, l22 = items.astype(np.longdouble)
    G = np.array([l11 * l11, l11 * l21, l21 * l21 + l22 * l22])
    out = np.empty_like(G)
    total = np.zeros(G[:, 0].shape, dtype=np.longdouble)
    for j in range(len(exps)):
        prev = to[j - 1] if j else to[0]
        total = (total * np.ldexp(np.longdouble(1), 2 * (prev - to[j]))
                 + G[:, j] * np.ldexp(np.longdouble(1), 2 * (exps[j] - to[j])))
        out[:, j] = total
    return out, to


def fold_segments(A, stride, c, u, p, exps):
    """The state (u, p) * 2^exps stepped through the entries A (shells x
    columns, real or complex) one segment of ``stride`` shells after the
    other: each segment's map is formed from its seeds (1, 0) and (c, 1) and
    applied to the state's coefficients (u - c p, p), and the state is
    rescaled by a power of two at each segment end.  Returns the states at
    the segment starts and after the last segment (segments + 1, 2, columns)
    and their exponents, as ``engine._FoldReplay`` keeps them."""
    L, ncol = A.shape
    nseg = -(-L // stride)
    A = A.astype(np.clongdouble if np.iscomplexobj(A) else np.longdouble)
    c = A.dtype.type(c)
    # the maps of all segments at once, the short last one padded by steps
    # that it skips
    cur = np.zeros((2, nseg, ncol), dtype=A.dtype)
    prev = np.zeros_like(cur)
    cur[0], cur[1], prev[1] = 1, c, 1
    for i in range(min(stride, L)):
        rows = np.arange(nseg) * stride + i
        live = rows < L
        a = A[rows[live]]
        cur[:, live], prev[:, live] = a * cur[:, live] - prev[:, live], cur[:, live]
    X = np.empty((nseg + 1, 2, ncol), dtype=A.dtype)
    E = np.empty((nseg + 1, ncol), dtype=np.int64)
    X[0, 0], X[0, 1], E[0] = u, p, exps
    for j in range(nseg):
        y0, y1 = X[j, 0] - c * X[j, 1], X[j, 1]
        X[j + 1, 0] = cur[0, j] * y0 + cur[1, j] * y1
        X[j + 1, 1] = prev[0, j] * y0 + prev[1, j] * y1
        _, e = np.frexp(np.abs(X[j + 1]).max(axis=0))
        X[j + 1] *= np.ldexp(np.longdouble(1), -e)
        E[j + 1] = E[j] + e
    return X, E
