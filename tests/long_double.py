"""Extended-precision recursions on the engine's own draws, for accuracy tests.

The entries come from ``engine._shell_blocks`` in float64 and are stepped in
numpy's long double (80-bit on x86), whose 64-bit mantissa and 15-bit
exponent hold the raw pair of these test sizes without rescaling.
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
