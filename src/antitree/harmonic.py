"""Moment laws of the shell harmonic mean, checked three ways.

For i.i.d. variables X_j in a sign-definite interval [a, b] the harmonic
mean M_n = n / sum(1/X_j) concentrates around the harmonic average
h = 1/E(1/X) with explicit envelopes driven by sigma2 = Var(1/X):

    0 < E(M_n - h) <= b h^2 sigma2 / n,      E(M_n - h) = h^3 sigma2/n + O(n^-2)
    a^2 h^2 sigma2/n <= E((M_n - h)^2) <= b^2 h^2 sigma2/n,
    E((M_n - h)^2) = h^4 sigma2/n + O(n^-2),
    |E((M_n - h)^3)| = O(n^-2),
    E((M_n - h)^{2m}) <= (2m)!/(2^m m!) * h^{2m} b^{2m} / (a^{2m} n^m).

Here X_j = E - lam*v_j, so a = |E - lam*v_plus| and b = |E - lam*v_minus|
when E is above the scaled support (mirrored below).  The module computes
the theoretical envelopes, exact moments for discrete laws by multiset
enumeration, and Monte Carlo estimates with jackknife errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import BLOCK, _shell_stats_block
from .errors import DomainError, SizeLimitError
from .potentials import (
    PotentialDistribution,
    _hull_side,
    _inverse_variance,
    inverse_moment,
)
from .streams import DOMAIN_MOMENT, seed_stream

_ENUM_GUARD = 10 ** 7
_JACKKNIFE_BLOCK = 100   # values per leave-one-out block of the jackknife


@dataclass(frozen=True)
class MomentBounds:
    """Envelope values for the moments of M_n - h at sample count n."""

    n: int
    h: float
    sigma2: float          # Var(1/X)
    a: float               # min |X|
    b: float               # max |X|
    first_upper: float     # bound on |E(M_n - h)|
    first_asym: float      # signed target of n * E(M_n - h): h^3 sigma2
    second_lo: float
    second_hi: float
    second_asym: float     # target of n * E((M_n - h)^2): h^4 sigma2
    sign: float            # +1 above the support, -1 below

    def even_envelope(self, m: int) -> float:
        """Upper bound for E((M_n - h)^{2m})."""
        if m < 1:
            raise DomainError("need m >= 1")
        coeff = math.factorial(2 * m) / (2 ** m * math.factorial(m))
        return coeff * (self.h * self.b / self.a) ** (2 * m) / self.n ** m


def moment_bounds(dist: PotentialDistribution, E: float, lam: float, n: int) -> MomentBounds:
    """Theoretical moment envelopes for the shell harmonic mean at size n."""
    if n < 1:
        raise DomainError("need n >= 1")
    sign = _hull_side(dist, E, lam)
    if sign == 0.0:
        raise DomainError("E inside the scaled support hull: X changes sign",
                          reason="inside_support")
    lo = abs(E - lam * dist.v_plus)
    hi = abs(E - lam * dist.v_minus)
    a, b = min(lo, hi), max(lo, hi)
    m1 = inverse_moment(dist, E, lam)
    sigma2 = _inverse_variance(dist, E, lam, m1)
    h = 1.0 / m1
    h2 = h * h
    return MomentBounds(
        n=n, h=h, sigma2=sigma2, a=a, b=b,
        first_upper=b * h2 * sigma2 / n,
        first_asym=h * h2 * sigma2,
        second_lo=a * a * h2 * sigma2 / n,
        second_hi=b * b * h2 * sigma2 / n,
        second_asym=h2 * h2 * sigma2,
        sign=sign,
    )


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int):
    """Weak compositions of ``total`` into ``parts`` nonnegative integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_moments(dist: PotentialDistribution, E: float, lam: float, n: int) -> dict:
    """Exact E((M_n - h)^j), j = 1..3, for a discrete law.

    The harmonic mean is symmetric in the draws, so outcomes compress to
    atom multiplicity vectors with multinomial weights.
    """
    if not dist.is_discrete:
        raise DomainError("exact enumeration needs a discrete law")
    k = len(dist.atoms)
    if k ** n > _ENUM_GUARD:
        raise SizeLimitError(f"{k}^{n} outcome tuples exceed the enumeration guard")
    h = moment_bounds(dist, E, lam, n).h
    rates = [1.0 / (E - lam * v) for v, _ in dist.atoms]
    weights = [w for _, w in dist.atoms]
    acc = [0.0, 0.0, 0.0]
    for counts in _compositions(n, k):
        log_w = math.lgamma(n + 1)
        inv_sum = 0.0
        for c, w, r in zip(counts, weights, rates):
            log_w += c * math.log(w) - math.lgamma(c + 1)
            inv_sum += c * r
        m_val = n / inv_sum
        weight = math.exp(log_w)
        dev = m_val - h
        acc[0] += weight * dev
        acc[1] += weight * dev * dev
        acc[2] += weight * dev * dev * dev
    return {"n": n, "h": h, "m1": acc[0], "m2": acc[1], "m3": acc[2]}


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentReport:
    """Monte Carlo moments of M_n - h with jackknife errors and envelopes."""

    n: int
    trials: int
    h: float
    m1: float
    m1_stderr: float
    m2: float
    m2_stderr: float
    m3: float
    m3_stderr: float
    bounds: MomentBounds
    exact: dict | None = None
    flags: dict = field(default_factory=dict)


def _jackknife(values: np.ndarray) -> tuple[float, float]:
    """Mean and leave-one-block-out jackknife standard error."""
    T = len(values)
    nb = max(2, T // _JACKKNIFE_BLOCK)
    usable = nb * (T // nb)
    blocks = values[:usable].reshape(nb, -1)
    total = blocks.sum()
    mean = total / usable
    per = blocks.shape[1]
    loo = (total - blocks.sum(axis=1)) / (usable - per)
    se = math.sqrt((nb - 1) / nb * float(((loo - loo.mean()) ** 2).sum()))
    return float(mean), se


def _harmonic_means(dist: PotentialDistribution, E: float, lam: float, n: int,
                    trials: int, seed: int) -> np.ndarray:
    """``trials`` harmonic means of n draws each, from the stream keyed (seed,
    DOMAIN_MOMENT, n), sampled in blocks of at most BLOCK shells that
    continue the stream, so memory stays bounded in ``trials``."""
    gen = seed_stream(seed, DOMAIN_MOMENT, n)
    sizes = np.full(min(trials, BLOCK), float(n))
    out = np.empty(trials)
    for t0 in range(0, trials, BLOCK):
        t1 = min(trials, t0 + BLOCK)
        _shell_stats_block(dist, E, lam, sizes[:t1 - t0], gen, out=(out[t0:t1], None))
    return out


def mc_moments(dist: PotentialDistribution, E: float, lam: float, n: int,
               trials: int, seed: int) -> MomentReport:
    """Sample `trials` harmonic means of size n and report centered moments,
    with exact moments when the enumeration guard allows.  The shells are
    drawn by the engine's shell sampler (``_harmonic_means``)."""
    if trials < 10 ** 3:
        raise DomainError("need at least 1000 trials")
    bounds = moment_bounds(dist, E, lam, n)
    h = bounds.h
    dev = _harmonic_means(dist, E, lam, n, trials, seed) - h
    m1, se1 = _jackknife(dev)
    m2, se2 = _jackknife(dev * dev)
    m3, se3 = _jackknife(dev ** 3)
    exact = None
    if dist.is_discrete and len(dist.atoms) ** n <= _ENUM_GUARD:
        exact = enumerate_moments(dist, E, lam, n)
    flags = {
        "first_moment_positive": bounds.sign * m1 > 0.0,
        "first_within_bound": abs(m1) <= bounds.first_upper + 3.0 * se1,
        "second_in_envelope": (bounds.second_lo - 3.0 * se2 <= m2 <= bounds.second_hi + 3.0 * se2),
    }
    return MomentReport(
        n=n, trials=trials, h=h, m1=m1, m1_stderr=se1, m2=m2, m2_stderr=se2,
        m3=m3, m3_stderr=se3, bounds=bounds, exact=exact, flags=flags,
    )
