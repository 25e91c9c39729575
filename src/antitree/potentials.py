"""Single-site potential laws and the effective quantities they induce.

For a mean-zero law of the potential ``v`` supported in [-1, 1] and a
disorder strength ``lam > 0``, every energy E outside the scaled support
``lam*[v_minus, v_plus]`` yields a reciprocal inverse moment

    h(E, lam) = 1 / E_v[ 1/(E - lam*v) ],

the harmonic average of the shifted variable ``E - lam*v``.  Where |h| < 2
the free dynamics is elliptic with phase ``k = arccos(h/2)``, and the spread
of ``1/(E - lam*v)`` around ``1/h``,

    sigma2_eff = Var_v[ 1/(E - lam*v) ],

sets the growth constant

    gamma = h^4 * sigma2_eff / (2 * (4 - h^2))

of the transfer-matrix products.  The energy window

    I(lam) = { E outside lam*[v_minus, v_plus] : |h| < 2 }

consists of at most two intervals; its sub-window

    J(lam, C) = { E in I(lam) : gamma / C <= 1/2 }

separates singular continuous from pure point behaviour at growth rate
dimension 2.  All of these are computed here from closed forms for the
continuous laws (uniform, triangular), power series in lam/E at small
disorder, and from exact weighted sums for the discrete ones, with
bisection for the window endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DistributionError, DomainError

# Energies are never evaluated closer than this to the scaled support edge:
# the inverse moment may diverge there and h tends to its edge limit.
EDGE_MARGIN = 1e-9

_ATOL_WEIGHTS = 1e-12
_BISECT_TOL_BAND = 1e-10
_BISECT_TOL_J = 1e-8


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

# variance of the continuous laws, whose support is [-1, 1]
_CONTINUOUS_VARIANCE = {"uniform": 1.0 / 3.0, "triangular": 1.0 / 6.0}
_DISCRETE_KINDS = ("bernoulli", "discrete")


@dataclass(frozen=True)
class PotentialDistribution:
    """A single-site law: two-point, uniform, triangular or finite discrete.

    ``atoms`` is the (value, weight) table of the discrete kinds and is
    empty for the continuous kinds, which are known by name and have
    closed-form inverse moments.  The support edges ``v_minus`` and
    ``v_plus`` and the variance ``sigma2`` are derived, not given: from the
    atoms for the discrete kinds, and for the continuous kinds from the
    kind (support [-1, 1], variance 1/3 uniform or 1/6 triangular).
    """

    kind: str
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind not in (*_DISCRETE_KINDS, *_CONTINUOUS_VARIANCE):
            raise DistributionError(f"unknown distribution kind {self.kind!r}")
        if self.is_discrete != bool(self.atoms):
            raise DistributionError(f"a {self.kind} law needs atoms" if self.is_discrete
                                    else f"a {self.kind} law takes no atoms")
        if not (-1.0 <= self.v_minus < 0.0 < self.v_plus <= 1.0):
            raise DistributionError(
                f"support [{self.v_minus}, {self.v_plus}] must straddle 0 inside [-1, 1]"
            )
        if not (0.0 < self.sigma2 <= 1.0):
            raise DistributionError(f"variance {self.sigma2} outside (0, 1]")
        if self.is_discrete:
            w = math.fsum(wt for _, wt in self.atoms)
            if abs(w - 1.0) > _ATOL_WEIGHTS:
                raise DistributionError(f"atom weights sum to {w}, not 1")
            if any(wt <= 0.0 for _, wt in self.atoms):
                raise DistributionError("atom weights must be positive")
            if any(not (-1.0 <= v <= 1.0) for v, _ in self.atoms):
                raise DistributionError("atom values must lie in [-1, 1]")
            mean = math.fsum(v * wt for v, wt in self.atoms)
            if abs(mean) > _ATOL_WEIGHTS:
                raise DistributionError(f"law has mean {mean}, not 0")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def bernoulli() -> "PotentialDistribution":
        """Symmetric two-point law on {-1, +1}."""
        return PotentialDistribution("bernoulli", ((-1.0, 0.5), (1.0, 0.5)))

    @staticmethod
    def uniform() -> "PotentialDistribution":
        """Uniform law on [-1, 1], variance 1/3."""
        return PotentialDistribution("uniform")

    @staticmethod
    def triangular() -> "PotentialDistribution":
        """Symmetric triangular law with density 1 - |v| on [-1, 1], variance 1/6."""
        return PotentialDistribution("triangular")

    @staticmethod
    def discrete(atoms) -> "PotentialDistribution":
        """Finite mean-zero law from a (value, weight) table."""
        return PotentialDistribution("discrete", tuple((float(v), float(w)) for v, w in atoms))

    # -- derived values ----------------------------------------------------
    # cached on the instance: the window bisections read the edges of one
    # law thousands of times per call

    @cached_property
    def is_discrete(self) -> bool:
        return self.kind in _DISCRETE_KINDS

    @cached_property
    def v_minus(self) -> float:
        return min(v for v, _ in self.atoms) if self.is_discrete else -1.0

    @cached_property
    def v_plus(self) -> float:
        return max(v for v, _ in self.atoms) if self.is_discrete else 1.0

    @cached_property
    def sigma2(self) -> float:
        if self.is_discrete:
            return math.fsum(v * v * w for v, w in self.atoms)
        return _CONTINUOUS_VARIANCE[self.kind]

    def support_components(self, lam: float) -> list[tuple[float, float]]:
        """Connected components of lam * supp(law), as closed intervals."""
        if self.is_discrete:
            pts = sorted(lam * v for v, _ in self.atoms)
            return [(p, p) for p in pts]
        return [(lam * self.v_minus, lam * self.v_plus)]


def sample(dist: PotentialDistribution, rng: np.random.Generator, size=None, out=None):
    """Draw from the law; a scalar for ``size=None``, else an ndarray.

    ``out``, a C-contiguous float64 array whose shape stands for ``size``,
    receives the draws and is returned.  The uniform law fills it in place
    as -1 + 2u from the stream's doubles u in [0, 1): 2u is exact, so these
    are ``rng.uniform(-1, 1)``'s draws bit for bit, without its temporary.
    """
    if out is not None:
        size = out.shape
    if dist.kind == "uniform":
        if out is None:
            return rng.uniform(-1.0, 1.0, size=size)
        rng.random(out=out)
        out *= 2.0
        out -= 1.0
        return out
    if dist.kind == "triangular":
        draws = rng.triangular(-1.0, 0.0, 1.0, size=size)
    else:
        values = np.array([v for v, _ in dist.atoms])
        weights = np.array([w for _, w in dist.atoms])
        draws = rng.choice(values, size=size, p=weights)
    if out is None:
        return draws
    out[...] = draws
    return out


# ---------------------------------------------------------------------------
# inverse moments
# ---------------------------------------------------------------------------

def _hull_side(dist: PotentialDistribution, E: float, lam: float) -> float:
    """Side of the scaled support hull lam*[v_minus, v_plus] that E lies on:
    +1 above, -1 below, 0 in a gap of a discrete law; the sign of E at lam = 0.

    Raises DomainError where the inverse moments are undefined: non-finite
    input, lam < 0, E = lam = 0, or E inside the hull and not in a gap at
    least the edge margin away from every atom.
    """
    if not (math.isfinite(E) and math.isfinite(lam)):
        raise DomainError(f"E = {E} and lam = {lam} must be finite", reason="nonfinite")
    if not lam >= 0.0:
        raise DomainError("disorder strength must be >= 0", reason="lambda")
    if lam == 0.0:
        if E == 0.0:
            raise DomainError("E = 0 with lam = 0 is singular", reason="inside_support")
        return 1.0 if E > 0.0 else -1.0
    lo, hi = lam * dist.v_minus, lam * dist.v_plus
    margin = EDGE_MARGIN * max(1.0, lam)
    if E >= hi + margin:
        return 1.0
    if E <= lo - margin:
        return -1.0
    # inside the closed scaled-support hull: denominators change sign (or the
    # evaluation sits within the edge margin where the moment may diverge),
    # except in gaps of a discrete law, where the moments are finite
    if dist.is_discrete and all(abs(E - lam * v) >= margin for v, _ in dist.atoms):
        return 0.0
    raise DomainError(
        f"E = {E} lies in the scaled support region [{lo}, {hi}]",
        reason="inside_support",
    )


def inverse_moment(dist: PotentialDistribution, E: float, lam: float) -> float:
    """E_v[ 1/(E - lam*v) ], by closed form (a series below |lam/E| =
    _SERIES_T) or exact weighted sum.

    Outside the scaled support this is finite and strictly decreasing in E on
    every component of the complement; it may legitimately vanish inside a
    support gap, in which case h = 1/inverse_moment is an infinity.
    """
    _hull_side(dist, E, lam)
    if lam == 0.0:
        return 1.0 / E
    if dist.is_discrete:
        return math.fsum(w / (E - lam * v) for v, w in dist.atoms)
    if abs(lam / E) < _SERIES_T:
        return _horner(_SERIES[dist.kind]["m1"], (lam / E) ** 2) / E
    if dist.kind == "uniform":
        return math.log((E + lam) / (E - lam)) / (2.0 * lam)
    # triangular, density 1 - |v|
    x = lam / E
    return ((1.0 + x) * math.log1p(x) + (1.0 - x) * math.log1p(-x)) / (lam * x)


def second_inverse_moment(dist: PotentialDistribution, E: float, lam: float) -> float:
    """E_v[ 1/(E - lam*v)^2 ], as inverse_moment computes the first."""
    _hull_side(dist, E, lam)
    if lam == 0.0:
        return 1.0 / (E * E)
    if dist.is_discrete:
        return math.fsum(w / (E - lam * v) ** 2 for v, w in dist.atoms)
    if abs(lam / E) < _SERIES_T:
        return _horner(_SERIES[dist.kind]["m2"], (lam / E) ** 2) / (E * E)
    if dist.kind == "uniform":
        return 1.0 / (E * E - lam * lam)
    return math.log(E * E / (E * E - lam * lam)) / (lam * lam)


def _horner(coeffs: tuple[float, ...], t2: float) -> float:
    """sum_n coeffs[n] t2^n, by Horner's rule."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t2 + c
    return acc


def _even_series(even_moment) -> dict[str, tuple[float, ...]]:
    """Coefficients of E*m1, E^2*m2 and E^2 Var[1/(E - lam*v)] as power series
    in t^2, t = lam/E, for a symmetric law with even moments mu_2n =
    even_moment(n), by index n = 0.._SERIES_TERMS.

    Expanding 1/(E - lam*v) in powers of t v gives E*m1 = sum mu_2n t^(2n)
    and E^2*m2 = sum (2n+1) mu_2n t^(2n), so the variance's coefficient is
    (2n+1) mu_2n - sum_{i+j=n} mu_2i mu_2j; its first two are 0 and the
    law's variance mu_2.
    """
    mu = [even_moment(n) for n in range(_SERIES_TERMS + 1)]
    m2 = tuple((2 * n + 1) * mu[n] for n in range(_SERIES_TERMS + 1))
    var = tuple(math.fsum([m2[n]] + [-mu[i] * mu[n - i] for i in range(n + 1)])
                for n in range(_SERIES_TERMS + 1))
    return {"m1": tuple(mu), "m2": m2, "var": var}


# Below |lam/E| = _SERIES_T the continuous laws' closed forms cancel: m1
# errs by about 1e-4 at |t| = 1e-12, and so does the triangular m2 at 1e-6;
# m2 - m1^2 errs by up to 2e-13 at t = 0.3 and by 3.7 at t = 1e-4.  The
# series are summed there; at |t| = 0.4 the first omitted term is about
# 2e-19 of the first.
_SERIES_T = 0.4
_SERIES_TERMS = 24
_SERIES = {
    "uniform": _even_series(lambda n: 1.0 / (2 * n + 1)),
    "triangular": _even_series(lambda n: 1.0 / ((2 * n + 1) * (n + 1))),
}


def _inverse_variance(dist: PotentialDistribution, E: float, lam: float, m1: float) -> float:
    """Var_v[ 1/(E - lam*v) ] given m1 = inverse_moment(dist, E, lam).

    Discrete laws sum centred squares and continuous laws sum the series in
    t = lam/E below |t| = _SERIES_T; both keep full relative precision at
    small disorder.  Above it continuous laws take m2 - m1^2 from the closed
    forms.
    """
    if dist.is_discrete:
        return math.fsum(w * (1.0 / (E - lam * v) - m1) ** 2 for v, w in dist.atoms)
    if abs(lam / E) < _SERIES_T:
        return _horner(_SERIES[dist.kind]["var"], (lam / E) ** 2) / (E * E)
    return max(0.0, second_inverse_moment(dist, E, lam) - m1 * m1)


# ---------------------------------------------------------------------------
# effective quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EffectiveQuantities:
    """The (E, lam)-derived scalars driving the transfer-matrix dynamics."""

    E: float
    lam: float
    h: float            # harmonic average, the effective band energy 2 cos k
    sigma2_eff: float   # variance of 1/(E - lam*v)
    gamma: float        # growth constant h^4 sigma2_eff / (2 (4 - h^2))
    k: float            # phase in (0, pi) with 2 cos k = h

    @property
    def sin_k(self) -> float:
        return math.sin(self.k)


def effective_quantities(dist: PotentialDistribution, E: float, lam: float) -> EffectiveQuantities:
    """Compute h, sigma2_eff, gamma and k for an energy in the valid window.

    Raises DomainError with reason ``inside_support`` or ``h_too_large`` when
    E is not in I(lam).  lam = 0 is the analytic degenerate limit: h = E,
    sigma2_eff = gamma = 0, valid for |E| < 2.
    """
    if lam == 0.0:
        if not abs(E) < 2.0:
            raise DomainError(f"|h| = |E| = {abs(E)} >= 2", reason="h_too_large")
        k = math.acos(E / 2.0)
        return EffectiveQuantities(E=E, lam=lam, h=E, sigma2_eff=0.0, gamma=0.0, k=k)
    if _hull_side(dist, E, lam) == 0.0:
        # the window excludes gaps of a discrete law, where the moments are finite
        raise DomainError(f"E = {E} lies in a gap of the scaled support hull",
                          reason="inside_support")
    m1 = inverse_moment(dist, E, lam)
    if m1 == 0.0:
        raise DomainError("inverse moment vanishes: h is infinite", reason="h_too_large")
    h = 1.0 / m1
    if abs(h) >= 2.0:
        raise DomainError(f"|h| = {abs(h)} >= 2: E outside I(lambda)", reason="h_too_large")
    sigma2_eff = _inverse_variance(dist, E, lam, m1)
    gamma = h ** 4 * sigma2_eff / (2.0 * (4.0 - h * h))
    k = math.acos(h / 2.0)
    return EffectiveQuantities(E=E, lam=lam, h=h, sigma2_eff=sigma2_eff, gamma=gamma, k=k)


# ---------------------------------------------------------------------------
# interval sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_closed: bool = False
    hi_closed: bool = False

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, x: float) -> bool:
        if self.lo < x < self.hi:
            return True
        if x == self.lo and self.lo_closed:
            return True
        if x == self.hi and self.hi_closed:
            return True
        return False

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class IntervalSet:
    intervals: tuple[Interval, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.intervals, self.intervals[1:]):
            if not a.hi <= b.lo:
                raise DomainError("intervals overlap or are unsorted")

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x: float) -> bool:
        return any(iv.contains(x) for iv in self.intervals)

    @property
    def total_length(self) -> float:
        return sum(iv.length for iv in self.intervals)


def _bisect(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Root of a monotone f with f(lo), f(hi) of opposite sign: the final
    bracket's midpoint, and its end on lo's side.  hi may lie below lo; the
    midpoints do not depend on their order."""
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if abs(hi - lo) <= tol or (fm := f(mid)) == 0.0:
            return mid, lo
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi), lo


def _band_pieces(dist: PotentialDistribution, lam: float, band_side=False) -> list[Interval]:
    """Closed pieces of {E outside lam*supp : |h| <= 2}, one bisection per
    crossing of the inverse moment through +-1/2 on each complement
    component (the inverse moment is strictly decreasing there); a crossing
    is its final bracket's midpoint, or with ``band_side`` its end in the band.

    Brackets sit four edge margins from the support: at one margin, the
    rounded sum edge + margin can land inside the margin inverse_moment
    rejects.
    """
    margin = 4.0 * EDGE_MARGIN * max(1.0, lam)
    comps: list[tuple[float, float]] = []
    sup = dist.support_components(lam)
    comps.append((-math.inf, sup[0][0]))
    for (a_prev, b_prev), (a_next, _) in zip(sup, sup[1:]):
        comps.append((b_prev, a_next))
    comps.append((sup[-1][1], math.inf))

    pieces: list[Interval] = []
    span = 2.0 + lam * max(abs(dist.v_minus), abs(dist.v_plus)) + 1.0
    for lo, hi in comps:
        blo = lo + margin if math.isfinite(lo) else -span
        bhi = hi - margin if math.isfinite(hi) else span
        if blo >= bhi:
            continue
        m_lo = inverse_moment(dist, blo, lam)
        m_hi = inverse_moment(dist, bhi, lam)
        # m decreases from m_lo to m_hi; {m >= 1/2} is a left piece and
        # {m <= -1/2} a right piece of the component
        if m_lo >= 0.5:
            if m_hi >= 0.5:
                right = bhi
            else:
                right = _bisect(lambda e: inverse_moment(dist, e, lam) - 0.5,
                                blo, bhi, _BISECT_TOL_BAND)[band_side]
            left = lo if math.isfinite(lo) else blo
            pieces.append(Interval(left, right, lo_closed=True, hi_closed=True))
        if m_hi <= -0.5:
            if m_lo <= -0.5:
                left = blo
            else:
                # bracketed from the band's side, whose end _bisect returns second
                left = _bisect(lambda e: inverse_moment(dist, e, lam) + 0.5,
                               bhi, blo, _BISECT_TOL_BAND)[band_side]
            right = hi if math.isfinite(hi) else bhi
            pieces.append(Interval(left, right, lo_closed=True, hi_closed=True))
    return pieces


def i_lambda(dist: PotentialDistribution, lam: float) -> IntervalSet:
    """The valid energy window I(lam): outside the scaled support, |h| < 2.

    The window consists of at most two open intervals hugging the scaled
    support; either may be empty at large disorder.  They are the band
    pieces on the two unbounded components of the complement of the
    support, opened at the nearest energies that _hull_side accepts and at
    the band side of their edge brackets: every energy inside passes
    effective_quantities.
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise DomainError("i_lambda needs a finite lam > 0", reason="lambda")
    lo, hi, margin = lam * dist.v_minus, lam * dist.v_plus, EDGE_MARGIN * max(1.0, lam)
    pieces = _band_pieces(dist, lam, band_side=True)
    return IntervalSet(tuple([Interval(iv.lo, lo - margin) for iv in pieces if iv.hi <= lo]
                             + [Interval(hi + margin, iv.hi) for iv in pieces if iv.lo >= hi]))


def j_lambda(dist: PotentialDistribution, lam: float, C: float) -> IntervalSet:
    """The sub-window J = { E in I(lam) : gamma <= C/2 }.

    gamma diverges at the outer edges of I(lam), so J never touches them;
    crossings gamma = C/2 are located by scan plus bisection.
    """
    if not (C > 0.0 and math.isfinite(C)):
        raise DomainError("j_lambda needs a finite C > 0", reason="C")
    window = i_lambda(dist, lam)
    half = 0.5 * C
    out = []
    for iv in window.intervals:
        grid = np.linspace(iv.lo, iv.hi, 2001)
        vals = np.array([effective_quantities(dist, float(e), lam).gamma for e in grid])
        below = vals <= half

        def gamma_minus(e):
            return effective_quantities(dist, float(e), lam).gamma - half

        i = 0
        n = len(grid)
        while i < n:
            if not below[i]:
                i += 1
                continue
            j = i
            while j + 1 < n and below[j + 1]:
                j += 1
            # endpoints: refine by bisection against the neighbouring grid
            # point unless the run touches the window boundary
            if i == 0:
                lo, lo_closed = iv.lo, False
            else:
                lo, lo_closed = _bisect(gamma_minus, grid[i - 1], grid[i], _BISECT_TOL_J)[0], True
            if j == n - 1:
                hi, hi_closed = iv.hi, False
            else:
                hi, hi_closed = _bisect(gamma_minus, grid[j], grid[j + 1], _BISECT_TOL_J)[0], True
            if lo < hi:
                out.append(Interval(float(lo), float(hi),
                                    lo_closed=lo_closed, hi_closed=hi_closed))
            i = j + 1
    out.sort(key=lambda iv: iv.lo)
    return IntervalSet(tuple(out))
