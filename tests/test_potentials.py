"""Single-site laws, inverse moments, and the derived energy windows."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from antitree import (
    DistributionError,
    DomainError,
    GrowthLaw,
    InvalidLawError,
    PotentialDistribution,
    classify,
    density_estimate,
    effective_quantities,
    essential_spectrum,
    i_lambda,
    inverse_moment,
    j_lambda,
    lyapunov_batch,
    m_function,
    sample,
    second_inverse_moment,
    seed_stream,
)

from antitree.potentials import EDGE_MARGIN
from reference import inverse_moment_quadrature

BERN = PotentialDistribution.bernoulli()
UNI = PotentialDistribution.uniform()
TRI = PotentialDistribution.triangular()


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_builtin_laws_have_expected_parameters():
    # exact: the support [-1, 1] and the variances 1, 1/3 and 1/6
    assert (BERN.v_minus, BERN.v_plus, BERN.sigma2) == (-1.0, 1.0, 1.0)
    assert (UNI.v_minus, UNI.v_plus, UNI.sigma2) == (-1.0, 1.0, 1.0 / 3.0)
    assert (TRI.v_minus, TRI.v_plus, TRI.sigma2) == (-1.0, 1.0, 1.0 / 6.0)


def test_discrete_law_validation():
    d = PotentialDistribution.discrete([(-0.5, 0.4), (0.25, 0.4), (0.5, 0.2)])
    assert d.v_minus == -0.5 and d.v_plus == 0.5
    assert d.sigma2 == pytest.approx(0.4 * 0.25 + 0.4 * 0.0625 + 0.2 * 0.25)
    with pytest.raises(DistributionError):
        PotentialDistribution.discrete([(-1.0, 0.5), (1.0, 0.4)])  # weights != 1
    with pytest.raises(DistributionError):
        PotentialDistribution.discrete([(-1.0, 0.25), (1.0, 0.75)])  # mean != 0
    with pytest.raises(DistributionError):
        PotentialDistribution.discrete([(-2.0, 0.5), (2.0, 0.5)])  # outside [-1,1]


def test_a_law_built_from_its_fields_reads_its_support_from_its_atoms():
    # the support comes from the atoms: with the support [-1, 1] beside these
    # atoms, I(1) would be empty and E = 0.8 would lie in a "gap", where the
    # atoms give h = 0.4875
    law = PotentialDistribution("discrete", ((-0.5, 0.5), (0.5, 0.5)))
    assert law.v_minus == -0.5 and law.v_plus == 0.5 and law.sigma2 == 0.25
    assert len(i_lambda(law, 1.0).intervals) == 2
    assert effective_quantities(law, 0.8, 1.0).h == pytest.approx(0.4875, rel=1e-12)
    assert law == PotentialDistribution.discrete([(-0.5, 0.5), (0.5, 0.5)])


@st.composite
def _mean_zero_atoms(draw):
    """1-4 negative and 1-4 positive atoms in [-1, 1], weighted to mean zero."""
    side = st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(0.05, 1.0)), min_size=1,
                    max_size=4)
    neg, pos = draw(side), draw(side)
    # mass p on the positive side balances the mean of the negative side
    mean_neg = sum(v * w for v, w in neg) / sum(w for _, w in neg)
    mean_pos = sum(v * w for v, w in pos) / sum(w for _, w in pos)
    p = mean_neg / (mean_neg + mean_pos)
    atoms = ([(-v, (1.0 - p) * w / sum(w for _, w in neg)) for v, w in neg]
             + [(v, p * w / sum(w for _, w in pos)) for v, w in pos])
    return draw(st.permutations(atoms))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(atoms=_mean_zero_atoms())
def test_derived_support_and_variance_equal_the_constructor_formulas(atoms):
    # bit for bit the support and variance formulas of the atom table
    try:
        law = PotentialDistribution.discrete(atoms)
    except DistributionError:
        assume(False)
    values = [v for v, _ in atoms]
    stored = (min(values), max(values), math.fsum(v * v * w for v, w in atoms))
    assert [x.hex() for x in (law.v_minus, law.v_plus, law.sigma2)] == [x.hex() for x in stored]


@pytest.mark.parametrize("kind, atoms", [
    ("uniform", ((-1.0, 0.5), (1.0, 0.5))),
    ("triangular", ((-0.5, 0.5), (0.5, 0.5))),
    ("discrete", ()),
    ("bernoulli", ()),
])
def test_atoms_belong_to_the_discrete_kinds_alone(kind, atoms):
    with pytest.raises(DistributionError, match="atoms"):
        PotentialDistribution(kind, atoms)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_bernoulli_sample_support():
    draws = sample(BERN, seed_stream(1, 0), size=1000)
    assert set(np.unique(draws)) <= {-1.0, 1.0}


def test_uniform_sample_mean_clt():
    n = 10 ** 6
    draws = sample(UNI, seed_stream(2, 0), size=n)
    sigma = math.sqrt(1.0 / 3.0)
    assert abs(draws.mean()) < 4.0 * sigma / math.sqrt(n)


def test_triangular_sample_variance():
    # Var(v) for density 1 - |v| is the integral of v^2 (1 - |v|) over [-1, 1]: 1/6
    draws = sample(TRI, seed_stream(3, 0), size=10 ** 6)
    assert draws.var() == pytest.approx(1.0 / 6.0, rel=0.05)
    assert draws.min() >= -1.0 and draws.max() <= 1.0


@pytest.mark.parametrize("size", [1, 1001, 2 ** 20])
def test_uniform_draws_into_out_equal_numpy_uniform(size):
    # -1 + 2u formed in place is numpy's uniform(-1, 1) bit for bit, and it
    # leaves the stream where numpy's draw does
    gen, ref = seed_stream(29, size), seed_stream(29, size)
    out = np.empty(size)
    assert sample(UNI, gen, out=out) is out
    assert out.tobytes() == ref.uniform(-1.0, 1.0, size).tobytes()
    assert gen.bit_generator.random_raw() == ref.bit_generator.random_raw()


@pytest.mark.parametrize("dist", [BERN, UNI, TRI], ids=["bernoulli", "uniform", "triangular"])
def test_every_law_fills_out_with_its_sized_draws(dist):
    out = np.empty(37)
    assert sample(dist, seed_stream(31, 0), out=out) is out
    assert out.tobytes() == sample(dist, seed_stream(31, 0), size=37).tobytes()


# ---------------------------------------------------------------------------
# inverse moments
# ---------------------------------------------------------------------------

def test_inverse_moment_two_point_sum():
    # (1/1 + 1/3)/2
    assert inverse_moment(BERN, 2.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_inverse_moment_degenerate_disorder():
    assert inverse_moment(UNI, 2.0, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_inverse_moment_uniform_closed_form():
    assert inverse_moment(UNI, 2.0, 1.0) == pytest.approx(math.log(3.0) / 2.0, abs=1e-10)


def test_inverse_moment_rejects_support_region():
    with pytest.raises(DomainError) as err:
        inverse_moment(UNI, 0.3, 1.0)
    assert err.value.reason == "inside_support"


@pytest.mark.parametrize("dist", [UNI, TRI])
@pytest.mark.parametrize("E,lam", [(2.0, 1.0), (-2.5, 1.0), (1.8, 0.7), (-1.4, 0.9),
                                   # lam/E = 1e-2 .. 1e-8, where the closed forms
                                   # cancel (by 1.2 for the triangular m2 at 1e-8)
                                   (1.0, 1e-2), (-1.0, 1e-4), (1.0, 1e-6), (2.0, 2e-8)])
def test_closed_forms_match_quadrature(dist, E, lam):
    q1 = inverse_moment_quadrature(dist, E, lam, power=1)
    q2 = inverse_moment_quadrature(dist, E, lam, power=2)
    assert inverse_moment(dist, E, lam) == pytest.approx(q1, rel=1e-12)
    assert second_inverse_moment(dist, E, lam) == pytest.approx(q2, rel=1e-12)


@pytest.mark.parametrize("dist", [UNI, TRI], ids=["uniform", "triangular"])
def test_moments_at_vanishing_disorder_are_those_of_the_free_case(dist):
    # here the uniform closed form for m1 reads log(1) = 0 (h infinite), and
    # the triangular one divides by lam * x, which underflows to 0
    assert inverse_moment(dist, 1.0, 1e-300) == 1.0
    assert second_inverse_moment(dist, 1.0, 1e-300) == 1.0
    assert effective_quantities(dist, 1.0, 1e-300).h == 1.0


# ---------------------------------------------------------------------------
# effective quantities
# ---------------------------------------------------------------------------

def test_effective_quantities_two_point():
    eff = effective_quantities(BERN, 2.0, 1.0)
    # closed form (E^2 - lambda^2)/E and the exact two-point enumeration
    assert eff.h == pytest.approx(1.5, abs=1e-12)
    rates = [1.0 / (2.0 - 1.0), 1.0 / (2.0 + 1.0)]
    mean = 0.5 * sum(rates)
    var = 0.5 * sum((r - mean) ** 2 for r in rates)
    assert eff.sigma2_eff == pytest.approx(var, abs=1e-15)
    assert eff.sigma2_eff == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert eff.gamma == pytest.approx(9.0 / 56.0, abs=1e-12)
    assert eff.k == pytest.approx(math.acos(0.75), abs=1e-12)
    # structural identities
    assert eff.gamma == pytest.approx(eff.h ** 4 * eff.sigma2_eff / (2 * (4 - eff.h ** 2)),
                                      rel=1e-12)
    assert 4.0 - eff.h ** 2 == pytest.approx(4.0 * math.sin(eff.k) ** 2, rel=1e-12)


def test_effective_quantities_uniform_h():
    eff = effective_quantities(UNI, 2.0, 1.0)
    assert eff.h == pytest.approx(2.0 / math.log(3.0), abs=1e-10)


def test_effective_quantities_degenerate_disorder():
    eff = effective_quantities(BERN, 1.3, 0.0)
    assert eff.h == 1.3 and eff.sigma2_eff == 0.0 and eff.gamma == 0.0
    with pytest.raises(DomainError):
        effective_quantities(BERN, 2.5, 0.0)


def test_effective_quantities_error_reasons():
    with pytest.raises(DomainError) as big:
        effective_quantities(BERN, 2.5, 1.0)   # h = 2.1
    assert big.value.reason == "h_too_large"
    with pytest.raises(DomainError) as sup:
        effective_quantities(UNI, 0.5, 1.0)
    assert sup.value.reason == "inside_support"


NAN = math.nan


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: effective_quantities(BERN, NAN, 1.0), DomainError, id="eff-E"),
    pytest.param(lambda: effective_quantities(BERN, NAN, 0.0), DomainError, id="eff-E-free"),
    pytest.param(lambda: effective_quantities(BERN, 2.0, NAN), DomainError, id="eff-lam"),
    pytest.param(lambda: inverse_moment(UNI, NAN, 1.0), DomainError, id="moment-E"),
    pytest.param(lambda: lyapunov_batch(BERN, GrowthLaw.uniform_power(1.5), NAN, 1.0, 100,
                                        [0], seed=1), DomainError, id="lyapunov-E"),
    pytest.param(lambda: density_estimate(BERN, 1.0, GrowthLaw.uniform_power(1.5), [NAN],
                                          1000, 2, 1), DomainError, id="density-E"),
    pytest.param(lambda: density_estimate(BERN, NAN, GrowthLaw.uniform_power(1.5), [2.0],
                                          1000, 2, 1), DomainError, id="density-lam"),
    pytest.param(lambda: density_estimate(BERN, 1.0, GrowthLaw.uniform_power(1.5), [2.0],
                                          1000, 2, 1, halfwidth=NAN), DomainError,
                 id="density-halfwidth"),
    pytest.param(lambda: m_function(complex(NAN, 1.0), 10, 0.0), DomainError, id="m-z"),
    pytest.param(lambda: m_function(1j, 10, NAN), DomainError, id="m-beta"),
    pytest.param(lambda: m_function(1j, 10, math.inf), DomainError, id="m-beta-inf"),
    pytest.param(lambda: classify(BERN, 1.0, NAN, 1.0, 2.0), DomainError, id="classify-d"),
    pytest.param(lambda: classify(BERN, 1.0, 2.0, NAN, 2.0), DomainError, id="classify-C"),
    pytest.param(lambda: classify(BERN, 1.0, 2.0, 1.0, NAN), DomainError, id="classify-E"),
    pytest.param(lambda: i_lambda(BERN, NAN), DomainError, id="i-lambda"),
    pytest.param(lambda: j_lambda(BERN, 1.0, NAN), DomainError, id="j-C"),
    pytest.param(lambda: essential_spectrum(BERN, NAN), DomainError, id="ess-lambda"),
    pytest.param(lambda: GrowthLaw.uniform_power(NAN), InvalidLawError, id="law-d"),
    pytest.param(lambda: GrowthLaw.uniform_power(1.5, NAN), InvalidLawError, id="law-C"),
    pytest.param(lambda: GrowthLaw.uniform_power(math.inf), InvalidLawError, id="law-d-inf"),
])
def test_non_finite_inputs_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


def test_small_disorder_variance_matches_closed_form():
    # two-point law: Var 1/(E - lam v) = (lam / (E^2 - lam^2))^2 exactly
    E, lam = 1.0, 1e-4
    exact = (lam / (E * E - lam * lam)) ** 2
    assert effective_quantities(BERN, E, lam).sigma2_eff == pytest.approx(exact, rel=1e-10, abs=0.0)
    # three-atom law: the variance in exact rational arithmetic
    atoms = [(-1.0, 3.0 / 14.0), (0.2, 0.5), (0.4, 2.0 / 7.0)]
    rates = [(Fraction(w), 1 / (Fraction(E) - Fraction(lam) * Fraction(v))) for v, w in atoms]
    mean = sum(w * r for w, r in rates)
    exact = float(sum(w * (r - mean) ** 2 for w, r in rates))
    got = effective_quantities(PotentialDistribution.discrete(atoms), E, lam).sigma2_eff
    assert got == pytest.approx(exact, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("dist", [UNI, TRI], ids=["uniform", "triangular"])
def test_small_disorder_variance_of_continuous_laws(dist):
    mpmath = pytest.importorskip("mpmath")
    E, lam = 1.0, 1e-4
    with mpmath.workdps(50):
        e, lm = mpmath.mpf(E), mpmath.mpf(lam)
        if dist is UNI:
            m1 = mpmath.log((e + lm) / (e - lm)) / (2 * lm)
            m2 = 1 / (e * e - lm * lm)
        else:
            x = lm / e
            m1 = ((1 + x) * mpmath.log1p(x) + (1 - x) * mpmath.log1p(-x)) / (lm * x)
            m2 = mpmath.log(e * e / (e * e - lm * lm)) / (lm * lm)
        exact = float(m2 - m1 * m1)
    assert effective_quantities(dist, E, lam).sigma2_eff == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_infinite_h_in_support_gap():
    # two-point law at E = 0: the inverse moment vanishes (h would be an
    # infinity), and the whole support hull is excluded from the window
    assert inverse_moment(BERN, 0.0, 1.0) == 0.0
    with pytest.raises(DomainError) as err:
        effective_quantities(BERN, 0.0, 1.0)
    assert err.value.reason == "inside_support"
    with pytest.raises(DomainError) as gap:
        effective_quantities(BERN, 0.5, 1.0)  # finite moments, still excluded
    assert gap.value.reason == "inside_support"


# ---------------------------------------------------------------------------
# the window I(lambda)
# ---------------------------------------------------------------------------

def test_window_two_point():
    iset = i_lambda(BERN, 1.0)
    assert len(iset.intervals) == 2
    left, right = iset.intervals
    # the support side opens at the edge margin, the nearest energy accepted
    assert right.lo == 1.0 + EDGE_MARGIN
    assert right.hi == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-8)
    assert left.lo == pytest.approx(-1.0 - math.sqrt(2.0), abs=1e-8)
    assert left.hi == -1.0 - EDGE_MARGIN
    # open at every endpoint; |h| = 2 exactly is excluded
    assert not iset.contains(1.0)
    assert iset.contains(2.0)


def test_window_uniform():
    iset = i_lambda(UNI, 1.0)
    edge = (math.e + 1.0) / (math.e - 1.0)
    assert iset.intervals[1].hi == pytest.approx(edge, abs=1e-8)
    assert iset.intervals[0].lo == pytest.approx(-edge, abs=1e-8)


def test_window_triangular_disappears():
    # the edge value of h is lambda / (2 ln 2), so the window dies at 4 ln 2
    assert i_lambda(TRI, 3.0).is_empty
    assert not i_lambda(TRI, 2.7).is_empty
    assert i_lambda(TRI, 4.0 * math.log(2.0) + 1e-6).is_empty


def test_window_uniform_survives_large_disorder():
    # the uniform law has a divergent edge inverse moment, so the window
    # components hug the support even at strong disorder; their width is
    # about 2 lam exp(-lam) and collapses below the 1e-9 evaluation margin
    # around lam ~ 20, after which the reported window is empty by policy
    for lam, probe in ((1.0, 1.1), (5.0, 5.0 + 1e-4), (8.0, 8.0 + 1e-4)):
        iset = i_lambda(UNI, lam)
        assert len(iset.intervals) == 2
        assert iset.contains(probe)
    assert i_lambda(UNI, 25.0).is_empty


# ---------------------------------------------------------------------------
# the sub-window J(lambda, C)
# ---------------------------------------------------------------------------

def test_subwindow_membership_and_crossing():
    jset = j_lambda(BERN, 1.0, 1.0)
    assert jset.contains(2.0)        # gamma = 9/56 < 1/2
    assert not jset.contains(2.30)   # gamma ~ 0.631
    assert jset.contains(2.25)       # gamma ~ 0.435
    hi = max(iv.hi for iv in jset.intervals)
    assert 2.25 < hi < 2.30


def test_subwindow_avoids_outer_edges():
    iset = i_lambda(BERN, 1.0)
    jset = j_lambda(BERN, 1.0, 1.0)
    assert max(iv.hi for iv in jset.intervals) < max(iv.hi for iv in iset.intervals)
    assert min(iv.lo for iv in jset.intervals) > min(iv.lo for iv in iset.intervals)


def test_subwindow_grows_with_capacity():
    iset = i_lambda(BERN, 0.5)
    jset = j_lambda(BERN, 0.5, 1e6)
    assert jset.total_length / iset.total_length > 0.99


# ---------------------------------------------------------------------------
# analytic properties on grids
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dist", [BERN, UNI, TRI])
def test_h_monotone_with_unit_slope(dist):
    lam = 1.0
    comp = i_lambda(dist, lam).intervals[-1]
    grid = np.linspace(comp.lo + 1e-6, comp.hi - 1e-6, 400)
    h_vals = np.array([effective_quantities(dist, float(e), lam).h for e in grid])
    slopes = np.diff(h_vals) / np.diff(grid)
    assert np.all(slopes > 1.0 - 1e-6)


@pytest.mark.parametrize("dist", [BERN, UNI, TRI])
def test_h_dominated_by_energy(dist):
    lam = 0.8
    for comp in i_lambda(dist, lam).intervals:
        grid = np.linspace(comp.lo + 1e-6, comp.hi - 1e-6, 100)
        for e in grid:
            assert abs(effective_quantities(dist, float(e), lam).h) <= abs(e) + 1e-12


@pytest.mark.parametrize("dist", [BERN, UNI, TRI])
def test_small_disorder_scaling(dist):
    E = 1.5
    lams = np.array([0.1, 0.05, 0.025])
    dh = np.array([abs(effective_quantities(dist, E, l).h - E) for l in lams])
    s2 = np.array([effective_quantities(dist, E, l).sigma2_eff for l in lams])
    fit_h = np.polyfit(np.log(lams), np.log(dh), 1)[0]
    fit_s = np.polyfit(np.log(lams), np.log(s2), 1)[0]
    assert fit_h >= 1.9
    assert fit_s >= 1.9


@pytest.mark.parametrize("dist", [BERN, UNI, TRI])
def test_window_inclusion_bound(dist):
    # for lam <= 2 + 2 s^2/(2 - s^2), all E in (lam v_+, 2 + lam^2 s^2 / 10]
    # belong to the window
    s2 = dist.sigma2
    lam_cap = 2.0 + 2.0 * s2 / (2.0 - s2)
    for lam in np.linspace(0.2, lam_cap, 7):
        iset = i_lambda(dist, float(lam))
        lower = lam * dist.v_plus + 1e-6
        upper = 2.0 + lam * lam * s2 / 10.0
        if upper <= lower:
            continue  # the asserted set is empty at this disorder
        for e in np.linspace(lower, upper, 25):
            assert iset.contains(float(e)), (lam, e)
