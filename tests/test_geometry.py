"""Shell sequences and the taxicab-sphere combinatorics with its oracle."""

import math

import numpy as np
import pytest

from antitree import (
    GrowthLaw,
    InvalidLawError,
    SizeLimitError,
    load_custom_sizes,
    zd_brute_force,
    zd_hopping,
    zd_shell_counts,
)
from antitree.geometry import zd_edge_count, zd_printed_variant_count


# ---------------------------------------------------------------------------
# growth laws
# ---------------------------------------------------------------------------

def test_uniform_power_examples():
    assert list(GrowthLaw.uniform_power(2.0, 1.0).sizes_block(0, 6)) == [1, 1, 2, 3, 4, 5]
    assert list(GrowthLaw.uniform_power(3.0, 1.0).sizes_block(0, 5)) == [1, 1, 4, 9, 16]
    # half-line: every shell is a single vertex
    assert list(GrowthLaw.uniform_power(1.0, 1.0).sizes_block(0, 4)) == [1, 1, 1, 1]


def test_rounding_half_away_from_zero():
    # C n^(d-1) = 2.5 at n = 1 must round to 3, not to banker's 2
    law = GrowthLaw.uniform_power(2.0, 2.5)
    assert law.size(1) == 3
    assert law.size(0) == 1


def test_custom_law_roundtrip(tmp_path):
    path = tmp_path / "shells.txt"
    path.write_text("1\n3\n\n9\n27\n")
    law = load_custom_sizes(path)
    assert law.custom == (1, 3, 9, 27)
    assert list(law.sizes_block(0, 4)) == [1, 3, 9, 27]
    bad = tmp_path / "bad.txt"
    bad.write_text("1\n0\n")
    with pytest.raises(InvalidLawError):
        load_custom_sizes(bad)


def test_sizes_block_is_int64_below_2_63_and_refuses_larger_sizes():
    # the drivers take the sizes as they are: a size past int64 is a typed
    # error, not a cast to -2^63
    law = GrowthLaw.uniform_power(2.0, 2.0 ** 62)
    assert law.sizes_block(0, 2).dtype == np.int64
    assert law.sizes_block(0, 2).tolist() == [1, 2 ** 62]
    custom = GrowthLaw.from_sizes([1, 2 ** 63 - 1])
    assert custom.sizes_block(0, 2).tolist() == [1, 2 ** 63 - 1]
    for law, n1 in ((law, 3), (GrowthLaw.uniform_power(1000.0, 1.0), 5)):
        with pytest.raises(SizeLimitError):
            law.sizes_block(0, n1)
    with pytest.raises(SizeLimitError):
        GrowthLaw.from_sizes([1, 2 ** 63])


def test_sizes_block_matches_scalar():
    law = GrowthLaw.uniform_power(1.7, 0.9)
    blk = law.sizes_block(0, 50)
    assert [int(x) for x in blk] == [law.size(n) for n in range(50)]
    # a rounding tie, where a scalar formula in Python floats gave one more
    tie = GrowthLaw.uniform_power(3.3, 1.0)
    assert tie.size(191735) == int(tie.sizes_block(191735, 191736)[0])
    custom = GrowthLaw.from_sizes([1, 3, 9, 27])
    assert [custom.size(n) for n in range(4)] == [1, 3, 9, 27]
    with pytest.raises(InvalidLawError):
        custom.size(4)


# ---------------------------------------------------------------------------
# taxicab shells: closed formulas vs the lattice oracle
# ---------------------------------------------------------------------------

def test_counts_d2_n3():
    data = zd_shell_counts(2, 3)
    assert data.s_n == 12
    assert data.by_zero_count[0] == 8 and data.by_zero_count[1] == 4


def test_counts_d3_n3():
    data = zd_shell_counts(3, 3)
    assert data.s_n == 38
    assert data.by_zero_count[:3] == (8, 24, 6)


def test_counts_d2_n1():
    data = zd_shell_counts(2, 1)
    assert data.s_n == 4
    assert data.by_zero_count[0] == 0 and data.by_zero_count[1] == 4


def test_brute_force_examples():
    assert zd_brute_force(2, 3).s_n == 12
    assert zd_brute_force(3, 2).s_n == 18
    assert zd_brute_force(2, 1).edge_count_out == 12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_formula_equals_oracle(d):
    for n in range(1, 9):
        f = zd_shell_counts(d, n)
        o = zd_brute_force(d, n)
        assert f.by_zero_count == o.by_zero_count, (d, n)
        assert f.s_n == o.s_n
        assert f.edge_count_out == o.edge_count_out
        if n >= 2:
            assert f.hopping == pytest.approx(o.hopping, rel=1e-14)


def test_printed_variant_disagrees_with_lattice():
    # the widely quoted count for d=3, n=3, k=1 is 12; enumeration gives 24
    assert zd_printed_variant_count(3, 3, 1) == 12
    assert zd_brute_force(3, 3).by_zero_count[1] == 24


@pytest.mark.parametrize("d", [2, 3, 4])
def test_edge_double_counting(d):
    # every edge between consecutive shells is counted from both ends
    for n in range(1, 9):
        out_edges = zd_edge_count(d, n)
        in_edges = sum((d - k) * zd_shell_counts(d, n + 1).by_zero_count[k]
                       for k in range(d + 1))
        assert out_edges == in_edges


def test_hopping_exact_values():
    assert zd_hopping(2, 2) == pytest.approx(3.0 / math.sqrt(2.0), rel=1e-15)
    assert zd_hopping(2, 3) == pytest.approx(5.0 / math.sqrt(6.0), rel=1e-15)
    assert zd_hopping(2, 10) == pytest.approx(19.0 / math.sqrt(90.0), rel=1e-15)


def test_hopping_asymptotics():
    # a_n - 2 ~ 1/(4 n^2) in the plane
    assert abs(zd_hopping(2, 100) - 2.0) < 3e-5
    for d in (2, 3):
        ns = np.arange(10, 201)
        devs = np.array([abs(zd_hopping(d, int(n)) - d) for n in ns])
        slope = np.polyfit(np.log(ns), np.log(devs), 1)[0]
        assert slope <= -1.9, (d, slope)


@pytest.mark.parametrize("d", [2, 3])
def test_hopping_deviation_tails_are_cauchy(d):
    def tail(N):
        return sum(abs(zd_hopping(d, n) - d) for n in range(N + 1, 2 * N + 1))

    tails = [tail(N) for N in (50, 100, 200)]
    assert tails[0] > tails[1] > tails[2]
    for N, t in zip((50, 100, 200), tails):
        assert t < 2.0 / N


@pytest.mark.parametrize("d", [2, 3])
def test_leading_shell_asymptotics(d):
    n = 200
    s_n = zd_shell_counts(d, n).s_n
    ratio = s_n * math.factorial(d - 1) / (2 ** d * n ** (d - 1))
    assert ratio == pytest.approx(1.0, rel=0.02)


def test_guards():
    with pytest.raises(SizeLimitError):
        zd_brute_force(6, 3)
    with pytest.raises(SizeLimitError):
        zd_brute_force(3, 13)
    from antitree.errors import DomainError
    with pytest.raises(DomainError):
        zd_shell_counts(1, 3)
    with pytest.raises(DomainError):
        zd_hopping(2, 1)
