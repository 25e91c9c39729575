"""Antitree shell geometry and the radial lattice projection.

An antitree is determined by its shell sizes s_0, s_1, ...; every vertex of
shell n is joined to every vertex of shells n +- 1 and the edge weight
1 / sqrt(s_n * s_{n+1}) normalizes the free spectrum to [-2, 2].  Growth laws
prescribe s_n = max(1, round(C * n^(d-1))) for a growth-rate dimension d, or
take an explicit positive integer sequence.

The second half of the module covers the radial projection of the Z^d
adjacency operator: counts of lattice points on taxicab spheres split by the
number of zero coordinates, inter-shell edge counts, and the resulting
radial hopping amplitudes a_n = d + O(n^-2).  A brute-force lattice
enumerator serves as the oracle for the combinatorial formulas; a widely
quoted closed form for the zero-split counts disagrees with the enumeration
for 0 < k < d-1, so the enumeration-validated version is authoritative here
(``zd_printed_variant_count`` keeps the other variant for audit tables).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidLawError, SizeLimitError, DomainError

_BRUTE_MAX_D = 5
_BRUTE_MAX_N = 12


# ---------------------------------------------------------------------------
# growth laws and shell sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthLaw:
    """Shell-size prescription: a uniform power law or an explicit sequence."""

    mode: str                      # "uniform_power" | "custom"
    d: float = 1.0                 # growth-rate dimension (s_n ~ C n^(d-1))
    C: float = 1.0
    custom: tuple[int, ...] = ()

    def __post_init__(self):
        if self.mode not in ("uniform_power", "custom"):
            raise InvalidLawError(f"unknown growth mode {self.mode!r}")
        if self.mode == "uniform_power":
            if not (self.d >= 1.0 and math.isfinite(self.d)):
                raise InvalidLawError(f"growth dimension d = {self.d} is not a finite d >= 1")
            if not (self.C > 0.0 and math.isfinite(self.C)):
                raise InvalidLawError(f"growth constant C = {self.C} is not a finite C > 0")
        else:
            if not self.custom:
                raise InvalidLawError("custom law needs a nonempty sequence")
            if any(s < 1 for s in self.custom):
                raise InvalidLawError("custom shell sizes must be >= 1")
            if max(self.custom) >= 2 ** 63:
                raise SizeLimitError("custom shell sizes must be below 2^63 (int64)")

    @staticmethod
    def uniform_power(d: float, C: float = 1.0) -> "GrowthLaw":
        return GrowthLaw(mode="uniform_power", d=float(d), C=float(C))

    @staticmethod
    def from_sizes(sizes) -> "GrowthLaw":
        return GrowthLaw(mode="custom", custom=tuple(int(s) for s in sizes))

    def size(self, n: int) -> int:
        """s_n for a single shell index, as ``sizes_block`` gives it."""
        return int(self.sizes_block(n, n + 1)[0])

    def sizes_block(self, n0: int, n1: int) -> np.ndarray:
        """s_n for n in [n0, n1) as int64, streamed (no global table); a size
        of 2^63 or more, which int64 cannot hold, raises SizeLimitError."""
        if self.mode == "custom":
            if n1 > len(self.custom):
                raise InvalidLawError(f"custom sequence shorter than {n1} shells")
            return np.array(self.custom[n0:n1], dtype=np.int64)
        n = np.arange(n0, n1, dtype=np.float64)
        with np.errstate(over="ignore"):   # a size that overflows is inf, refused below
            s = np.floor(self.C * n ** (self.d - 1.0) + 0.5)
        np.maximum(s, 1.0, out=s)
        if n0 == 0 and n1 > 0:
            s[0] = 1.0
        if s.max(initial=0.0) >= 2.0 ** 63:
            raise SizeLimitError(f"shell sizes up to {s.max():.4g} in shells {n0}..{n1 - 1}")
        return s.astype(np.int64)


def load_custom_sizes(path) -> GrowthLaw:
    """Read a custom shell sequence: one positive integer per line."""
    sizes = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                val = int(text)
            except ValueError as exc:
                raise InvalidLawError(f"{path}:{ln}: not an integer: {text!r}") from exc
            if val < 1:
                raise InvalidLawError(f"{path}:{ln}: shell size {val} < 1")
            sizes.append(val)
    return GrowthLaw.from_sizes(sizes)


# ---------------------------------------------------------------------------
# Z^d taxicab shells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZdShellData:
    """Shell n of the taxicab sphere in Z^d, split by zero-coordinate count.

    ``by_zero_count[k]`` is the number of lattice points with ||x||_1 = n and
    exactly k vanishing coordinates; each such point has d + k edges to shell
    n + 1, giving the outgoing edge count and, for n >= 2, the radial hopping
    a_n = alpha_{n-1} / sqrt(s_n s_{n-1}).
    """

    d: int
    n: int
    s_n: int
    by_zero_count: tuple[int, ...]       # k = 0 .. d
    edge_count_out: int                  # alpha_n, edges from S_n to S_{n+1}
    hopping: float                       # a_n (nan for n < 2)


def _count_formula(d: int, n: int, k: int) -> int:
    """Enumeration-validated count: points split as sign patterns on the d-k
    nonzero coordinates times compositions of n into d-k positive parts."""
    if k < 0 or k > d:
        return 0
    if k == d:
        return 1 if n == 0 else 0
    if n == 0:
        return 0
    return math.comb(d, k) * (2 ** (d - k)) * math.comb(n - 1, d - k - 1)


def zd_printed_variant_count(d: int, n: int, k: int) -> int:
    """The commonly printed variant of the count formula.

    Disagrees with direct enumeration for 0 < k < d-1 (its last binomial
    reads C(n-1-k, d-1-k) instead of C(n-1, d-k-1)); kept for audit output.
    """
    if k < 0 or k > d:
        return 0
    if k == d:
        return 1 if n == 0 else 0
    if n == 0 or n - 1 - k < 0:
        return 0
    return math.comb(d, k) * (2 ** (d - k)) * math.comb(n - 1 - k, d - 1 - k)


def zd_edge_count(d: int, n: int) -> int:
    """alpha_n: edges between taxicab shells n and n+1 (each x in S_{n,k} has
    d + k outgoing edges)."""
    return sum((d + k) * _count_formula(d, n, k) for k in range(d + 1))


def zd_shell_counts(d: int, n: int) -> ZdShellData:
    """Shell counts from the validated combinatorial formula."""
    if d < 2 or n < 1:
        raise DomainError(f"need d >= 2 and n >= 1, got d={d}, n={n}")
    counts = tuple(_count_formula(d, n, k) for k in range(d + 1))
    s_n = sum(counts)
    alpha = zd_edge_count(d, n)
    hop = zd_hopping(d, n) if n >= 2 else math.nan
    return ZdShellData(d=d, n=n, s_n=s_n, by_zero_count=counts,
                       edge_count_out=alpha, hopping=hop)


def zd_hopping(d: int, n: int) -> float:
    """Radial hopping a_n = alpha_{n-1} / sqrt(s_n s_{n-1}); tends to d like
    1 + O(n^-2) relative."""
    if d < 2 or n < 2:
        raise DomainError(f"hopping needs d >= 2 and n >= 2, got d={d}, n={n}")
    alpha = zd_edge_count(d, n - 1)
    s_n = sum(_count_formula(d, n, k) for k in range(d + 1))
    s_nm1 = sum(_count_formula(d, n - 1, k) for k in range(d + 1))
    return alpha / math.sqrt(float(s_n) * float(s_nm1))


def _lattice_shell(d: int, n: int):
    """All x in Z^d with ||x||_1 = n, by budgeted recursion."""
    out = []
    x = [0] * d

    def rec(i: int, budget: int):
        if i == d - 1:
            if budget == 0:
                out.append(tuple(x))
            else:
                for v in (budget, -budget):
                    x[i] = v
                    out.append(tuple(x))
                x[i] = 0
            return
        for mag in range(budget + 1):
            vals = (0,) if mag == 0 else (mag, -mag)
            for v in vals:
                x[i] = v
                rec(i + 1, budget - mag)
            x[i] = 0

    rec(0, n)
    return out


def zd_brute_force(d: int, n: int) -> ZdShellData:
    """Exhaustive oracle: enumerate the shell, histogram zero coordinates and
    count outgoing edges vertex by vertex."""
    if d > _BRUTE_MAX_D or n > _BRUTE_MAX_N:
        raise SizeLimitError(f"brute force capped at d <= {_BRUTE_MAX_D}, n <= {_BRUTE_MAX_N}")
    if d < 1 or n < 0:
        raise DomainError(f"bad arguments d={d}, n={n}")
    pts = _lattice_shell(d, n)
    counts = [0] * (d + 1)
    for p in pts:
        counts[p.count(0)] += 1
    hop = math.nan
    if n >= 2:
        prev = _lattice_shell(d, n - 1)
        hop = _out_edges(prev) / math.sqrt(float(len(pts)) * float(len(prev)))
    return ZdShellData(d=d, n=n, s_n=len(pts), by_zero_count=tuple(counts),
                       edge_count_out=_out_edges(pts), hopping=hop)


def _out_edges(pts) -> int:
    """Unit steps from the given points that increase the taxicab norm."""
    return sum(1 for p in pts for x in p for step in (1, -1) if abs(x + step) - abs(x) == 1)
