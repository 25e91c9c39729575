"""Shell-by-shell transfer dynamics in log-scaled form.

A shell of size s with sampled potentials v_1..v_s enters the dynamics only
through the harmonic entry

    a = [ (1/s) * sum_j 1/(E - lam*v_j) ]^(-1),

the 2x2 step matrix ((a, -1), (1, 0)) acting on (u_n, u_{n-1}); every pass
steps this raw pair, rescaled by exact powers of two, through one
fold-and-replay kernel (``_FoldReplay``): per block, ``_shell_blocks`` gives
each column's rescale stride with the entries, taken from where they are
formed when that bounds them (the energy itself at lam = 0, a two-atom law's
entry table) and measured on the block otherwise, ``stride`` vectorized steps
form each segment's two solutions, a log-depth prefix scan of the segment maps
writes every segment's start state at once, and each read replays the segments
it needs from their start states in one pass.  The forward, density, backward
subordinacy and Gram passes differ only in their reads; the backward pass is
the forward step on reversed entries, as is the m-function's, on the complex
solution that meets its boundary condition at N.  With x = (a - h)/sin k and
M = ((sin k, cos k), (0, 1)) the step conjugates to shear times rotation,
((a, -1), (1, 0)) M = M ((1, x), (0, 1)) Rot(k), and M e_1 = sin k (u_0, u_{-1})
for the Dirichlet solution, so its polar radius is read off the raw pair:

    R_n^2 = (u_n - cos k * u_{n-1})^2 + (sin k * u_{n-1})^2.

The polar (Pruefer) recursion R^2 -> R^2 (1 + x sin(2(theta+k)) +
x^2 sin^2(theta+k)), cot(theta') = cot(theta+k) + x, and the other scalar
references that tests compare against live in tests/reference.py.  Radii are
read in the log domain with the rescale exponents added back.  Batched
drivers vectorize across trials.  Each trial (column) draws from one SFC64
stream keyed by (seed, domain, cell, trial), re-stated for each block b to
words [4b, 4b + 4) of its seed sequence's state, so a trial's randomness is
reproducible in any processing order, for any N and in either direction.
For discrete laws a shell of s draws is compressed into its multinomial atom
counts, the sufficient statistic for the harmonic entry.  The counts come
from a binomial chain, except for a fair first step (atom weight 1/2, as in
the Bernoulli law) on a shell of at most _ALIAS_MAX draws, which reads one
raw 64-bit word of its stream through the alias table of its size (Walker
1977, with Vose 1991's construction): the word's top bits pick a slot and
its low bits decide the slot's coin against an integer cut.  A table holds
the fair binomial law with every mass rounded to a multiple of 2^-64; it is
built once per process in integer arithmetic, from the exact binomials of
the counts that can hold mass, and the tables a block reads
depend only on its sizes and are gathered once per block.  A two-atom law's
shell entries a = 1/m1 and w = m2/m1^2 depend only on the size s and the
first-atom count c: per block and energy they are tabulated for every (s, c)
of the block's sizes, while the table has no more entries than the block has
shell x column pairs, and each column draws c alone and gathers its entries.
When every shell of the block draws by an alias table, the entries of each
slot's own and alias counts are gathered into a slot table, under the same
bound, and a column gathers each shell's entries at the alias pair its word
draws, without forming c.  Continuous laws draw and sum their potentials in
chunks of whole shells that fit a core's L2 cache.  The entries of a tile of
_TILE columns are staged contiguously and copied into the block once per
tile.  Subordinate solutions are extracted by backward propagation, stable
because the forward-decaying direction dominates in reverse; weighted-norm
extremes over all solution directions come from a rank-one updated Cholesky
factor of the 2x2 Gram matrix, whose determinant is a product of diagonals
and therefore immune to the cancellation that makes the raw min/max hopeless
at depth.  A block's segment maps and segment factors are combined by one
shared Hillis-Steele prefix scan (Blelloch 1990), and the backward pass's
weighted sums between checkpoints are closed at all cuts of a block at once.
"""

from __future__ import annotations

import cmath
import collections
import functools
import itertools
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
    DOMAIN_SUBORDINACY,
    DOMAIN_TRAJECTORY,
    DOMAIN_WEYL,
    _block_states,
    _restate,
    _whole_count,
    seed_stream,
)

LN2 = math.log(2.0)
BLOCK = 8192
CHECKPOINTS = 192      # geometric checkpoints per trajectory
GRID_ANGLES = 64       # fixed solution directions of the log_ratio_grid comparison
# Raw passes divide a column by 2^e once its largest entry passes 2^RESCALE_EXP,
# checking every ``_rescale_stride`` shells.  A step multiplies entries by at
# most 1 + |a| and a stride grows them by at most 2^(RESCALE_EXP/2), so
# entries stay below 2^384 and their weighted squares far from the 2^1024
# overflow.  The Gram factor is rescaled again right before each checkpoint,
# where the eigenvalue discriminant takes fourth powers of entries < 2^256.
RESCALE_EXP = 256
_RESCALE_AT = 2.0 ** RESCALE_EXP
_MAX_STRIDE = 64
# continuous-law potentials summed at once: 512 KiB, inside a core's L2, so
# the passes after the draw (scale, shift, invert, square, two segment sums)
# read them from cache
_DRAW_CHUNK = 1 << 16
_SHELL_DRAWS = 1 << 22    # continuous-law potentials one shell may draw
_DRAW_BUDGET = 1 << 32    # continuous-law potentials one column may draw
# Shells one trajectory may step.  It keeps the checkpoints far inside int64
# and a column's block states (32 bytes per block, _block_states) at 16 MiB;
# a call holds every column's states at once, so one of c columns at the
# budget holds c * 16 MiB of them.  At about 30 ns per shell and column, one
# column at the budget steps for some two minutes.
_SHELL_BUDGET = 1 << 32
# bytes of (A, W) blocks the forward subordinacy pass keeps for the backward pass
_HOLD_BYTES = 1 << 25
# Largest shell whose fair first multinomial step is an alias-table draw from
# one raw word (Walker 1977, with Vose 1991's construction); larger shells,
# whose sizes rarely recur, keep the binomial.
_ALIAS_MAX = 1024
# columns of a block whose entries are staged together before A and W are
# written: 16 rows of a block's entries fill 1 MiB
_TILE = 16
# rows of the fold's work space per segment and column (see _FoldReplay._reserve)
_WORK_ROWS = 13


# ---------------------------------------------------------------------------
# sampling of shell statistics
# ---------------------------------------------------------------------------

def _atom_tables(dist: PotentialDistribution, E: float, lam: float):
    vals = np.array([v for v, _ in dist.atoms])
    probs = np.array([w for _, w in dist.atoms])
    x = E - lam * vals
    if np.any(x == 0.0):
        raise DomainError("E - lam*v vanishes at an atom", reason="inside_support")
    with np.errstate(over="ignore"):   # 1/x^2 is 0 where x^2 overflows
        return probs, 1.0 / x, 1.0 / (x * x)


# the exact binomial row that _binomial_window formed last: (s, k0, C(s, k0 .. s // 2))
_BINOMIAL_ROW = (0, 0, [1])


def _binomial_window(s: int, k0: int) -> list:
    """C(s, k) for k0 <= k <= s // 2, exact.  From the row formed last, when
    its size r is at most 8 below s, by Pascal's rule, which costs one
    addition per entry and row (tables are built for a block's sizes in
    increasing order); otherwise from math.comb(s, k0) by the ratio
    C(s, k + 1) = C(s, k) (s - k) / (k + 1)."""
    global _BINOMIAL_ROW
    r, kr, row = _BINOMIAL_ROW
    if 0 <= s - r <= 8:
        for n in range(r + 1, s + 1):
            # C(n, kr) by the ratio, then C(n, k) = C(n-1, k-1) + C(n-1, k) up
            # to n // 2, which is 2 C(n-1, k-1) at k = n/2
            row = ([row[0] * n // (n - kr)] + [a + b for a, b in zip(row, row[1:])]
                   + ([2 * row[-1]] if n % 2 == 0 else []))
        head = [row[0]]
        for k in range(kr - 1, k0 - 1, -1):
            head.append(head[-1] * (k + 1) // (s - k))
        row = head[:0:-1] + row[max(0, k0 - kr):]
    else:
        row = [math.comb(s, k0)]
        for k in range(k0, s // 2):
            row.append(row[-1] * (s - k) // (k + 1))
    _BINOMIAL_ROW = (s, k0, row)
    return row


@functools.cache
def _slots(bits: int):
    """The slot indices of an alias table of 2^bits slots, and the first of
    each slot's 2^(64 - bits) units."""
    slots = np.arange(1 << bits)
    first = slots.astype(np.uint64) << np.uint64(64 - bits)
    slots.flags.writeable = first.flags.writeable = False
    return slots, first


@functools.cache
def _alias_table(s: int):
    """``(bits, cut, counts)``: Walker's alias table, by Vose's construction,
    of the fair binomial law Bin(s, 1/2) with every mass rounded to a whole
    number of units 2^-64.

    The masses C(s, k) 2^(64 - s) are rounded down and the units still
    missing from 2^64 go to the largest remainders, ties to the smaller
    count, so each mass is within one unit of the law's and they total
    exactly 2^64.  The counts lo .. s - lo outside which every mass rounds
    to zero fill the first slots of 2^bits, the rest padded with zero mass;
    each slot holds 2^(64 - bits) units.  A raw 64-bit word x draws slot
    i = x >> (64 - bits), and its count is the slot's own count when
    x < cut[i], the alias otherwise: cut[i] is i 2^(64 - bits) plus the
    units of the slot's own count, so the low 64 - bits bits of x decide the
    coin.  ``counts`` holds each slot's (own, alias) pair as int16 at
    [2i, 2i + 1]; a slot that is always or never its own count holds one
    count twice.  The integer construction is exact, built on first use and
    kept, read-only, for the process.

    Only the counts k0 .. s - k0 are formed, from a k0 whose binomial lies
    below 2^(s - 67) by the Gaussian bound C(s, s/2 - x) <= C(s, s/2)
    exp(-2 x^2 / s).  The binomials fall away from the middle, so when
    neither end count gets a unit, no count outside has a remainder as large
    as theirs, and the units go where ranking all s + 1 counts puts them;
    otherwise k0 is halved.  Count k and its mirror s - k share a
    remainder, so the half up to s/2 is ranked and each unit pair split
    toward the smaller count, unless a tie between two halves straddles the
    last unit, when all the counts are ranked.  Vose's pairing, which pops
    the small slots and the large ones from the ends of their lists, is
    followed in closed form: in pop order, with D the running deficits of
    the small slots and F the running excesses of the large ones, small slot
    t goes to the first large slot q with F_q >= D_(t-1), and large slot q
    turns small, with unit + F_q - D_t left, at the first t with D_t > F_q.
    """
    drop = max(0, s - 64)
    k0 = 0
    if drop:
        x = math.sqrt((67 - 0.5 * math.log2(math.pi * s / 2)) * s * LN2 / 2)
        k0 = max(0, int(s / 2 - x) - 1)
    mirror = slice(-2 + s % 2, None, -1)     # the half's counts above s/2, in order
    while True:
        half = _binomial_window(s, k0)
        if not drop:
            mass = [b << (64 - s) for b in half]
            mass += mass[mirror]
            break
        mass = [b >> drop for b in half]
        rem = [b & ((1 << drop) - 1) for b in half]
        deficit = (1 << 64) - 2 * sum(mass) + (0 if s % 2 else mass[-1])
        order = sorted(range(len(half)), key=rem.__getitem__, reverse=True)
        # the middle count of an even s takes one unit, the others a pair
        j, extra = divmod(deficit + (s % 2 == 0 and 2 * order.index(len(half) - 1) < deficit), 2)
        last = rem[order[j]] if j < len(half) else None
        if (0 < j < len(half) and rem[order[j - 1]] == last
                or extra and j + 1 < len(half) and rem[order[j + 1]] == last):
            mass += mass[mirror]
            rem += rem[mirror]
            for k in sorted(range(len(rem)), key=rem.__getitem__, reverse=True)[:deficit]:
                mass[k] += 1
        else:
            for k in order[:j]:
                mass[k] += 1
            mass += mass[mirror]
            if extra and j < len(half):   # else the end counts took units too
                mass[order[j]] += 1
        if not k0 or not (mass[0] or mass[-1]):
            break
        k0 //= 2
    # a count above s - lo has zero mass too: its mirror below lo got no unit,
    # and its remainder ties the mirror's, whose count is smaller
    lo = next(k for k, m in enumerate(mass) if m)
    bits = (s - 2 * (k0 + lo)).bit_length()
    slots, first_unit = _slots(bits)
    unit = first_unit[1]
    left = np.zeros(len(slots), dtype=np.uint64)
    left[:len(mass) - 2 * lo] = mass[lo:len(mass) - lo]
    # the slots in pop order, and their running deficits and excesses
    small = left < unit
    S, L = small.nonzero()[0][::-1], (~small).nonzero()[0][::-1]
    d = unit - left[S]
    D, F = d.cumsum(), (left[L] - unit).cumsum()
    units = np.where(small, left, 0)      # of each slot's own count
    alias = slots.copy()
    alias[S] = L[F.searchsorted(D - d)]
    # the first nq large slots turn small; exact arithmetic leaves every
    # other one holding exactly its own count, which its alias then names
    nq = F.searchsorted(F[-1])
    units[L[:nq]] = F[:nq] + unit - D[D.searchsorted(F[:nq], side="right")]
    alias[L[:nq]] = L[1:nq + 1]
    cut = first_unit + units
    counts = np.empty((len(slots), 2), dtype=np.int16)
    counts[:, 1] = alias
    counts[:, 0] = np.where(units > 0, slots, alias)
    counts += k0 + lo
    counts = counts.reshape(-1)
    cut.flags.writeable = counts.flags.writeable = False
    return bits, cut, counts


def _fair_first(probs) -> bool:
    """Whether the multinomial chain of atom weights ``probs`` starts with a
    fair step (probs[0] == 1/2), which draws by a _FairLayout."""
    return probs[0] == 0.5


@dataclass(frozen=True)
class _FairLayout:
    """How a fair first step draws each shell of a block, from the sizes alone.

    The ``fair`` shells, of at most _ALIAS_MAX draws, take one raw 64-bit
    word each, in shell order, and read the alias table of their size
    (_alias_table): the tables of the block's sizes are concatenated in
    ``cut`` and ``counts``, a shell's starting at slot ``base`` and drawing
    its slot as the top 64 - ``shift`` bits of its word, then the entry
    p = 2 slot, or 2 slot + 1 when the coin picks the alias, of ``counts``,
    the (own, alias) count pairs.  ``pair_sizes[p]`` is the size whose table
    holds entry p, so a slot table indexed by p is read at a shell's drawn
    pair (_entry_tables).  The ``large`` shells go through the binomial
    after them.
    """

    fair: np.ndarray
    shift: np.ndarray
    base: np.ndarray
    cut: np.ndarray
    counts: np.ndarray
    pair_sizes: np.ndarray
    large: np.ndarray


def _fair_layout(sizes: np.ndarray) -> _FairLayout:
    fair = sizes <= _ALIAS_MAX
    sizes_u, inverse = np.unique(sizes[fair], return_inverse=True)
    tables = [_alias_table(int(s)) for s in sizes_u]
    bits = np.array([t[0] for t in tables], dtype=np.int64)
    slots = 1 << bits
    return _FairLayout(
        fair=np.flatnonzero(fair),
        shift=(64 - bits)[inverse].astype(np.uint64), base=(np.cumsum(slots) - slots)[inverse],
        cut=np.concatenate([np.empty(0, np.uint64)] + [t[1] for t in tables]),
        counts=np.concatenate([np.empty(0, np.int16)] + [t[2] for t in tables]),
        pair_sizes=np.repeat(sizes_u, 2 * slots), large=np.flatnonzero(~fair))


def _alias_pairs(gen: np.random.Generator, layout: _FairLayout) -> np.ndarray:
    """The pairs p of ``layout.counts`` drawn by the ``fair`` shells of
    ``layout``, from one raw word each: the word's top bits pick a slot of
    the shell's table and the slot's cut decides between its own count, at
    p = 2 slot, and its alias, at p = 2 slot + 1."""
    words = gen.bit_generator.random_raw(len(layout.fair))
    slot = np.right_shift(words, layout.shift).view(np.int64)
    slot += layout.base
    alias = np.greater_equal(words, layout.cut.take(slot))
    slot += slot
    slot += alias
    return slot


def _multinomial_counts(gen: np.random.Generator, n_arr: np.ndarray, probs: np.ndarray, *,
                        layout: _FairLayout | None = None, first_only: bool = False,
                        pairs: bool = False) -> np.ndarray:
    """Exact multinomial counts for per-row totals.

    The counts follow a binomial chain, atom by atom.  When its first step is
    fair (_fair_first), each row of at most _ALIAS_MAX draws takes that count
    from one raw SFC64 word, in row order, through its size's alias table
    (_alias_pairs); the binomials of the larger rows follow the words.
    ``layout`` is ``_fair_layout(n_arr)``, built here when not given.
    ``first_only`` stops the chain after its first step and returns the
    first atom's counts alone, as a 1-D array; with ``pairs`` as well, on a
    fair first step whose layout has no large rows, it returns each row's
    drawn pair of ``layout.counts`` instead of its count.
    """
    k = len(probs)
    remaining = np.asarray(n_arr, dtype=np.int64)
    cols = []
    rem_p = 1.0
    for i in range(k - 1):
        p = min(1.0, probs[i] / rem_p)
        if i == 0 and _fair_first(probs):
            if layout is None:
                layout = _fair_layout(remaining)
            # a block of one kind of shell skips the other's gather and scatter
            if not len(layout.large):
                c = _alias_pairs(gen, layout)
                if pairs:
                    return c
                c = layout.counts.take(c)
            elif not len(layout.fair):
                c = gen.binomial(remaining, p)
            else:
                c = np.empty(len(remaining), dtype=np.int64)
                c[layout.fair] = layout.counts.take(_alias_pairs(gen, layout))
                c[layout.large] = gen.binomial(remaining[layout.large], p)
        else:
            c = gen.binomial(remaining, p)
        if first_only:
            return c
        cols.append(c)
        remaining = remaining - c
        rem_p -= probs[i]
    return np.stack(cols + [remaining], axis=1)


@dataclass(frozen=True)
class _EntryTable:
    """A two-atom law's shell entries at one energy, for every pair (s, c) of
    a size s of a block and a first-atom count 0 <= c <= s, or for every
    alias pair of the block's _FairLayout (a slot table).

    A shell with c first atoms reads row ``start[shell] + c`` of ``a``, the
    harmonic entry 1/m1, and of ``w``, the squared norm m2/(m1*m1) (None
    unless weights were asked for), where m1 and m2 are the means of
    1/(E - lam*v) and 1/(E - lam*v)^2, each formed as ``counts @ r / s`` on
    the row's counts (c, s - c), as a per-shell computation forms it.
    ``zero`` marks the rows whose m1 vanishes, whose entries are left 0; it
    is None when there are none.  A slot table has ``start`` None: row p
    holds the entries of the count of pair p of the layout's ``counts``, so
    a shell reads the row its alias draw picks, with no count between.
    ``stride`` is the ``_rescale_stride`` of the table's largest |a|, which
    bounds every entry a block gathers from it.
    """

    start: np.ndarray | None
    a: np.ndarray
    w: np.ndarray | None
    zero: np.ndarray | None
    stride: int


def _entry_tables(sizes: np.ndarray, tables: dict, widths: dict, with_w: bool,
                  layout: _FairLayout | None = None) -> dict:
    """``{E: _EntryTable}`` for one block of ``sizes`` (int64), for each energy
    E of ``tables`` (``_atom_tables`` of a two-atom law) whose table has no
    more rows than the block has shells times ``widths[E]``, the columns at
    E; so the tables take no more memory than the block itself.

    With ``layout``, the block's _FairLayout, when every shell draws by an
    alias table, an energy whose slot table fits the same bound gets the
    slot table, gathered from its (s, c) rows, in place of them.
    """
    sizes_u, inverse = np.unique(sizes, return_inverse=True)
    # in float, as sizes near 2^63 overflow int64; exact for a table that fits
    nrows = int(sizes_u.sum(dtype=np.float64)) + len(sizes_u)
    fits = [E for E in tables if nrows <= len(sizes) * widths[E]]
    if not fits:
        return {}
    rows = sizes_u + 1
    first = np.cumsum(rows) - rows
    s = np.repeat(sizes_u, rows)
    c = np.arange(nrows) - np.repeat(first, rows)
    counts = np.stack([c, s - c], axis=1)
    start = first[inverse]
    # the (s, c) row of each alias pair's count, for slot tables
    pair_rows = (first[np.searchsorted(sizes_u, layout.pair_sizes)] + layout.counts
                 if layout is not None and not len(layout.large) else None)
    out = {}
    for E in fits:
        _, r1, r2 = tables[E]
        m1 = counts @ r1 / s
        nonzero = m1 != 0.0
        a = np.divide(1.0, m1, out=np.zeros_like(m1), where=nonzero)
        w = None
        if with_w:
            m2 = counts @ r2 / s
            np.multiply(m1, m1, out=m1)
            w = np.divide(m2, m1, out=np.zeros_like(m2), where=nonzero)
        zero = None if nonzero.all() else ~nonzero
        at = start
        if pair_rows is not None and len(pair_rows) <= len(sizes) * widths[E]:
            at, a = None, a.take(pair_rows)
            w = None if w is None else w.take(pair_rows)
            zero = None if zero is None else zero.take(pair_rows)
        out[E] = _EntryTable(at, a, w, zero, int(_rescale_stride(np.abs(a).max(initial=0.0))))
    return out


def _shell_stats_block(dist: PotentialDistribution, E: float, lam: float,
                       sizes: np.ndarray, gen: np.random.Generator, *,
                       with_w: bool = False, layout: _FairLayout | None = None,
                       tables=None, entries: _EntryTable | None = None, out=None,
                       first: int = 0):
    """Per-shell harmonic entries a = 1/m1 and, ``with_w``, squared norms
    w = m2/(m1*m1) for one trial, m1 and m2 being the means of 1/(E-lam*v)
    and 1/(E-lam*v)^2 over shells of the int64 ``sizes``; w is None without
    weights.  ``out``, a pair of rows (the second None without weights),
    receives them when given.  A vanishing mean raises SingularShellError
    naming its shell, ``first`` being the index of the block's first one.

    Discrete laws reduce to multinomial atom counts (``layout`` is passed on
    to _multinomial_counts, ``tables`` is ``_atom_tables(dist, E, lam)``,
    built here when not given).  With ``entries``, the block's _EntryTable at
    E, a two-atom law draws only the first atom's counts c and gathers each
    shell's entries at ``entries.start + c``, or, from a slot table, draws
    only the alias pairs and gathers its entries at them.  Continuous laws
    draw every potential and segment-sum, in chunks of whole shells of at
    most _DRAW_CHUNK draws (or of one larger shell) that continue one
    stream, so they reproduce one draw bit for bit (a split shell would be
    summed in a different order); a chunk stays in cache across its passes.
    """
    out1, out2 = (None, None) if out is None else out
    if dist.is_discrete:
        probs, r1, r2 = _atom_tables(dist, E, lam) if tables is None else tables
    if entries is not None:
        idx = _multinomial_counts(gen, sizes, probs, layout=layout, first_only=True,
                                  pairs=entries.start is None)
        if entries.start is not None:
            idx = entries.start + idx
        if entries.zero is not None and entries.zero[idx].any():
            _raise_singular(first, entries.zero[idx])
        a = np.take(entries.a, idx, out=out1, mode="clip")
        w = np.take(entries.w, idx, out=out2, mode="clip") if with_w else None
        return a, w
    if dist.is_discrete:
        counts = _multinomial_counts(gen, sizes, probs, layout=layout)
        # numpy forms a one-row product with a dot, which can round
        # differently from the gemv of longer blocks: a lone shell is
        # padded to two rows
        rows = np.vstack([counts, counts]) if len(counts) == 1 else counts
        sum1 = (rows @ r1)[:len(counts)]
        sum2 = (rows @ r2)[:len(counts)] if with_w else None
    else:
        ends = np.cumsum(sizes)
        # every chunk is drawn into one buffer: a chunk holds at most
        # _DRAW_CHUNK draws or a single shell
        buf = np.empty(int(min(ends[-1], max(_DRAW_CHUNK, sizes.max()))))
        sum1, sum2 = [], []
        i0 = 0
        while i0 < len(sizes):
            base = ends[i0] - sizes[i0]
            i1 = max(i0 + 1, int(np.searchsorted(ends, base + _DRAW_CHUNK, side="right")))
            # r = 1/(E - lam v), then r^2, formed in the sample's buffer
            r = sample(dist, gen, out=buf[:int(ends[i1 - 1] - base)])
            r = r.astype(np.result_type(r, E), copy=False)
            np.multiply(r, -lam, out=r)
            r += E
            np.divide(1.0, r, out=r)
            starts = ends[i0:i1] - sizes[i0:i1] - base
            sum1.append(np.add.reduceat(r, starts))
            if with_w:
                np.multiply(r, r, out=r)
                sum2.append(np.add.reduceat(r, starts))
            i0 = i1
        sum1 = np.concatenate(sum1)
        sum2 = np.concatenate(sum2) if with_w else None
    m1 = np.divide(sum1, sizes, out=sum1)
    if not m1.all():
        _raise_singular(first, m1 == 0.0)
    a = np.divide(1.0, m1, out=out1)
    w = None
    if with_w:
        np.multiply(m1, m1, out=m1)
        w = np.divide(np.divide(sum2, sizes, out=sum2), m1, out=out2)
    return a, w


def _check_draws(total: float, largest: float) -> None:
    """Raise SizeLimitError when a continuous-law stream would draw ``total``
    potentials, over _DRAW_BUDGET, or ``largest`` in one shell, over
    _SHELL_DRAWS; callers check before drawing."""
    if total > _DRAW_BUDGET or largest > _SHELL_DRAWS:
        raise SizeLimitError(f"{total:.0f} potential draws per trial, {largest:.0f} in "
                             f"one shell: over {_DRAW_BUDGET} or {_SHELL_DRAWS}")


def _raise_singular(first: int, zero: np.ndarray):
    shell = first + int(np.flatnonzero(zero)[0])
    raise SingularShellError(f"sampled shell {shell} has vanishing inverse mean", shell=shell)


def _shell_blocks(dist: PotentialDistribution, law: GrowthLaw, lam: float, N: int,
                  columns, seed: int, domain: int, *, reverse: bool = False,
                  with_w: bool = False):
    """Yield ``(n0, n1, A, W, strides)`` for each block of shells n0 <= n < n1.

    ``columns`` lists ``(E, cell, trial)``; column j of the fresh (n1 - n0,
    len(columns)) array A holds the harmonic entries 1/mean(1/(E - lam*v))
    of its shells.  Block b of a column is drawn from the column's stream,
    ``seed_stream(seed, domain, cell, trial)``, re-stated to row b of its
    ``_block_states``; the one seed_stream call per column is made before
    the first block, by a call that draws, so lam = 0 derives nothing.  A
    column's draws therefore do not depend on which other columns share the
    call, on N or on the direction: ``reverse`` yields the same blocks last
    to first.  W
    holds the squared shell-vector norms a^2 * mean(1/(E - lam*v)^2) when
    ``with_w`` is set and is None otherwise.  lam = 0 draws nothing: A = E and W = 1 exactly.  A is
    complex when the energies are (the m-function's spectral parameter z);
    one call's energies are all real or all complex.  Raises SizeLimitError
    before drawing when a continuous-law column would exceed _DRAW_BUDGET
    draws or one shell _SHELL_DRAWS.

    ``strides`` is ``_column_strides(A)``, formed here alone: read-only from
    the entries' source where that fixes them, and measured on A otherwise.
    At lam = 0 each column's stride is its energy's, and a two-atom law's
    block is at _MAX_STRIDE when every column gathers from an entry table at
    that stride.  A table at a smaller stride holds entries that the block
    may not draw, so such a block is measured.

    Each column's entries come from one _shell_stats_block call, from the
    block's _EntryTable at its energy when a two-atom law's table fits
    (_entry_tables), a slot table when the law's first step is fair and
    every shell of the block draws by an alias table.  The entries of a tile
    of up to _TILE columns are staged as contiguous rows of A's dtype and
    copied, transposed, into A and W once per tile rather than one strided
    column at a time.
    """
    if lam != 0.0 and not dist.is_discrete:
        total = largest = 0.0
        for n0 in range(0, N, BLOCK):
            sizes = law.sizes_block(n0, min(N, n0 + BLOCK))
            # in float: a block of sizes near 2^62 overflows an int64 sum
            total += float(sizes.sum(dtype=np.float64))
            largest = max(largest, float(sizes.max()))
        _check_draws(total, largest)
    energies = [E for E, _, _ in columns]
    # atom tables once per energy, not per column and block
    tables = ({E: _atom_tables(dist, E, lam) for E in dict.fromkeys(energies)}
              if lam != 0.0 and dist.is_discrete else {})
    dtype = np.result_type(float, *energies)
    energies = np.array(energies, dtype=dtype)
    # a fair first step draws by the block's _FairLayout
    fair = bool(tables) and _fair_first([w for _, w in dist.atoms])
    # columns per energy, which bound its _EntryTable, for a two-atom law
    two_atoms = bool(tables) and len(dist.atoms) == 2
    widths = collections.Counter(E for E, _, _ in columns) if two_atoms else {}
    # the strides that the entries' source fixes: at lam = 0 each energy's,
    # else _MAX_STRIDE, for the blocks whose entry tables all allow it
    strides = (_rescale_stride(np.abs(energies)) if lam == 0.0
               else np.full(len(columns), _MAX_STRIDE))
    strides.flags.writeable = False
    nblocks = (N + BLOCK - 1) // BLOCK
    if lam != 0.0 and nblocks:
        shape = (min(_TILE, len(columns)), min(BLOCK, N))
        stage1 = np.empty(shape, dtype=dtype)
        stage2 = np.empty(shape, dtype=dtype) if with_w else None
        # each column's generator and its blocks' states, from one seed_stream call
        streams = [(gen, _block_states(gen, nblocks)) for gen in
                   (seed_stream(seed, domain, cell, trial) for _, cell, trial in columns)]
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
            layout = _fair_layout(sizes) if fair else None
            entries = _entry_tables(sizes, tables, widths, with_w, layout) if widths else {}
            for j0 in range(0, len(columns), _TILE):
                j1 = min(j0 + _TILE, len(columns))
                a = stage1[:j1 - j0, :n1 - n0]
                w = stage2[:j1 - j0, :n1 - n0] if with_w else None
                for j in range(j0, j1):
                    E = columns[j][0]
                    gen, states = streams[j]
                    _shell_stats_block(dist, E, lam, sizes, _restate(gen, states[b]),
                                       with_w=with_w, layout=layout, tables=tables.get(E),
                                       entries=entries.get(E),
                                       out=(a[j - j0], w[j - j0] if with_w else None),
                                       first=n0)
                np.copyto(A[:, j0:j1], a.T)
                if with_w:
                    np.copyto(W[:, j0:j1], w.T)
        known = lam == 0.0 or (len(entries) == len(widths) > 0 and all(
            t.stride == _MAX_STRIDE for t in entries.values()))
        yield n0, n1, A, W, strides if known else _column_strides(A)
        # a caller that drops its own references lets the block be freed
        # before the next one is allocated
        A = W = None


def _rescale_stride(a_abs_max):
    """Shells between rescale checks of the raw passes over a block, as an
    int64 array shaped like ``a_abs_max``, the largest |a| of each column.

    The largest power of two up to _MAX_STRIDE whose growth bound
    (1 + max|a|)^stride stays within 2^(RESCALE_EXP/2), and 0 where one
    shell may grow entries by more, which no rescale stride can step.  Every
    stride divides BLOCK, so each block ends on a check.  Taken per column,
    a column's results do not depend on which columns share its call.
    """
    # capped, so that an infinite |a| halves to 0 as well
    growth = np.minimum(np.log2(1.0 + np.asarray(a_abs_max, dtype=np.float64)), RESCALE_EXP)
    stride = np.full(growth.shape, _MAX_STRIDE, dtype=np.int64)
    while (over := (stride > 0) & (stride * growth > RESCALE_EXP / 2)).any():
        stride[over] //= 2
    return stride


def _column_strides(A: np.ndarray) -> np.ndarray:
    """``_rescale_stride`` of each column of the block A, from |a| when A is
    complex.

    No column's stride is below the whole block's, so a block that allows
    _MAX_STRIDE skips the per-column reductions, which take ten times as
    long as whole-block ones on a block of 8 columns.
    """
    A = np.abs(A) if np.iscomplexobj(A) else A
    if _rescale_stride(max(A.max(initial=0.0), -A.min(initial=0.0))) == _MAX_STRIDE:
        return np.full(A.shape[1], _MAX_STRIDE)
    return _rescale_stride(np.maximum(A.max(axis=0), -A.min(axis=0)))


class _Segments:
    """One block of entries A cut into segments of ``stride`` shells, for the
    columns ``cols`` (an index array) of a _FoldReplay that share that stride.

    ``start`` (segments + 1, 2, columns) holds the pair (u, p) at each
    segment start and ``start_exp`` its exponents, written by the fold;
    ``work``, viewed as (_WORK_ROWS, segments, columns), and ``work_exp``,
    viewed as (2, segments, columns), are the kernel's work space.
    """

    def __init__(self, A, stride, cols, start, start_exp, work, work_exp):
        self.A, self.stride, self.cols = A, stride, cols
        self.nseg = -(-len(A) // stride)
        self.steps = min(stride, len(A))                 # length of the longest segment
        self.last = len(A) - (self.nseg - 1) * stride    # length of the last segment
        self.start, self.start_exp = start, start_exp
        shape = (self.nseg, len(cols))
        self.work = work[:_WORK_ROWS * shape[0] * shape[1]].reshape(_WORK_ROWS, *shape)
        self.work_exp = work_exp[:2 * shape[0] * shape[1]].reshape(2, *shape)

    def replay(self, segs, steps, W=None):
        """Step the segments ``segs`` (increasing indices) from their start
        states.  After step i yield ``(i, m, u, p, w)``: rows [:m] of u and p
        hold the pair at shell i + 1 of the first m segments, the short last
        segment dropping out after its last shell, and rows [:m] of w the
        entries of W at that shell, when W (shells x at most as many columns
        as A) is given."""
        m0 = len(segs)
        cur, prev, a, tmp = (buf[:m0] for buf in self.work[:4])
        w = None if W is None else self.work[4].reshape(-1)[:m0 * W.shape[1]].reshape(m0, -1)
        np.take(self.start[:, 0], segs, axis=0, out=cur, mode="clip")
        np.take(self.start[:, 1], segs, axis=0, out=prev, mode="clip")
        rows = segs * self.stride
        short = self.last < steps and segs[-1] == self.nseg - 1
        for i in range(steps):
            m = m0 - 1 if short and i >= self.last else m0
            np.take(self.A, rows[:m] + i, axis=0, out=a[:m], mode="clip")
            if W is not None:
                np.take(W, rows[:m] + i, axis=0, out=w[:m], mode="clip")
            np.multiply(a[:m], cur[:m], out=tmp[:m])
            np.subtract(tmp[:m], prev[:m], out=prev[:m])
            cur, prev = prev, cur
            yield i, m, cur, prev, w

    def offsets(self, segs, shells):
        """Map each offset o (1 .. stride) within a segment to ``(k, row)``:
        the indices k into the increasing ``shells`` (1-based within the
        block) that lie at offset o, and the rows of their segments in the
        increasing ``segs``, which hold every segment of a shell."""
        seg = (shells - 1) // self.stride
        off = shells - seg * self.stride
        row = np.searchsorted(segs, seg)
        return {int(o): (k, row[k]) for o in np.unique(off) for k in [np.flatnonzero(off == o)]}


class _FoldReplay:
    """Fold-and-replay stepping of the raw pair (u, p) * 2^exps of ``ncol``
    columns, seeded (1, 0) unless the caller sets ``u`` and ``p``, block by
    block.

    ``fold(A, strides)`` cuts a block of entries into segments of each
    column's ``_column_strides`` stride, as ``_shell_blocks`` yields them,
    the last segment shorter when the stride does not divide the block;
    columns of one stride go together, gathered with np.take, and A is used
    as it is (copied only if strided) when they all share it.  The fold
    forms the segments' two solutions seeded (1, 0) and (c, 1) in ``stride``
    steps vectorized over (segments x columns); a state
    (u, p) = (u - c p) (1, 0) + p (c, 1) has the coordinates y = (u - c p, p)
    in that seed basis.  A prefix scan of the segment maps in y, in
    ceil(log2(segments - 1)) levels, then writes every segment's start state
    at once and rescales them with one ``_rescale_where``
    (``_fold_segments``).  Each read replays every segment it needs from its
    start state in one pass, with the per-shell loop's own steps:
    ``log_radius`` at checkpoints, whose replay sets the pairs aside and
    reads them all at once, ``window_sum`` over the density window, which
    squares each shell's u once and reuses it as the next shell's p,
    ``weighted_sums`` between checkpoints (the backward subordinacy pass) and
    ``gram`` (the weighted Gram factor of pairs of columns).  The last two
    combine the segments' own sums without a loop over segments:
    ``_cut_logs`` adds each cut's segment sums at once, and ``_fold_scan``
    folds the segments' Gram factors in a prefix scan of log depth.

    The seed c = cos k keeps the fold as accurate as the per-shell loop near
    band edges: there the raw pair lies close to (cos k, 1) while the seed
    (0, 1) grows linearly across a segment, and the product seeded (1, 0),
    (0, 1) misses the cancellation of the pair by up to 1/sin k.  The start
    states and the work arrays, 18 values per segment and column, are
    allocated with the instance for a block at _MAX_STRIDE and grow only
    when a smaller stride needs more, so they are bounded by the block and
    never grow with the shell count.  They are complex when c is (the
    m-function folds complex entries) and float64 otherwise.
    """

    def __init__(self, ncol: int, c: float | complex = 0.0):
        self.c = c
        dtype = np.result_type(float, c)
        self.u = np.ones(ncol, dtype=dtype)
        self.p = np.zeros(ncol, dtype=dtype)
        self.exps = np.zeros(ncol, dtype=np.int64)
        # allocated before any block is drawn: allocated between the blocks
        # and the records that callers keep, work arrays fragmented the heap
        # and raised its peak by more than their size over repeated calls
        self._cap = 0
        self._reserve((BLOCK // _MAX_STRIDE + 1) * ncol)
        self._groups: list[_Segments] = []

    def _reserve(self, size: int) -> None:
        """Hold ``size`` (segments + 1) x columns, summed over the groups.
        Work rows: the fold's leapfrog pair of both segment solutions, which
        end as the segment maps, its product and the step's entries, then the
        scan's two buffers of four entries of a 2x2 map and the product of its
        combine step; or the replay's pairs, gathered entries and product,
        then the gathered weights or the window's scale, and up to four
        accumulators or temporaries.  The two exponent rows are the scan's,
        or the window scale's.  Each group views a prefix of the work
        buffers."""
        if size > self._cap:
            self._cap = size
            self._start = np.empty(2 * size, dtype=self.u.dtype)   # (u, p) at segment starts
            self._start_exp = np.empty(size, dtype=np.int64)
            self._work = np.empty(_WORK_ROWS * size, dtype=self.u.dtype)
            self._work_exp = np.empty(2 * size, dtype=np.int64)

    def fold(self, A: np.ndarray, strides: np.ndarray) -> None:
        """Advance the state across the block A (shells x columns), each
        column in segments of its own stride: ``strides``, which must be
        ``_column_strides(A)``, as ``_shell_blocks`` yields it.  A stride of
        0, of entries that one shell may grow past the rescale rule's bound,
        raises DomainError."""
        if not strides.all():
            raise DomainError(f"shell entries beyond 2^{RESCALE_EXP // 2} in magnitude: no rescale "
                              "stride steps them", reason="entry_range")
        groups = [(np.flatnonzero(strides == s), s) for s in sorted(set(strides.tolist()))]
        sizes = [(-(-len(A) // s) + 1) * len(cols) for cols, s in groups]
        self._reserve(sum(sizes))
        self._groups = []
        at = 0
        for (cols, stride), size in zip(groups, sizes):
            # one stride folds A as it is (np.take, which gathers the replays,
            # copies a strided A whole); more gather each group C-contiguous
            Ag = np.ascontiguousarray(A) if len(groups) == 1 else np.take(A, cols, axis=1)
            g = _Segments(Ag, stride, cols,
                          self._start[2 * at:2 * (at + size)].reshape(-1, 2, len(cols)),
                          self._start_exp[at:at + size].reshape(-1, len(cols)), self._work,
                          self._work_exp)
            at += size
            X, E = g.start, g.start_exp
            X[0, 0], X[0, 1], E[0] = self.u[cols], self.p[cols], self.exps[cols]
            self._fold_segments(g)
            self.u[cols], self.p[cols], self.exps[cols] = X[-1, 0], X[-1, 1], E[-1]
            self._groups.append(g)

    def release(self) -> None:
        """Drop the last fold's segments, which hold its block; a caller that
        also drops its own reference frees the block before the next one is
        drawn."""
        self._groups = []

    def _fold_segments(self, g: _Segments) -> None:
        """Form the maps of the segments of g and write every start state
        from the first one.

        ``stride`` steps vectorized over (segments x columns) form each
        segment's map M, whose columns are its two solutions seeded (1, 0)
        and (c, 1).  In the coordinates y = (u - c p, p) of that seed basis
        a segment maps y to y' by T = ((1, -c), (0, 1)) M, and the state
        after segment j is X[j+1] = M_j y_j with y_j = T_{j-1} ... T_0 y_0.
        ``_scan`` forms those products of T_0 .. T_{nseg-2} in
        ceil(log2(nseg - 1)) levels, every (segment, column) carrying its own
        exponent; then every start state is written at once and rescaled by
        one ``_rescale_where``.  Each step acts on one column alone."""
        stride, nseg, steps = g.stride, g.nseg, g.steps
        # [parity][seed][segment][column]
        bufs = g.work[:4].reshape(2, 2, nseg, -1)
        bufs[0, 0], bufs[0, 1], bufs[1, 0], bufs[1, 1] = 0.0, 1.0, 1.0, self.c
        tmp, rows = g.work[4:6], g.work[6]
        for i in range(steps):
            # the step's entries copied contiguous, read once per seed
            m = nseg - (i >= g.last)
            np.copyto(rows[:m], g.A[i::stride])
            new, cur = bufs[i % 2, :, :m], bufs[1 - i % 2, :, :m]
            np.multiply(rows[:m], cur, out=tmp[:, :m])
            np.subtract(tmp[:, :m], new, out=new)
        # after n steps the current entries sit at parity (n - 1) % 2; a short
        # last segment that stopped on the other parity swaps its row back
        if (steps - g.last) % 2:
            tmp[:, 0] = bufs[0, :, -1]
            bufs[0, :, -1] = bufs[1, :, -1]
            bufs[1, :, -1] = tmp[:, 0]
        # M[row, seed]: row 0 the segment's last entries, row 1 the ones before
        M = bufs[::-1] if steps % 2 == 0 else bufs
        X, E = g.start, g.start_exp
        t = g.work[12]
        n = nseg - 1    # the maps before the last segment's
        # the maps T as entries (00, 01, 10, 11), scanned into their products P
        T = g.work[4:8, :n]
        P, P_exp = T, g.work_exp[0, :n]
        if n:
            for s in (0, 1):
                np.multiply(self.c, M[1, s, :n], out=T[s])
                np.subtract(M[0, s, :n], T[s], out=T[s])
                T[2 + s] = M[1, s, :n]
            P_exp[:] = 0
            P, P_exp = _scan(T, P_exp, g.work[8:12, :n], g.work_exp[1, :n],
                             functools.partial(_map_product, tmp=t))
        # y_j = P_{j-1} y_0 in the other scan buffer, from y_0 = (u - c p, p)
        Y = g.work[8:10] if P is T else g.work[4:6]
        np.multiply(self.c, X[0, 1], out=Y[0, 0])
        np.subtract(X[0, 0], Y[0, 0], out=Y[0, 0])
        Y[1, 0] = X[0, 1]
        for r in (0, 1):
            np.multiply(P[2 * r], Y[0, 0], out=Y[r, 1:])
            np.multiply(P[2 * r + 1], Y[1, 0], out=t[:n])
            Y[r, 1:] += t[:n]
        E[1] = E[0]
        np.add(P_exp, E[0], out=E[2:])
        for r in (0, 1):
            np.multiply(M[r, 0], Y[0], out=X[1:, r])
            np.multiply(M[r, 1], Y[1], out=t)
            X[1:, r] += t
        _rescale_where([X[1:, 0], X[1:, 1]], E[1:])

    def log_radius(self, shells: np.ndarray, ck: float, sk: float, out: np.ndarray) -> None:
        """Write log hypot(u - ck p, sk p) + exps ln 2 at the increasing shells
        ``shells`` (1-based within the last fold) into the rows of ``out``.
        Each group's replay copies the pair at every read shell aside, and
        the reads are formed from those copies, one pass per operation."""
        for g in self._groups:
            seg = (shells - 1) // g.stride
            segs = np.unique(seg)
            at = g.offsets(segs, shells)
            u_at, p_at = np.empty((2, len(shells), len(g.cols)), dtype=self.u.dtype)
            for i, _, u, p, _ in g.replay(segs, max(at, default=0)):
                if (hit := at.get(i + 1)) is not None:
                    k, r = hit
                    u_at[k], p_at[k] = u[r], p[r]
            out[:, g.cols] = (np.log(np.hypot(u_at - ck * p_at, sk * p_at))
                              + g.start_exp[seg] * LN2)

    def window_sum(self, first: int) -> np.ndarray:
        """Sum of 2^(-2 exps) / (u^2 + p^2) over the shells from ``first``
        (1-based within the last fold) to the end of the block, per column:
        per segment in shell order, then over the segments in order.  After
        the first step p is the u of the step before, so each step squares
        only u and keeps its square for the next."""
        total = np.zeros(len(self.u))
        for g in self._groups:
            j0 = (first - 1) // g.stride
            skip = first - 1 - j0 * g.stride   # shells of segment j0 before the window
            segs = np.arange(j0, g.nseg)
            scale, acc, t, u2, p2 = (buf[:len(segs)] for buf in g.work[4:9])
            scale_exp = g.work_exp[0, :len(segs)]
            np.multiply(g.start_exp[j0:g.nseg], -2, out=scale_exp)
            np.ldexp(1.0, scale_exp, out=scale)
            acc[:] = 0.0
            for i, m, u, p, _ in g.replay(segs, g.steps):
                if not i:
                    np.multiply(p, p, out=p2)
                lo = 1 if i < skip else 0
                # every row's square, as the next step reads it for p
                np.multiply(u[:m], u[:m], out=u2[:m])
                np.add(u2[lo:m], p2[lo:m], out=t[lo:m])
                np.divide(scale[lo:m], t[lo:m], out=t[lo:m])
                acc[lo:m] += t[lo:m]
                u2, p2 = p2, u2
            np.add.accumulate(acc, axis=0, out=acc)   # over the segments in order
            total[g.cols] = acc[-1]
        return total

    def weighted_sums(self, W: np.ndarray, cuts: np.ndarray, acc: np.ndarray,
                      acc_exp: np.ndarray, out: np.ndarray) -> None:
        """Add W_n p_n^2 over the shells n of the last fold to the running
        sums ``acc`` (in units 2^(2 acc_exp), both updated in place), per
        column; p_n, the pair's second entry after shell n, is its first
        before, and W is shaped like the folded block.  After each of the
        increasing shells ``cuts`` (1-based within the block) write
        log(acc) + 2 acc_exp ln 2 into the rows of ``out`` and restart the sum
        at zero.  Each segment sums its terms in shell order, split at its
        cuts; ``_cut_logs`` then adds, for every cut at once, the segment
        sums since the previous cut in order, in the units of the cut's
        segment, with the same roundings as adding them one segment at a
        time."""
        for g in self._groups:
            ng = len(g.cols)
            segs = np.arange(g.nseg)
            at = g.offsets(segs, cuts)
            pieces = np.empty((len(cuts), ng))   # the terms up to each cut
            tails, t = g.work[5], g.work[6]      # the terms after a segment's last cut
            tails[:] = 0.0
            for i, m, _, p, w in g.replay(segs, g.steps, W=np.take(W, g.cols, axis=1)):
                np.multiply(p[:m], p[:m], out=t[:m])
                t[:m] *= w[:m]
                tails[:m] += t[:m]
                if (hit := at.get(i + 1)) is not None:
                    k, r = hit
                    pieces[k] = tails[r]
                    tails[r] = 0.0
            logs, acc[g.cols], acc_exp[g.cols] = _cut_logs(
                pieces, tails, g.start_exp[:g.nseg], (cuts - 1) // g.stride,
                acc[g.cols], acc_exp[g.cols])
            out[:, g.cols] = logs

    def gram(self, W: np.ndarray, shells: np.ndarray, factor: np.ndarray,
             factor_exp: np.ndarray, out_dom: np.ndarray, out_grid: np.ndarray) -> None:
        """For columns [u | v], the two solutions of each of ncol/2 trials, add
        W_n x_n x_n^T with x_n = (u, v) before shell n, over the shells of the
        last fold, to each trial's Gram matrix.  It is held as the lower
        Cholesky factor ``factor`` (3, trials: l11, l21, l22) in units
        2^factor_exp, both updated in place; W (shells x trials) holds the
        weights.  At the increasing ``shells`` (1-based within the block)
        write the Gram reads (``_gram_logs``) into the rows of ``out_dom``
        and ``out_grid``.

        A replay of every segment forms its own factor by per-shell rank-one
        updates in the segment's units, recording it at the read shells.
        ``_fold_scan`` then forms the running factor at every segment start,
        and after the block, as prefix folds of [running factor, segment
        factors] in ceil(log2(segments + 1)) levels of ``_fold_factor``, and
        a read combines the running factor at its segment's start with the
        recorded partial factor the same way.  The scan associates the sums
        differently from folding the segments one by one, which moves the
        reads by about one rounding of the trace.
        """
        for g in self._groups:
            h = len(g.cols) // 2
            trials = g.cols[:h]
            # the scan's items: the running factor, then each segment's own
            # factor, built in place; u and v of a trial are rescaled apart,
            # so the segments' units are the larger of their exponents
            E0 = g.start_exp[:g.nseg]
            seg_exp = np.maximum(E0[:, :h], E0[:, h:])
            scale = np.ldexp(1.0, E0 - np.hstack([seg_exp, seg_exp]))
            items = np.zeros((3, g.nseg + 1, h))
            items_exp = np.vstack([factor_exp[trials], seg_exp])
            items[:, 0] = factor[:, trials]
            local = items[:, 1:]
            partial = np.empty((3, len(shells), h))
            segs = np.arange(g.nseg)
            at = g.offsets(segs, shells)
            for i, m, _, p, w in g.replay(segs, g.steps, W=np.take(W, trials, axis=1)):
                x = p[:m] * scale[:m]
                sw = np.sqrt(w[:m])
                local[:, :m] = _chol_rank1_update(local[0, :m], local[1, :m], local[2, :m],
                                                  sw * x[:, :h], sw * x[:, h:])
                if (hit := at.get(i + 1)) is not None:
                    k, r = hit
                    partial[:, k] = local[:, r]
            # prefix[:, s] is the running factor at the start of segment s
            prefix, prefix_exp = _fold_scan(items, items_exp)
            factor[:, trials], factor_exp[trials] = prefix[:, -1], prefix_exp[-1]
            if len(shells):
                seg = (shells - 1) // g.stride
                read_exp = prefix_exp[seg]
                read = _fold_factor(prefix[:, seg], partial,
                                    np.ldexp(1.0, seg_exp[seg] - read_exp))
                _rescale_where(list(read), read_exp)
                dom, grid = _gram_logs(read, read_exp)
                out_dom[:, trials], out_grid[:, trials] = dom, grid


def _shell_count(N, least: int = 1) -> int:
    """N as a whole shell count >= ``least`` (``_whole_count``), raising
    SizeLimitError beyond _SHELL_BUDGET shells, before any work is done."""
    N = _whole_count(N, least)
    if N > _SHELL_BUDGET:
        raise SizeLimitError(f"{float(N):.4g} shells: over the budget of {_SHELL_BUDGET}")
    return N


def checkpoints_geometric(N: int) -> np.ndarray:
    """Geometrically spaced shell indices in [1, N], always including N, as a
    read-only array that every record of a batch shares."""
    N = _shell_count(N)
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

    @property
    def final_log_r(self) -> float:
        return float(self.log_r[-1])

    @property
    def slope(self) -> float:
        return self.final_log_r / float(self.sum_inv[-1])


def _forward_polar_pass(dist, law, eff, N, trial_ids, seed, cell):
    """Polar log-radius for lyapunov_batch, vectorized across trials: steps the
    Dirichlet pair from (1, 0) through the fold-and-replay kernel, reading
    log R off it at each checkpoint."""
    E, lam = eff.E, eff.lam
    ck, sk = math.cos(eff.k), math.sin(eff.k)
    T = len(trial_ids)
    cps = checkpoints_geometric(N)
    cp_suminv = _checkpoint_sum_inv(law, cps)
    cp_logr = np.empty((len(cps), T))
    scan = _FoldReplay(T, ck)
    columns = [(E, cell, trial) for trial in trial_ids]
    for n0, n1, A, _, strides in _shell_blocks(dist, law, lam, N, columns, seed,
                                               DOMAIN_TRAJECTORY):
        scan.fold(A, strides)
        c0, c1 = np.searchsorted(cps, [n0, n1], side="right")
        if c1 > c0:
            scan.log_radius(cps[c0:c1] - n0, ck, sk, cp_logr[c0:c1])
        del A
        scan.release()
    return [TrajectoryRecord(E=E, lam=lam, N=N, trial=int(trial), ns=cps, sum_inv=cp_suminv,
                             log_r=cp_logr[:, t].copy())
            for t, trial in enumerate(trial_ids)]


def lyapunov_batch(dist: PotentialDistribution, law: GrowthLaw, E: float, lam: float,
                   N: int, trial_ids, seed: int, cell: int = 0) -> list[TrajectoryRecord]:
    """Forward trajectories for a set of trial ids with keyed streams.

    Per-trial draws are identical however trials are grouped, which keeps
    sweep outputs independent of scheduling.  Trial ids are stream keys,
    checked even where lam = 0 draws nothing.
    """
    N = _shell_count(N)
    eff = effective_quantities(dist, E, lam)
    trial_ids = [_whole_count(t, 0, "seed") for t in trial_ids]
    return _forward_polar_pass(dist, law, eff, N, trial_ids, seed, cell)


def lyapunov_estimate(records) -> tuple[float, float]:
    """Ensemble mean and standard error of log R / sum(1/s) over trials."""
    return _mean_stderr([r.slope for r in records])


def _mean_stderr(values) -> tuple[float, float]:
    """Mean and standard error of two or more per-trial values."""
    if len(values) < 2:
        raise InsufficientTrialsError(f"need at least 2 trials, got {len(values)}")
    v = np.asarray(values, dtype=np.float64)
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(len(v)))


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
    if np.min(r, initial=math.inf) > 0.0:
        cg, sg = l11 / r, x1 / r
    else:
        safe = r > 0.0
        cg = np.divide(l11, r, out=np.ones_like(r), where=safe)
        sg = np.divide(x1, r, out=np.zeros_like(r), where=safe)
    l21n = cg * l21 + sg * x2
    x2n = cg * x2 - sg * l21
    return r, l21n, np.hypot(l22, x2n)


def _fold_factor(factor, other, scale):
    """Lower Cholesky factor of F F^T + scale^2 O O^T, for the factors
    F = ``factor`` and O = ``other`` given as (l11, l21, l22): a rank-one
    update by the first column of scale * O; the second, (0, scale * o22),
    leaves l11 and l21 as they are and only lengthens l22."""
    l11, l21, l22 = _chol_rank1_update(factor[0], factor[1], factor[2],
                                       scale * other[0], scale * other[1])
    return l11, l21, np.hypot(l22, scale * other[2])


def _gram_logs(factor, exp):
    """For the Gram matrix G = L L^T 4^exp of the lower factor L = ``factor``
    (l11, l21, l22): log of its top eigenvalue, and the log of the least over
    the largest x^T G x over GRID_ANGLES unit directions x."""
    l11, l21, l22 = factor
    g11 = l11 * l11
    g12 = l11 * l21
    g22 = l21 * l21 + l22 * l22
    half_tr = 0.5 * (g11 + g22)
    disc = np.sqrt((0.5 * (g11 - g22)) ** 2 + g12 * g12)
    angles = np.linspace(0.0, math.pi, GRID_ANGLES, endpoint=False)
    with np.errstate(divide="ignore"):
        q1 = np.multiply.outer(np.cos(angles), l11) + np.multiply.outer(np.sin(angles), l21)
        q2 = np.multiply.outer(np.sin(angles), l22)
        vals = q1 * q1 + q2 * q2
        return (np.log(half_tr + disc) + 2.0 * exp * LN2,
                np.log(vals.min(axis=0)) - np.log(vals.max(axis=0)))


def _scan(items, exps, spare, spare_exp, combine):
    """Inclusive prefix combinations of ``items`` (k, n, columns), item j in
    units 2^exps[j], along their second axis.  A Hillis-Steele doubling scan
    (Blelloch 1990) in ceil(log2 n) levels: at distance d = 1, 2, 4, ...
    every item j >= d takes in item j - d by ``combine(a, a_exp, b, b_exp,
    out, out_exp)``, which writes the combination of the later items a with
    the earlier ones b into out, in units 2^out_exp, and each level ends
    with one ``_rescale_where``.  The levels alternate between the items,
    which they overwrite, and ``spare`` and ``spare_exp``, shaped like them;
    the pair that holds the result is returned."""
    n = items.shape[1]
    src, src_exp, dst, dst_exp = items, exps, spare, spare_exp
    d = 1
    while d < n:
        dst[:, :d], dst_exp[:d] = src[:, :d], src_exp[:d]
        combine(src[:, d:], src_exp[d:], src[:, :-d], src_exp[:-d], dst[:, d:], dst_exp[d:])
        _rescale_where(list(dst[:, d:]), dst_exp[d:])
        src, src_exp, dst, dst_exp = dst, dst_exp, src, src_exp
        d *= 2
    return src, src_exp


def _map_product(a, a_exp, b, b_exp, out, out_exp, *, tmp):
    """``_scan``'s combine step for 2x2 maps given by their entries (00, 01,
    10, 11) along the first axis: out = a b, whose exponents add; ``tmp``
    holds a row of partial products."""
    t = tmp[:a.shape[1]]
    for r in (0, 1):
        for s in (0, 1):
            np.multiply(a[2 * r], b[s], out=out[2 * r + s])
            np.multiply(a[2 * r + 1], b[2 + s], out=t)
            out[2 * r + s] += t
    np.add(a_exp, b_exp, out=out_exp)


def _factor_fold(a, a_exp, b, b_exp, out, out_exp):
    """``_scan``'s combine step for lower Gram factors (l11, l21, l22): the
    factor of the sum of both Gram matrices, by ``_fold_factor``, with both
    brought to the larger of their exponents by scales <= 1."""
    e = np.maximum(b_exp, a_exp, out=out_exp)
    out[0], out[1], out[2] = _fold_factor(np.ldexp(b, b_exp - e), a, np.ldexp(1.0, a_exp - e))


def _fold_scan(items, exps):
    """Inclusive prefix folds of the Gram factors ``items`` (3, n, columns),
    item j in units 2^exps[j]: entry j of the result is the lower factor of
    the sum of L L^T 4^e over the items 0..j, by ``_scan`` with
    ``_factor_fold``, in place of the inputs and one pair of buffers shaped
    like them."""
    return _scan(items, exps, np.empty_like(items), np.empty_like(exps), _factor_fold)


def _cut_logs(pieces, tails, seg_exp, cseg, acc, acc_exp):
    """Close the running sums of positive terms at the increasing cuts of
    one block of segments, per column.

    Segment s holds its terms in units 2^(2 seg_exp[s]); cut k, in segment
    ``cseg[k]``, closes its sum with ``pieces[k]``, the segment's terms since
    the previous cut or the segment start, and ``tails[s]`` holds segment
    s's terms after its last cut.  The open sum ``acc`` (units
    2^(2 acc_exp)) precedes the block.  Returns log(sum) + 2 e ln 2 at each
    cut, e its segment's exponent, and the new open sum with its exponent,
    those of the last segment.

    Each of the items [acc, tails[0], ...] goes to the first cut at or after
    it, or to the open sum after the last cut, and is brought to the units
    of that cut's segment by one ldexp; ``np.bincount`` adds each cut's
    items in item order, and the cut's piece is added last.  Scaling by a
    power of two commutes with rounding outside the subnormal range, so the
    sums equal those of adding the segments in order, each rescaled to the
    next segment's units.
    """
    nseg, ng = tails.shape
    units = seg_exp[np.append(cseg, nseg - 1)]                 # per cut, then the open sum
    owner = np.searchsorted(cseg, np.arange(nseg + 1))         # the cut of each item
    items = np.vstack([acc, tails])
    np.ldexp(items, 2 * (np.vstack([acc_exp, seg_exp]) - units[owner]), out=items)
    flat = (owner[:, None] * ng + np.arange(ng)).ravel()
    sums = np.bincount(flat, items.ravel(), minlength=len(units) * ng).reshape(-1, ng)
    with np.errstate(divide="ignore"):
        logs = np.log(sums[:-1] + pieces) + 2.0 * units[:-1] * LN2
    return logs, sums[-1], units[-1]


def _rescale_where(arrays, exps):
    """Divide each column by 2^e where its magnitude exponent e exceeds
    RESCALE_EXP; accumulate e into ``exps`` (int64, modified in place).
    Real arrays are first checked by their extremes, without a temporary."""
    if not np.iscomplexobj(arrays[0]) and all(
            arr.max(initial=0.0) < _RESCALE_AT and arr.min(initial=0.0) > -_RESCALE_AT
            for arr in arrays):
        return exps
    m = np.abs(arrays[0])
    for arr in arrays[1:]:
        np.maximum(m, np.abs(arr), out=m)
    if m.max(initial=0.0) < _RESCALE_AT:   # no exponent exceeds RESCALE_EXP
        return exps
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
    contamination is small.  Both passes run on the fold-and-replay kernel.
    The forward pass keeps its latest blocks of draws up to _HOLD_BYTES,
    and the backward pass redraws only the earlier blocks, identically,
    from their trials' streams re-stated to those blocks.  Without the Gram pass (decay
    fits) every block is drawn once, without the weights W, and only
    ``log_sub`` is filled; the other fields are NaN.
    """
    N = _shell_count(N)
    eff = effective_quantities(dist, E, lam)
    ck = math.cos(eff.k)
    trial_ids = [_whole_count(t, 0, "seed") for t in trial_ids]
    T = len(trial_ids)
    cps = checkpoints_geometric(N)
    ncp = len(cps)
    cp_suminv = _checkpoint_sum_inv(law, cps)
    columns = [(E, cell, trial) for trial in trial_ids]
    cp_logmax = np.full((ncp, T), math.nan)
    cp_ratio_grid = np.full((ncp, T), math.nan)

    held = []   # the forward pass's latest (n0, n1, A, W, strides), oldest first
    if with_gram:
        # columns [u | v] of one kernel; a checkpoint at c covers shells < c
        scan = _FoldReplay(2 * T, ck)
        scan.u[T:], scan.p[T:] = 0.0, 1.0
        factor = np.zeros((3, T))
        factor_exp = np.zeros(T, dtype=np.int64)
        for n0, n1, A, W, strides in _shell_blocks(dist, law, lam, N, columns, seed,
                                                   DOMAIN_SUBORDINACY, with_w=True):
            scan.fold(np.hstack([A, A]), np.hstack([strides, strides]))
            c0, c1 = np.searchsorted(cps, [n0, n1], side="right")
            scan.gram(W, cps[c0:c1] - n0, factor, factor_exp, cp_logmax[c0:c1],
                      cp_ratio_grid[c0:c1])
            scan.release()
            held.append((n0, n1, A, W, strides))
            while sum(blk[2].nbytes + blk[3].nbytes for blk in held) > _HOLD_BYTES:
                held.pop(0)

    # backward pass: the forward step on reversed entries, the pair
    # (w_m, w_{m+1}) seeded (w_{N-1}, w_N) = (1, 0), from which w_{m-1} =
    # a_m w_m - w_{m+1}.  With the Gram pass it sums the psi-weighted norm
    # sum W_k w_k^2 between checkpoints, in log-domain prefixes of positive
    # terms, which cannot cancel.  The final pair (w_{-1}, w_0) gives the
    # coefficients of w in the (u, v) basis for unit normalization.
    cp_sub = np.full((ncp, T), math.nan)
    cp_logseg = np.full((ncp, T), -math.inf)
    cp_sub[-1] = 0.0    # log hypot(w_N, w_{N-1}) at the seed
    back = _FoldReplay(T, ck)
    seg = np.zeros(T)   # the open sum, over k < the last checkpoint passed
    seg_exp = np.zeros(T, dtype=np.int64)
    first_held = held[0][0] if held else N
    blocks = itertools.chain((held.pop() for _ in range(len(held))),
                             _shell_blocks(dist, law, lam, first_held, columns, seed,
                                           DOMAIN_SUBORDINACY, reverse=True, with_w=with_gram))
    for n0, n1, A, W, strides in blocks:
        back.fold(A[::-1], strides)
        # a checkpoint n0 <= c < n1 sits n1 - c shells into the reversed block,
        # where the pair is (w_{c-1}, w_c) and the sum has just taken in w_c
        lo, hi = np.searchsorted(cps, [n0, n1])
        at = n1 - cps[lo:hi][::-1]
        back.log_radius(at, 0.0, 1.0, cp_sub[lo:hi][::-1])
        if with_gram:
            back.weighted_sums(W[::-1], at, seg, seg_exp, cp_logseg[lo:hi][::-1])
        del A, W
        back.release()
    with np.errstate(divide="ignore"):
        log_bottom = np.log(seg) + 2.0 * seg_exp * LN2   # shells k < c_0
        log_coef = np.log(back.u * back.u + back.p * back.p) + 2.0 * back.exps * LN2
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
    N = _shell_count(N)
    energies = np.asarray(energies, dtype=np.float64)
    if not (np.isfinite(energies).all() and math.isfinite(lam) and math.isfinite(halfwidth)):
        raise DomainError("energies, lam and halfwidth must be finite", reason="nonfinite")
    trials = _whole_count(trials, what="trials")
    if energy_ids is None:
        energy_ids = list(range(len(energies)))
    offs = halfwidth * ((2.0 * np.arange(trials) + 1.0) / trials - 1.0)
    # one column per (energy, trial), keyed by the energy id and the trial
    columns = [(float(E + off), eid, ti)
               for E, eid in zip(energies, energy_ids) for ti, off in enumerate(offs)]
    scan = _FoldReplay(len(columns))
    acc = np.zeros(len(columns))
    w0 = N // 2
    for n0, n1, A, _, strides in _shell_blocks(dist, law, lam, N, columns, seed, DOMAIN_DENSITY):
        scan.fold(A, strides)
        if n1 >= w0:
            acc += scan.window_sum(max(w0 - n0, 1))
        del A
        scan.release()
    count = N - max(w0, 1) + 1   # the shells w0 <= n <= N
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
    """m = -psi_0 / psi_{-1} for the solution psi seeded (psi_N, psi_{N+1}) =
    (1, -beta), folded over the reversed entries as one complex kernel
    column; by the Wronskian with the fundamental pair seeded (u_0, u_{-1})
    = (1, 0), (v_0, v_{-1}) = (0, 1) it is (beta*v_N + v_{N+1}) / (beta*u_N
    + u_{N+1}), and psi_0, psi_{-1} share one rescale exponent, which
    cancels.  Herglotz: Im z > 0 forces Im m > 0.  Random shells (``dist``
    with lam != 0) draw from the stream keyed (seed, DOMAIN_WEYL, 0, 0),
    re-stated for each block.  Raises DomainError unless z is finite with
    Im z >= 0 and beta is finite, or N is not a whole number >= 0, or when
    an entry passes 2^(RESCALE_EXP/2) in magnitude, SizeLimitError beyond
    _SHELL_BUDGET shells, and DegenerateDenominatorError unless m is finite."""
    z = complex(z)
    if not (z.imag >= 0.0 and math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"need a finite z with Im z >= 0, got {z}", reason="z")
    N = _shell_count(N, 0)
    if not math.isfinite(beta):
        raise DomainError(f"need a finite beta, got {beta}", reason="beta")
    if lam != 0.0 and (dist is None or seed is None):
        raise DomainError("random potentials need a dist and a seed", reason="seed")
    if law is None:
        law = GrowthLaw.uniform_power(1.0, 1.0)
    # the pair (psi_n, psi_{n+1}), stepped by psi_{n-1} = a_n psi_n - psi_{n+1}
    scan = _FoldReplay(1, 0j)
    scan.p[0] = -beta
    _rescale_where([scan.u, scan.p], scan.exps)   # a beta past the rescale bound
    for _, _, A, _, strides in _shell_blocks(dist, law, lam, N + 1, [(z, 0, 0)], seed,
                                             DOMAIN_WEYL, reverse=True):
        scan.fold(A[::-1], strides)
        del A
        scan.release()
    psi_m1, psi_0 = complex(scan.u[0]), complex(scan.p[0])
    m = -psi_0 / psi_m1 if psi_m1 != 0.0 else math.inf
    if not cmath.isfinite(m):
        raise DegenerateDenominatorError(f"boundary denominator {psi_m1} at z = {z}")
    return WeylPoint(z=z, beta=float(beta), N=N, m=m)
