"""Shell-by-shell transfer dynamics in log-scaled form.

A shell of size s with sampled potentials v_1..v_s enters the dynamics only
through the harmonic entry

    a = [ (1/s) * sum_j 1/(E - lam*v_j) ]^(-1),

the 2x2 step matrix ((a, -1), (1, 0)) acting on (u_n, u_{n-1}); every pass
steps this raw pair, rescaled by exact powers of two, through one
fold-and-replay kernel (``_FoldReplay``): per block, each column's rescale
stride comes from its entries, ``stride`` vectorized steps form each
segment's two solutions, a log-depth prefix scan of the segment maps writes
every segment's start state at once, and each read replays the segments it
needs from their start states in one pass.  The forward, density, backward
subordinacy and Gram passes differ only in their reads; the backward pass is
the forward step on reversed entries, and the m-function folds its complex
fundamental pair and reads the final state.  With x = (a - h)/sin k and
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
the Bernoulli law).  On a shell of at most _POP_MAX draws that step is the
popcount of ceil(s/64) raw 64-bit words of its stream, whose bits are fair
coins; the shells of one word count k form a group whose popcounts, viewed
as (shells, k), are summed column by column.  On a shell of at most
_ALIAS_MAX draws it reads the alias table of its size (Walker 1977, with
Vose 1991's construction), two uniforms per shell.  The groups, the one word
and shell permutation that a block needs when its word counts decrease
somewhere, and the alias tables a block reads depend only on the sizes and
are gathered once per block; each size's alias table is built once per
process.  A two-atom law's shell entries a = 1/m1 and w = m2/m1^2 depend only
on the size s and the first-atom count c: per block and energy they are
tabulated for every (s, c) of the block's sizes, while the table has no
more entries than the block has shell x column pairs, and each column draws
c alone and gathers its entries.  The entries of a tile of _TILE columns are
staged contiguously and copied into the block once per tile.  Subordinate
solutions are extracted by backward propagation, stable because the
forward-decaying direction dominates in reverse; weighted-norm extremes over
all solution directions come from a rank-one updated Cholesky factor of the
2x2 Gram matrix, whose determinant is a product of diagonals and therefore
immune to the cancellation that makes the raw min/max hopeless at depth.  A
block's segment maps and segment factors are combined by one shared
Hillis-Steele prefix scan (Blelloch 1990), and the backward pass's weighted
sums between checkpoints are closed at all cuts of a block at once.
"""

from __future__ import annotations

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
    _stream_key,
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
_DRAW_CHUNK = 1 << 22     # continuous-law potentials held at once
_DRAW_BUDGET = 1 << 32    # continuous-law potentials one column may draw
# Shells one trajectory may step.  It keeps the checkpoints far inside int64
# and a column's block states (32 bytes per block, _block_states) at 16 MiB;
# a call holds every column's states at once, so one of c columns at the
# budget holds c * 16 MiB of them.  At about 30 ns per shell and column, one
# column at the budget steps for some two minutes.
_SHELL_BUDGET = 1 << 32
# bytes of (A, W) blocks the forward subordinacy pass keeps for the backward pass
_HOLD_BYTES = 1 << 25
# Largest shell whose fair first multinomial step is a popcount of raw words:
# the power of two below the crossover measured under SFC64 on a 2-vCPU x86
# host, between 640 and 768 draws, above which numpy's binomial (BTPE) is the
# faster exact draw.
_POP_MAX = 512
# Largest shell whose fair first step is an alias-table draw (Walker 1977,
# with Vose 1991's construction); larger shells, whose sizes rarely recur,
# keep the binomial.
_ALIAS_MAX = 1024
# each binomial tail that an alias table leaves out holds less than 2^-_ALIAS_TAIL
_ALIAS_TAIL = 53
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
    return probs, 1.0 / x, 1.0 / (x * x)


@functools.cache
def _alias_table(s: int):
    """``(lo, prob, alias)``: Walker's alias table, by Vose's construction, of
    the fair binomial law of s draws cut to the counts lo .. s - lo, each
    tail that it leaves out holding less than 2^-_ALIAS_TAIL of the mass.

    Entry i stands for the count lo + i with probability prob[i] and for the
    count alias[i] otherwise; a draw picks one of the s - 2 lo + 1 entries
    uniformly.  The cut and the kept law come from the binomial coefficients
    in integer arithmetic, each kept probability rounded once.  Built on
    first use and kept, read-only, for the process.
    """
    binom = [1]
    for k in range(s // 2):
        binom.append(binom[-1] * (s - k) // (k + 1))
    # the counts below lo hold less than 2^-_ALIAS_TAIL, as do those above s - lo
    tail, lo = 0, 0
    while (tail + binom[lo]) << _ALIAS_TAIL < 1 << s:
        tail += binom[lo]
        lo += 1
    total = 2 ** s - 2 * tail
    half = [b / total for b in binom[lo:]]
    kept = half + half[::-1][1 - s % 2:]
    width = len(kept)
    scaled = [x * width for x in kept]
    prob = [1.0] * width
    alias = list(range(lo, lo + width))
    small = [i for i, x in enumerate(scaled) if x < 1.0]
    large = [i for i, x in enumerate(scaled) if x >= 1.0]
    while small and large:
        i, g = small.pop(), large[-1]
        prob[i], alias[i] = scaled[i], lo + g
        scaled[g] = (scaled[g] + scaled[i]) - 1.0
        if scaled[g] < 1.0:
            small.append(large.pop())
    prob, alias = np.array(prob), np.array(alias, dtype=np.int64)
    prob.flags.writeable = alias.flags.writeable = False
    return lo, prob, alias


def _fair_first(probs) -> bool:
    """Whether the multinomial chain of atom weights ``probs`` starts with a
    fair step (probs[0] == 1/2), which draws by a _FairLayout."""
    return probs[0] == 0.5


def _as_index(idx: np.ndarray):
    """``idx`` (increasing) as a slice when it is a run of consecutive
    indices, whose gathers and scatters are copies."""
    if len(idx) and idx[-1] - idx[0] == len(idx) - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


@dataclass(frozen=True)
class _FairLayout:
    """How a fair first step draws each shell of a block, from the sizes alone.

    Shells of at most _POP_MAX draws take ceil(s/64) consecutive raw 64-bit
    words each, in shell order; ``mask`` keeps every bit of a shell's words
    but those of its last word beyond s.  The sums run over groups of shells
    of one word count k, each ``(k, i0, i1, w0)``: the grouped shells
    i0 <= i < i1 read the k words w0 + k (i - i0) onward of the grouped
    words.  The groups keep their shells in order and are sorted by k.  When
    that order is not already the block's (word counts that decrease
    somewhere, or a larger shell before a small one), ``words`` gathers the
    drawn words into it and ``shells`` holds each grouped shell's index in
    the block; both are None otherwise.

    The ``alias`` shells, of _POP_MAX < s <= _ALIAS_MAX draws, read the
    concatenated alias tables ``prob`` and ``value`` (the alias counts) of
    the block's sizes: a shell picks entry ``base + floor(u * width)``,
    whose own count is the entry's index minus ``shift``.  The ``large``
    shells go through the binomial.  ``alias`` and ``large`` are slices when
    their shells are consecutive.
    """

    mask: np.ndarray
    groups: tuple[tuple[int, int, int, int], ...]
    words: np.ndarray | None
    shells: np.ndarray | None
    alias: np.ndarray | slice
    base: np.ndarray
    width: np.ndarray
    shift: np.ndarray
    prob: np.ndarray
    value: np.ndarray
    large: np.ndarray | slice


def _fair_layout(sizes: np.ndarray) -> _FairLayout:
    s_int = sizes.astype(np.int64, copy=False)
    small = np.flatnonzero(s_int <= _POP_MAX)
    s = s_int[small]
    nwords = (s + 63) // 64
    ends = np.cumsum(nwords)
    ones = np.uint64(2 ** 64 - 1)
    mask = np.full(int(ends[-1]) if len(ends) else 0, ones)
    mask[ends - 1] = ones >> ((-s) % 64).astype(np.uint64)
    order = np.argsort(nwords, kind="stable")
    words = shells = None
    if not np.array_equal(small[order], np.arange(len(small))):
        # grouped word g of the shell that starts at grouped word first[j] is
        # drawn word g - first[j] + (the shell's first drawn word)
        nw = nwords[order]
        first = np.cumsum(nw) - nw
        words = np.repeat((ends - nwords)[order] - first, nw) + np.arange(len(mask))
        shells = small[order]
    groups, i0, w0 = [], 0, 0
    for k in range(1, _POP_MAX // 64 + 1):
        i1 = i0 + int(np.count_nonzero(nwords == k))
        if i1 > i0:
            groups.append((k, i0, i1, w0))
            w0 += k * (i1 - i0)
        i0 = i1
    alias = np.flatnonzero((s_int > _POP_MAX) & (s_int <= _ALIAS_MAX))
    sizes_u, inverse = np.unique(s_int[alias], return_inverse=True)
    tables = [_alias_table(int(n)) for n in sizes_u]
    widths = np.array([len(t[1]) for t in tables], dtype=np.int64)
    offsets = np.cumsum(widths) - widths
    shift = offsets - np.array([t[0] for t in tables], dtype=np.int64)
    return _FairLayout(
        mask=mask, groups=tuple(groups), words=words, shells=shells, alias=_as_index(alias),
        base=offsets[inverse], width=widths[inverse].astype(float), shift=shift[inverse],
        prob=np.concatenate([np.empty(0)] + [t[1] for t in tables]),
        value=np.concatenate([np.empty(0, np.int64)] + [t[2] for t in tables]),
        large=_as_index(np.flatnonzero(s_int > _ALIAS_MAX)))


def _multinomial_counts(gen: np.random.Generator, n_arr: np.ndarray, probs: np.ndarray, *,
                        layout: _FairLayout | None = None,
                        first_only: bool = False) -> np.ndarray:
    """Exact multinomial counts for per-row totals.

    The counts follow a binomial chain, atom by atom.  When its first step is
    fair (_fair_first), rows of at most _POP_MAX draws take that count as
    the popcount of their raw SFC64 words, each word being 64 fair coins,
    summed per group of one word count; rows of up to _ALIAS_MAX draws then
    take it from their size's alias table, by two uniforms each: the first
    picks the entry and the second decides between its count and its alias.
    The words come first in the stream, then the uniforms (all entry picks,
    then all coins), then the binomials of the larger rows.  ``layout`` is
    ``_fair_layout(n_arr)``, built here when not given.  ``first_only``
    stops the chain after its first step and returns the first atom's
    counts alone, as a 1-D array.
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
            words = gen.bit_generator.random_raw(len(layout.mask))
            words &= layout.mask
            ones = np.bitwise_count(words)
            c = np.empty(len(remaining), dtype=np.int64)
            if layout.words is None:
                sums = c
            else:
                ones = ones[layout.words]
                sums = np.empty(len(layout.shells), dtype=np.int64)
            # each group's words as (shells, k): its columns added in pairs
            # in uint8 (a pair counts at most 128 ones), the pair sums into
            # int64, since a shell's count reaches _POP_MAX and uint8 wraps
            pair = np.empty(len(sums), dtype=np.uint8)
            for k, i0, i1, w0 in layout.groups:
                g = ones[w0:w0 + k * (i1 - i0)].reshape(-1, k)
                out, two = sums[i0:i1], pair[:i1 - i0]
                if k == 1:
                    np.copyto(out, g[:, 0])
                else:
                    np.add(g[:, 0], g[:, 1], out=out)
                for j in range(2, k - 1, 2):
                    out += np.add(g[:, j], g[:, j + 1], out=two)
                if k > 1 and k % 2:
                    out += g[:, k - 1]
            if layout.shells is not None:
                c[layout.shells] = sums
            m = len(layout.base)
            if m:
                u = gen.random(2 * m)
                pick = np.multiply(u[:m], layout.width, out=u[:m]).astype(np.int64)
                pick += layout.base
                own = np.less(u[m:], layout.prob[pick])
                c[layout.alias] = np.where(own, pick - layout.shift, layout.value[pick])
            large = remaining[layout.large]
            if len(large):
                c[layout.large] = gen.binomial(large, p)
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
    a size s of a block and a first-atom count 0 <= c <= s.

    A shell with c first atoms reads row ``start[shell] + c`` of ``a``, the
    harmonic entry 1/m1, and of ``w``, the squared norm m2/(m1*m1) (None
    unless weights were asked for), where m1 and m2 are the means of
    1/(E - lam*v) and 1/(E - lam*v)^2, each formed as ``counts @ r / s`` on
    the row's counts (c, s - c), as a per-shell computation forms it.
    ``zero`` marks the rows whose m1 vanishes, whose entries are left 0; it
    is None when there are none.
    """

    start: np.ndarray
    a: np.ndarray
    w: np.ndarray | None
    zero: np.ndarray | None


def _entry_tables(sizes: np.ndarray, tables: dict, widths: dict, with_w: bool) -> dict:
    """``{E: _EntryTable}`` for one block of ``sizes`` (int64), for each energy
    E of ``tables`` (``_atom_tables`` of a two-atom law) whose table has no
    more rows than the block has shells times ``widths[E]``, the columns at
    E; so the tables take no more memory than the block itself.
    """
    sizes_u, inverse = np.unique(sizes, return_inverse=True)
    rows = sizes_u + 1
    nrows = int(rows.sum())
    fits = [E for E in tables if nrows <= len(sizes) * widths[E]]
    if not fits:
        return {}
    first = np.cumsum(rows) - rows
    s = np.repeat(sizes_u, rows)
    c = np.arange(nrows) - np.repeat(first, rows)
    counts = np.stack([c, s - c], axis=1)
    start = first[inverse]
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
        out[E] = _EntryTable(start, a, w, None if nonzero.all() else ~nonzero)
    return out


def _shell_stats_block(dist: PotentialDistribution, E: float, lam: float,
                       sizes: np.ndarray, gen: np.random.Generator, *,
                       with_w: bool = False, layout: _FairLayout | None = None,
                       tables=None, entries: _EntryTable | None = None, out=None,
                       first: int = 0):
    """Per-shell harmonic entries a = 1/m1 and, ``with_w``, squared norms
    w = m2/(m1*m1) for one trial, m1 and m2 being the shell means of
    1/(E-lam*v) and 1/(E-lam*v)^2; w is None without weights.  ``out``, a
    pair of rows (the second None without weights), receives them when
    given.  A vanishing mean raises SingularShellError naming its shell,
    ``first`` being the index of the block's first one.

    Discrete laws reduce to multinomial atom counts (``layout`` is passed on
    to _multinomial_counts, ``tables`` is ``_atom_tables(dist, E, lam)``,
    built here when not given).  With ``entries``, the block's _EntryTable at
    E, a two-atom law draws only the first atom's counts c and gathers each
    shell's entries at ``entries.start + c``.  Continuous laws draw every
    potential and segment-sum, in chunks of whole shells of at most
    _DRAW_CHUNK draws that continue one stream, so they reproduce one draw
    bit for bit (a split shell would be summed in a different order).
    """
    s_int = sizes.astype(np.int64, copy=False)
    out1, out2 = (None, None) if out is None else out
    if dist.is_discrete:
        probs, r1, r2 = _atom_tables(dist, E, lam) if tables is None else tables
    if entries is not None:
        idx = entries.start + _multinomial_counts(gen, s_int, probs, layout=layout,
                                                  first_only=True)
        if entries.zero is not None and entries.zero[idx].any():
            _raise_singular(first, entries.zero[idx])
        a = np.take(entries.a, idx, out=out1, mode="clip")
        w = np.take(entries.w, idx, out=out2, mode="clip") if with_w else None
        return a, w
    if dist.is_discrete:
        counts = _multinomial_counts(gen, s_int, probs, layout=layout)
        # numpy forms a one-row product with a dot, which can round
        # differently from the gemv of longer blocks: a lone shell is
        # padded to two rows
        rows = np.vstack([counts, counts]) if len(counts) == 1 else counts
        sum1 = (rows @ r1)[:len(counts)]
        sum2 = (rows @ r2)[:len(counts)] if with_w else None
    else:
        ends = np.cumsum(s_int)
        # every chunk is drawn into one buffer: a chunk holds at most
        # _DRAW_CHUNK draws or a single shell
        buf = np.empty(int(min(ends[-1], max(_DRAW_CHUNK, s_int.max()))))
        sum1, sum2 = [], []
        i0 = 0
        while i0 < len(s_int):
            base = ends[i0] - s_int[i0]
            i1 = max(i0 + 1, int(np.searchsorted(ends, base + _DRAW_CHUNK, side="right")))
            # r = 1/(E - lam v), then r^2, formed in the sample's buffer
            r = sample(dist, gen, out=buf[:int(ends[i1 - 1] - base)])
            r = r.astype(np.result_type(r, E), copy=False)
            np.multiply(r, -lam, out=r)
            r += E
            np.divide(1.0, r, out=r)
            starts = ends[i0:i1] - s_int[i0:i1] - base
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


def _raise_singular(first: int, zero: np.ndarray):
    shell = first + int(np.flatnonzero(zero)[0])
    raise SingularShellError(f"sampled shell {shell} has vanishing inverse mean", shell=shell)


def _shell_blocks(dist: PotentialDistribution, law: GrowthLaw, lam: float, N: int,
                  columns, seed: int, domain: int, *, reverse: bool = False,
                  with_w: bool = False):
    """Yield ``(n0, n1, A, W)`` for each block of shells n0 <= n < n1.

    ``columns`` lists ``(E, cell, trial)``; column j of the fresh (n1 - n0,
    len(columns)) array A holds the harmonic entries 1/mean(1/(E - lam*v))
    of its shells.  Block b of a column is drawn from the column's stream,
    ``seed_stream(seed, domain, cell, trial)``, re-stated to row b of its
    ``_block_states``; the one seed_stream call per column is made when the
    column first draws, so lam = 0 derives nothing.  A column's draws
    therefore do not depend on which other columns share the call, on N or
    on the direction: ``reverse`` yields the same blocks last to first.  W
    holds the squared shell-vector norms a^2 * mean(1/(E - lam*v)^2) when
    ``with_w`` is set and is None otherwise.  lam = 0 draws nothing: A = E and W = 1 exactly.  A is
    complex when the energies are (the m-function's spectral parameter z);
    one call's energies are all real or all complex.  Raises SizeLimitError
    before drawing when a continuous-law column would exceed _DRAW_BUDGET
    draws or one shell _DRAW_CHUNK.

    Each column's entries come from one _shell_stats_block call, from the
    block's _EntryTable at its energy when a two-atom law's table fits
    (_entry_tables).  The entries of a tile of up to _TILE columns are staged
    as contiguous rows of A's dtype and copied, transposed, into A and W once
    per tile rather than one strided column at a time.
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
    # atom tables once per energy, not per column and block
    tables = ({E: _atom_tables(dist, E, lam) for E, _, _ in columns}
              if lam != 0.0 and dist.is_discrete else {})
    # a fair first step draws by the block's _FairLayout
    fair = bool(tables) and _fair_first([w for _, w in dist.atoms])
    # columns per energy, which bound its _EntryTable, for a two-atom law
    two_atoms = bool(tables) and len(dist.atoms) == 2
    widths = collections.Counter(E for E, _, _ in columns) if two_atoms else {}
    if lam != 0.0:
        shape = (min(_TILE, len(columns)), min(BLOCK, N))
        stage1 = np.empty(shape, dtype=dtype)
        stage2 = np.empty(shape, dtype=dtype) if with_w else None
        # each column's generator and its blocks' states, from one seed_stream
        # call when the column first draws
        streams = [None] * len(columns)
    nblocks = (N + BLOCK - 1) // BLOCK
    for b in (range(nblocks - 1, -1, -1) if reverse else range(nblocks)):
        n0 = b * BLOCK
        n1 = min(N, n0 + BLOCK)
        sizes = law.sizes_block(n0, n1).astype(np.int64)
        A = np.empty((n1 - n0, len(columns)), dtype=dtype)
        W = np.empty_like(A) if with_w else None
        if lam == 0.0:
            A[:] = energies
            if with_w:
                W[:] = 1.0
        else:
            layout = _fair_layout(sizes) if fair else None
            entries = _entry_tables(sizes, tables, widths, with_w) if widths else {}
            for j0 in range(0, len(columns), _TILE):
                j1 = min(j0 + _TILE, len(columns))
                a = stage1[:j1 - j0, :n1 - n0]
                w = stage2[:j1 - j0, :n1 - n0] if with_w else None
                for j in range(j0, j1):
                    E, cell, trial = columns[j]
                    if streams[j] is None:
                        gen = seed_stream(seed, domain, cell, trial)
                        streams[j] = gen, _block_states(gen, nblocks)
                    gen, states = streams[j]
                    _shell_stats_block(dist, E, lam, sizes, _restate(gen, states[b]),
                                       with_w=with_w, layout=layout, tables=tables.get(E),
                                       entries=entries.get(E),
                                       out=(a[j - j0], w[j - j0] if with_w else None),
                                       first=n0)
                np.copyto(A[:, j0:j1], a.T)
                if with_w:
                    np.copyto(W[:, j0:j1], w.T)
        yield n0, n1, A, W
        # a caller that drops its own references lets the block be freed
        # before the next one is allocated
        A = W = None


def _rescale_stride(a_abs_max):
    """Shells between rescale checks of the raw passes over a block, as an
    int64 array shaped like ``a_abs_max``, the largest |a| of each column.

    The largest power of two up to _MAX_STRIDE whose growth bound
    (1 + max|a|)^stride stays within 2^(RESCALE_EXP/2).  Every stride
    divides BLOCK, so each block ends on a check.  Taken per column, a
    column's results do not depend on which columns share its call.
    """
    growth = np.log2(1.0 + np.asarray(a_abs_max, dtype=np.float64))
    stride = np.full(growth.shape, _MAX_STRIDE, dtype=np.int64)
    while (over := (stride > 1) & (stride * growth > RESCALE_EXP / 2)).any():
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

    ``fold(A)`` cuts a block of entries into segments of each column's
    ``_column_strides`` stride, the last one shorter when the stride does not
    divide the block; columns of one stride go together, gathered with
    np.take, and A is used as it is (copied only if strided) when they all
    share it.  The fold forms the segments' two solutions seeded (1, 0) and
    (c, 1) in ``stride`` steps vectorized over (segments x columns); a state
    (u, p) = (u - c p) (1, 0) + p (c, 1) has the coordinates y = (u - c p, p)
    in that seed basis.  A prefix scan of the segment maps in y, in
    ceil(log2(segments - 1)) levels, then writes every segment's start state
    at once and rescales them with one ``_rescale_where``
    (``_fold_segments``).  Each read replays every segment
    it needs from its start state in one pass, with the per-shell loop's own
    steps: ``log_radius`` at checkpoints, ``window_sum`` over the density
    window, ``weighted_sums`` between checkpoints (the backward subordinacy
    pass) and ``gram`` (the weighted Gram factor of pairs of columns).  The
    last two combine the segments' own sums without a loop over segments:
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
        end as the segment maps, its product, then the scan's two buffers of
        four entries of a 2x2 map and the product of its combine step; or the
        replay's pairs, gathered entries and product, then the gathered
        weights or the window's scale, and three accumulators or temporaries.
        The two exponent rows are the scan's, or the window scale's.  Each
        group views a prefix of the work buffers."""
        if size > self._cap:
            self._cap = size
            self._start = np.empty(2 * size, dtype=self.u.dtype)   # (u, p) at segment starts
            self._start_exp = np.empty(size, dtype=np.int64)
            self._work = np.empty(_WORK_ROWS * size, dtype=self.u.dtype)
            self._work_exp = np.empty(2 * size, dtype=np.int64)

    def fold(self, A: np.ndarray) -> None:
        """Advance the state across the block A (shells x columns), each
        column in segments of its own stride."""
        strides = _column_strides(A)
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
        tmp = g.work[4:6]
        for i in range(steps):
            rows = g.A[i::stride]
            m = len(rows)
            new, cur = bufs[i % 2, :, :m], bufs[1 - i % 2, :, :m]
            np.multiply(rows, cur, out=tmp[:, :m])
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
        ``shells`` (1-based within the last fold) into the rows of ``out``."""
        for g in self._groups:
            segs = np.unique((shells - 1) // g.stride)
            at = g.offsets(segs, shells)
            for i, _, u, p, _ in g.replay(segs, max(at, default=0)):
                if (hit := at.get(i + 1)) is not None:
                    k, r = hit
                    out[np.ix_(k, g.cols)] = (np.log(np.hypot(u[r] - ck * p[r], sk * p[r]))
                                              + g.start_exp[segs[r]] * LN2)

    def window_sum(self, first: int) -> np.ndarray:
        """Sum of 2^(-2 exps) / (u^2 + p^2) over the shells from ``first``
        (1-based within the last fold) to the end of the block, per column:
        per segment in shell order, then over the segments in order."""
        total = np.zeros(len(self.u))
        for g in self._groups:
            j0 = (first - 1) // g.stride
            skip = first - 1 - j0 * g.stride   # shells of segment j0 before the window
            segs = np.arange(j0, g.nseg)
            scale, acc, t1, t2 = (buf[:len(segs)] for buf in g.work[4:8])
            scale_exp = g.work_exp[0, :len(segs)]
            np.multiply(g.start_exp[j0:g.nseg], -2, out=scale_exp)
            np.ldexp(1.0, scale_exp, out=scale)
            acc[:] = 0.0
            for i, m, u, p, _ in g.replay(segs, g.steps):
                lo = 1 if i < skip else 0
                np.multiply(u[lo:m], u[lo:m], out=t1[lo:m])
                np.multiply(p[lo:m], p[lo:m], out=t2[lo:m])
                t1[lo:m] += t2[lo:m]
                np.divide(scale[lo:m], t1[lo:m], out=t1[lo:m])
                acc[lo:m] += t1[lo:m]
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


def _whole_count(value, least: int = 1, what: str = "N") -> int:
    """A count such as N as an int, integral floats included; DomainError
    (reason ``what``) unless it is a whole number >= ``least``, non-numbers
    and integers too large for a float included."""
    try:
        whole = (not isinstance(value, bool) and math.isfinite(value)
                 and value == int(value) >= least)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise DomainError(f"need a whole count {what} >= {least}, got {value!r}", reason=what)
    return int(value)


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
    for n0, n1, A, _ in _shell_blocks(dist, law, lam, N, columns, seed, DOMAIN_TRAJECTORY):
        scan.fold(A)
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
    return _forward_polar_pass(dist, law, eff, N, list(map(_stream_key, trial_ids)), seed, cell)


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
    trial_ids = list(map(_stream_key, trial_ids))
    T = len(trial_ids)
    cps = checkpoints_geometric(N)
    ncp = len(cps)
    cp_suminv = _checkpoint_sum_inv(law, cps)
    columns = [(E, cell, trial) for trial in trial_ids]
    cp_logmax = np.full((ncp, T), math.nan)
    cp_ratio_grid = np.full((ncp, T), math.nan)

    held = []   # the forward pass's latest (n0, n1, A, W), oldest first
    if with_gram:
        # columns [u | v] of one kernel; a checkpoint at c covers shells < c
        scan = _FoldReplay(2 * T, ck)
        scan.u[T:], scan.p[T:] = 0.0, 1.0
        factor = np.zeros((3, T))
        factor_exp = np.zeros(T, dtype=np.int64)
        for n0, n1, A, W in _shell_blocks(dist, law, lam, N, columns, seed, DOMAIN_SUBORDINACY,
                                          with_w=True):
            scan.fold(np.hstack([A, A]))
            c0, c1 = np.searchsorted(cps, [n0, n1], side="right")
            scan.gram(W, cps[c0:c1] - n0, factor, factor_exp, cp_logmax[c0:c1],
                      cp_ratio_grid[c0:c1])
            held.append((n0, n1, A, W))
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
    for n0, n1, A, W in blocks:
        back.fold(A[::-1])
        # a checkpoint n0 <= c < n1 sits n1 - c shells into the reversed block,
        # where the pair is (w_{c-1}, w_c) and the sum has just taken in w_c
        lo, hi = np.searchsorted(cps, [n0, n1])
        at = n1 - cps[lo:hi][::-1]
        back.log_radius(at, 0.0, 1.0, cp_sub[lo:hi][::-1])
        if with_gram:
            back.weighted_sums(W[::-1], at, seg, seg_exp, cp_logseg[lo:hi][::-1])
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
    for n0, n1, A, _ in _shell_blocks(dist, law, lam, N, columns, seed, DOMAIN_DENSITY):
        scan.fold(A)
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
    """m = (beta*v_N + v_{N+1}) / (beta*u_N + u_{N+1}) from the fundamental
    complex solution pair, folded as the columns [u | v] of one kernel; each
    column carries its own power-of-two rescale, whose difference scales the
    ratio.  Herglotz: Im z > 0 forces Im m > 0.  Random shells (``dist``
    with lam != 0) draw from the stream keyed (seed, DOMAIN_WEYL, 0, 0),
    re-stated for each block.  Raises DomainError unless z is finite with
    Im z >= 0 and beta is finite, or N is not a whole number >= 0, and
    SizeLimitError beyond _SHELL_BUDGET shells."""
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
    scan = _FoldReplay(2, 0j)
    scan.u[1], scan.p[1] = 0.0, 1.0   # (u_0, u_{-1}) = (1, 0), (v_0, v_{-1}) = (0, 1)
    for _, _, A, _ in _shell_blocks(dist, law, lam, N + 1, [(z, 0, 0)], seed, DOMAIN_WEYL):
        scan.fold(np.hstack([A, A]))
    # column 0 holds (u_{N+1}, u_N), column 1 (v_{N+1}, v_N)
    den = complex(beta * scan.p[0] + scan.u[0])
    num = complex(beta * scan.p[1] + scan.u[1])
    if den == 0.0:
        raise DegenerateDenominatorError(f"boundary denominator vanished at z = {z}")
    ratio = num / den
    shift = int(scan.exps[1] - scan.exps[0])
    m = complex(math.ldexp(ratio.real, shift), math.ldexp(ratio.imag, shift))
    return WeylPoint(z=z, beta=float(beta), N=N, m=m)
