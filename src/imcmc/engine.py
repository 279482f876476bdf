"""Level-stacked self-interacting chain simulator.

Level 0 is a homogeneous Markov chain; level ``k >= 1`` draws its state
at time ``n+1`` from a kernel indexed by the occupation measure of the
states ``0 .. n`` of level ``k-1``.  Level ``k-1`` never reads level
``k``, so the engine runs the levels one at a time: for each block of
time steps it advances level 0 through the block, then level 1 against
the level-0 states just produced, and so on up the stack.

A level's block is bulk work followed by a scan.  The bulk work builds
every proposal, CDF draw and accept decision of the block at once,
vectorized over (replicate, time), in slices of at most
:data:`BLOCK_CELLS` cells.  What stays sequential is a one-gather
scan ``a[t+1] = F[t, a[t]]`` over a small alphabet:

* level 0: the state, with ``F`` the kernel move from every state;
* Feynman-Kac Metropolis-Hastings levels: the prefix terminal of the
  current path, the only part of it the acceptance ratio reads; the
  state is the proposal of the last accepted step;
* annealing levels: the state, with ``F`` the kernel move from every
  state where the mixture moves and the redraw where it does not.

Rank-one levels need no scan.  Chains on more than :data:`TABLE_STATES`
states step directly instead of tabulating the move from every state.

Only a level that a Metropolis-Hastings level above it reads keeps its
trajectory, since that level proposes from the whole past.  A
trajectory is stored packed, at the narrowest of 1, 2, 4, 8 or 16 bits
per state that holds every index of its space: eight states to a byte
on 2 states, four on up to 4, two on up to 16, one byte per state up to
256 states and two up to 65,536.  Each block's states are packed in as
they are made, a proposal reads its word and shifts its state out, and
a kept trajectory is unpacked once, for the result.  Other levels keep running
occupation counts, and a redraw level rebuilds the cumulative counts of
the level below at each step of the block, which induces exactly the
transition law of walking the history.  These running counts take the
narrowest unsigned dtype that holds ``iterations + 1``, and the counts
of a slice's last step, plus each replicate's last state, start the
next slice.  A slice of many steps over few (state, replicate) rows
sums them along time with one ``np.cumsum``; a slice of few steps over
many rows adds one whole per-step plane at a time, since the cumsum
pays per row and the planes per step.  With ``keep_history`` every
level keeps its trajectory for the result.

Besides the histories, a call holds the block's uniforms, one slice's
uniforms, and one state buffer of (replicate, step) per level, in the
level's history dtype, which the level writes while the level above
reads it.  These are allocated once per call.  A slice copies only the
uniform planes its rule reads: one for level 0, two for rank-one
levels, all three otherwise.  A block is at most :data:`MAX_BLOCK`
steps and, up to ``4 * BLOCK_CELLS`` replicates, at most that many
(replicate, step) cells, so its uniforms stay within 3 MiB (0.75 MiB
at 64 replicates), one slice's within 0.75 MiB, and a level's state
buffer within 128 KiB per byte of its dtype.

Randomness contract
-------------------
All randomness comes from counter-based Philox streams keyed by
``(seed, replicate, level)``: the key of each is
``SeedSequence(entropy=seed & (2**64 - 1), spawn_key=(replicate, level))
.generate_state(2, np.uint64)``.  The engine computes the keys of all
replicates of a level in one vectorized pass of ``SeedSequence``'s hash
and gives each ``Philox`` its key through a seed sequence that returns
it, so the streams are those ``numpy`` builds from that
``SeedSequence``, bit for bit.  Each stream is consumed in a fixed
positional layout -- one uniform for the initial state, then exactly
``3`` uniforms per time step -- so a trajectory is bit-for-bit
reproducible whether a replicate runs alone, in a vectorized batch,
with any block length, or in any worker process, and distinct
``(replicate, level)`` pairs are independent.  This layout is
``STREAM_LAYOUT_VERSION = 1``; a change to it bumps the version and the
pinned trajectory digests of the tests together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable

import numpy as np

from . import annealing as ann
from . import fk
from .measures import FiniteSpace

#: Uniform draws consumed per level per time step (fixed for stream stability).
DRAWS_PER_STEP = 3

#: Version of the positional stream layout described in the module docstring.
STREAM_LAYOUT_VERSION = 1

#: Chains on at most this many states tabulate their move from every state
#: and scan.
TABLE_STATES = 8

#: Most (state, replicate, time) cells in one bulk array: a level works
#: through its block in slices of steps this small, so its arrays stay in cache.
BLOCK_CELLS = 1 << 15

#: Most time steps in a block, the number whose uniforms are drawn at once.
MAX_BLOCK = 512


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): `hashmix`
# folds a word into the pool under a running constant, `mix` joins two words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_MASK32 = 0xFFFFFFFF


def _words(value: int) -> list[int]:
    """uint32 words of a non-negative int, least significant first, as
    ``SeedSequence`` splits it: ``[0]`` for 0."""
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _seed_words(seed: int) -> list[int]:
    """Entropy words of a stream's seed, masked to 64 bits and zero-padded
    to the pool size, as ``SeedSequence`` pads them when given a spawn key."""
    words = _words(int(seed) & 0xFFFFFFFFFFFFFFFF)
    return words + [0] * (_POOL - len(words))


def _hash_constants(init: int, mult: int):
    """(xor, multiplier) of each call of one SeedSequence hash: the running
    constant before and after its update."""
    c = init
    while True:
        nxt = c * mult & _MASK32
        yield c, nxt
        c = nxt


def _seed_key(entropy: list) -> tuple:
    """The two words of ``SeedSequence.generate_state(2, np.uint64)`` for
    the entropy words `entropy`, at least :data:`_POOL` of them.

    A word is an int or a uint64 array of uint32 values, one per stream;
    the running constants do not depend on the words, so one pass of
    ``mix_entropy`` and ``generate_state`` hashes every stream at once.
    Each product is masked back to 32 bits.
    """
    def shift_xor(v):
        return v ^ v >> 16

    consts = _hash_constants(_INIT_A, _MULT_A)

    def hashmix(v):
        x, m = next(consts)
        return shift_xor((v ^ x) * m & _MASK32)

    def mix(x, y):
        return shift_xor((x * _MIX_L - y * _MIX_R) & _MASK32)

    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(w))
    state = _hash_constants(_INIT_B, _MULT_B)  # generate_state's own constants
    out = [shift_xor((p ^ x) * m & _MASK32) for p, (x, m) in zip(pool, state)]
    return out[0] | out[1] << 32, out[2] | out[3] << 32


def _stream_keys(seed: int, replicates, level: int) -> np.ndarray:
    """Philox keys (n, 2) of the streams of `replicates` at one (seed, level):
    ``SeedSequence(entropy=seed & (2**64 - 1), spawn_key=(r, level))
    .generate_state(2, np.uint64)`` for each replicate ``r``.

    A replicate id of 2**32 or more has more words, so replicates are
    hashed in groups of equal word count.
    """
    head, tail = _seed_words(seed), _words(int(level))
    words = [_words(int(r)) for r in replicates]
    keys = np.empty((len(words), 2), dtype=np.uint64)
    for width in {len(w) for w in words}:
        rows = [i for i, w in enumerate(words) if len(w) == width]
        spawn = [np.array([words[i][j] for i in rows], dtype=np.uint64) for j in range(width)]
        keys[rows] = np.stack(_seed_key(head + spawn + tail), axis=1)
    return keys


@cache
def _key_sequence() -> type:
    """Seed sequence whose state is one precomputed Philox key.

    Defined on first use, since importing ``numpy.random`` costs every
    command that never draws.  ``Philox`` reads its key as the two uint64
    words of ``generate_state``, as from any ``ISeedSequence``, and so
    draws no fresh OS entropy, as ``Philox(key=...)`` does.
    """
    from numpy.random.bit_generator import ISeedSequence

    class KeySequence(ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return KeySequence


def _philox(key: np.ndarray) -> np.random.Generator:
    """Generator on the Philox stream with `key` (2,) uint64 at counter 0."""
    # the zero counter as an array: the default, without converting the int 0
    counter = np.zeros(4, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_key_sequence()(key), counter=counter))


def stream(seed: int, replicate: int, level: int) -> np.random.Generator:
    """Philox stream for one (seed, replicate, level) triple."""
    key = _seed_key(_seed_words(seed) + _words(int(replicate)) + _words(int(level)))
    return _philox(np.array(key, dtype=np.uint64))


@dataclass(frozen=True, eq=False)
class EngineConfig:
    """A model, how many levels to stack, and how long to run.

    Every level starts from the uniform distribution on its space.
    """

    model: object
    levels: int
    iterations: int
    seed: int

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not isinstance(self.model, (fk.FKModel, ann.AnnealingModel)):
            raise TypeError(f"unsupported model type {type(self.model).__name__}")
        if not 0 <= self.levels <= self.model.levels:
            raise ValueError(
                f"levels must lie in 0..{self.model.levels}, got {self.levels}"
            )

    def level_spaces(self) -> tuple[FiniteSpace, ...]:
        return tuple(self.model.level_space(k).space for k in range(self.levels + 1))


@dataclass(frozen=True, eq=False)
class BatchResult:
    """Run of several replicates.

    ``states[k][i]`` is the level-`k` trajectory of ``replicates[i]``;
    ``checkpoint_counts[n][k]`` holds occupation counts of states
    ``0..n`` per replicate, for each requested checkpoint ``n``.
    """

    config: "EngineConfig"
    replicates: tuple[int, ...]
    spaces: tuple[FiniteSpace, ...]
    states: tuple[np.ndarray, ...] | None
    final_counts: tuple[np.ndarray, ...]
    checkpoint_counts: dict[int, tuple[np.ndarray, ...]] = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return self.config.iterations


# ---------------------------------------------------------------------------
# Draws, scans and counts
# ---------------------------------------------------------------------------
#
# Bulk arrays hold a block of T steps of B replicates as (B, T); per-state
# arrays stack one such plane per state, (S, B, T).

def _cdf_table(matrix: np.ndarray) -> np.ndarray:
    """CDFs of the rows of `matrix`, one plane per column: (columns - 1, rows).

    The last column, whose CDF is 1, is left out: no uniform lies above it.
    """
    return np.ascontiguousarray(np.cumsum(matrix, axis=1)[:, :-1].T)


def _cdf_draw(cdf: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index drawn with uniforms `u` from rows `rows` of the CDF table `cdf`.

    `rows` is an array that broadcasts against `u`.  The index is the
    count of CDF entries below ``u`` -- what ``searchsorted`` returns on
    a monotone row.
    """
    return (cdf.take(rows, axis=1) < u).sum(axis=0)


def _scan(table: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Positions read by the chain ``a[t+1] = table[a[t], b, t]`` from ``a[0] = a``.

    `table` has shape (A, B, T).  Returns, as (B, T), the flat index into
    an (A, B, T) array of the entry each step reads: look up `table`
    there for the states after each step, or another per-state array for
    a value at the state before it.  Every step is a single gather,
    because each table entry is stored as the position it leads to.
    """
    A, B, T = table.shape
    cell = np.arange(B * T).reshape(B, T)
    pointers = (table * (B * T) + (cell + 1)).ravel()
    pos = np.empty((T, B), dtype=np.intp)
    pos[0] = a * np.intp(B * T) + cell[:, 0]
    steps, gather = list(pos), pointers.take
    for now, nxt in zip(steps, steps[1:]):
        gather(now, out=nxt, mode="clip")
    return np.ascontiguousarray(pos.T)


def _kernel_scan(cdf, x, u, move=None, other=None) -> np.ndarray:
    """States of the chain ``x -> draw(cdf[x], u[:, t])`` over a block, (B, T).

    Where `move` is false the step goes to `other` instead.
    """
    S = cdf.shape[1]
    if S <= TABLE_STATES:
        table = _cdf_draw(cdf, np.arange(S)[:, None, None], u)
        if move is not None:
            # a select by arithmetic, with no branch on the random `move`
            table = other + move * (table - other)
        return table.ravel().take(_scan(table, x))
    out = np.empty(u.shape, dtype=np.intp)
    for t in range(u.shape[1]):
        x = _cdf_draw(cdf, x, u[:, t])
        if move is not None:
            x = np.where(move[:, t], x, other[:, t])
        out[:, t] = x
    return out


def _weighted_redraw(counts: np.ndarray, weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index drawn with `u` from occupation `counts` (S, B, T) reweighted by `weights`.

    The target ``u * total`` never exceeds the total, so the count of
    cumulative weights below it is a valid index.
    """
    cw = counts * weights[:, None, None]
    for s in range(1, len(cw)):  # np.cumsum over axis 0, plane by plane
        cw[s] += cw[s - 1]
    return (cw < u * cw[-1]).sum(axis=0)


def _history_dtype(size: int) -> np.dtype:
    """Narrowest unsigned dtype that holds every state index of a `size`-state space."""
    return np.min_scalar_type(size - 1)


def _packing(size: int) -> tuple[int, int]:
    """Bits per state, and states per word, of a `size`-state history.

    The bits are the narrowest power of two that holds every state index;
    a word is one element of the space's history dtype, so below 8 bits
    a byte holds 8, 4 or 2 states and from 8 bits up a word holds one.
    """
    bits = 1 << (max(1, (size - 1).bit_length()) - 1).bit_length()
    return bits, max(1, 8 // bits)


class _History:
    """Trajectories (rows, length) of a `size`-state level, packed.

    Time ``t`` of a row sits in word ``t // per`` of it, ``bits * (t %
    per)`` bits up; see :func:`_packing`.  Words start at zero, and each
    time is stored once.
    """

    def __init__(self, rows: int, length: int, size: int):
        self.bits, self.per = _packing(size)
        self.length = length
        self.words = np.zeros((rows, -(-length // self.per)), dtype=_history_dtype(size))

    def put(self, t0: int, xs: np.ndarray) -> None:
        """Store the states `xs` (rows, T) at times ``t0 .. t0 + T - 1``."""
        per, (rows, T) = self.per, xs.shape
        lo, w0 = t0 % per, t0 // per
        lanes = np.zeros((rows, -(-(lo + T) // per), per), dtype=self.words.dtype)
        lanes.reshape(rows, -1)[:, lo : lo + T] = xs
        # the first word may hold states of earlier times already
        words = self.words[:, w0 : w0 + lanes.shape[1]]
        for i in range(per):
            words |= lanes[:, :, i] << i * self.bits

    def take(self, t: np.ndarray) -> np.ndarray:
        """States at times `t` (rows, T) of each row, as intp; a single row
        is read at every row of `t`."""
        rows = np.arange(len(self.words))[:, None] * self.words.shape[1]
        pos = t >> self.per.bit_length() - 1
        pos += rows
        states = self.words.reshape(-1).take(pos)
        # the shifts as bytes: shifting bytes by an intp array computes in
        # intp, which took twice as long
        shift = t.astype(np.uint8)
        shift &= self.per - 1
        shift *= self.bits
        states >>= shift
        states &= (1 << self.bits) - 1
        return states.astype(np.intp)

    def unpack(self) -> np.ndarray:
        """The states, (rows, length), in the history dtype."""
        # one shift per lane: broadcasting the shifts along a last axis of
        # 2 to 8 took 2 to 6 times as long
        states = np.empty(self.words.shape + (self.per,), dtype=self.words.dtype)
        for i in range(self.per):
            np.right_shift(self.words, i * self.bits, out=states[:, :, i])
        states &= (1 << self.bits) - 1
        return states.reshape(len(self.words), -1)[:, : self.length]


def _kept_histories(config: EngineConfig, keep_history: bool) -> list[bool]:
    """Which levels keep their trajectory: all with `keep_history`, else
    those that a Metropolis-Hastings level above reads."""
    model = config.model
    mh = isinstance(model, fk.FKModel) and model.kernel_type == "mh"
    return [keep_history or (mh and k < config.levels) for k in range(config.levels + 1)]


#: Bytes charged per Philox generator; tracemalloc sees about 810.
_STREAM_BYTES = 1024


def replicate_bytes(config: EngineConfig, checkpoints: int) -> tuple[int, int]:
    """Bytes charged to a ``run_batch(..., keep_history=False)`` of ``B``
    replicates, as ``(fixed, each)``: ``fixed + B * each``.

    The fixed part is the levels' tables, as :func:`_rules` builds them,
    and a slice's uniforms and step temporaries, about six int64 arrays
    of :data:`BLOCK_CELLS` cells, charged as seven.  A slice clamped to
    one step has ``B * width`` cells, more than that on a wide alphabet,
    so each replicate adds seven int64 cells per state of the widest
    rule.  Each replicate also adds its kept histories, packed as
    :class:`_History` stores them; at the longest block, its float64
    uniforms and state buffers, one per level in its history dtype; one
    generator per level; and its int64 occupation counts: one row per
    level, as many again at each of the `checkpoints` snapshots, and two
    more of the largest while a block's are added.
    """
    model, spaces = config.model, config.level_spaces()
    sizes = [sp.size for sp in spaces]
    # CDF tables hold (columns - 1) x rows float64 cells; a level's width
    # is that of its rule in _rules
    cells, width = (sizes[0] - 1) * sizes[0], sizes[0]
    for k in range(1, config.levels + 1):
        if isinstance(model, ann.AnnealingModel):
            cells += (sizes[k] - 1) * sizes[k]
            width = max(width, sizes[k])
            continue
        s_prev, s_new = model.base_spaces[k - 1].size, model.base_spaces[k].size
        mh = model.kernel_type == "mh"
        # the transition's CDFs, and an MH level's acceptance ratios or a
        # rank-one level's path weights
        cells += (s_new - 1) * s_prev + (s_prev * s_prev if mh else sizes[k - 1])
        width = max(width, s_prev if mh else sizes[k - 1], s_new)
    items = [_history_dtype(sp.size).itemsize for sp in spaces]
    history = sum(
        -(-(config.iterations + 1) // _packing(sp.size)[1]) * item
        for sp, item, kept in zip(spaces, items, _kept_histories(config, keep_history=False))
        if kept
    )
    each = MAX_BLOCK * (DRAWS_PER_STEP * 8 + sum(items)) + _STREAM_BYTES * len(spaces)
    each += 7 * 8 * width + 8 * ((1 + checkpoints) * sum(sizes) + 2 * max(sizes))
    return 8 * cells + 7 * 8 * BLOCK_CELLS, history + each


def _row_counts(states: np.ndarray, size: int) -> np.ndarray:
    """Occupation counts (B, size) of each replicate's row of (B, T) states."""
    B = states.shape[0]
    flat = (states + np.arange(B)[:, None] * size).ravel()
    return np.bincount(flat, minlength=B * size).reshape(B, size)


def _running_counts(start: np.ndarray, states: np.ndarray, size: int, iterations: int):
    """Counts through each step of a block, (size, B, T), and through its end, (B, size).

    `start` (B, size) counts the states through the block's first time
    and `states` (B, T) holds those at the times after it; entry ``t``
    counts through ``t`` steps past the first time, and the end counts
    add the last state too.  No count of a run of `iterations` steps
    exceeds ``iterations + 1``, so they take the narrowest unsigned
    dtype that holds it.
    """
    B, T = states.shape
    steps = np.zeros((size, B, T), dtype=_history_dtype(iterations + 2))
    steps[:, :, 0] = start.T
    cell = np.arange(B * T).reshape(B, T)
    np.put(steps, states[:, :-1] * np.intp(B * T) + cell[:, 1:], 1)
    # A sum along time: np.cumsum pays per (state, replicate) row, a loop
    # that adds whole (size, B) slices pays per step.  On a 2-CPU VM, in
    # two-byte counts, the cumsum is 5.7x faster on 2 states x 64
    # replicates x 256 steps (the rank-one levels of a 64-replicate run)
    # and the loop 19x faster on 64 x 256 x 2.  They tie near 32 rows per
    # step, where the loop takes over.
    if T * 32 > size * B:
        np.cumsum(steps, axis=2, dtype=steps.dtype, out=steps)
    else:
        for t in range(1, T):
            steps[:, :, t] += steps[:, :, t - 1]
    end = steps[:, :, -1].T.copy()
    end[np.arange(B), states[:, -1]] += 1
    return steps, end


# ---------------------------------------------------------------------------
# Level rules: one block of time steps of one level
# ---------------------------------------------------------------------------
#
# A rule maps the states `cur` (B,) at the block's first time, the uniforms
# `u` (draws, B, T), the leading planes of each step's three, the step
# times `n` (T,) and what it reads of the level below (its trajectory
# (B, n+1), its running counts (size, B, T), or nothing) to the states
# after each step, (B, T).

def _step_chain(cdf, cur, u, n, lower):
    return _kernel_scan(cdf, cur, u[0])


def _step_fk_mh(cdf, ratio, term, s_new, cur, u, n, history):
    """Proposal: a uniformly drawn past path of the level below, extended.

    `ratio` is the acceptance table ``g[y] / g[c]`` of a proposal with
    terminal ``y`` from a path with terminal ``c``, and `term` maps a
    path of the level below to its terminal coordinate.  `history` is
    the level below's :class:`_History`, with one row per replicate or a
    single row that every replicate reads.
    """
    B, T = u.shape[1:]
    p = (u[0] * (n + 1)).astype(np.intp)
    np.minimum(p, n, out=p)
    drawn = history.take(p)
    del p
    yterm = term.take(drawn)
    # held[:, 0] is the current state and held[:, t + 1] the proposal of step t
    held = np.empty((B, T + 1), dtype=np.intp)
    held[:, 0] = cur
    np.add(drawn * s_new, _cdf_draw(cdf, yterm, u[1]), out=held[:, 1:])
    del drawn
    # accept[c, b, t]: step t accepts when the current prefix terminal is c
    accept = u[2] < ratio.take(yterm, axis=1)
    alphabet = np.arange(len(ratio))[:, None, None]
    table = np.where(accept, yterm, alphabet)
    del yterm
    pos = _scan(table, term.take(cur // s_new))
    del table
    last = np.where(accept.ravel().take(pos), np.arange(1, T + 1), 0)
    del accept, pos
    np.maximum.accumulate(last, axis=1, out=last)
    # the state is the proposal of the last accepted step, else `cur`
    last += np.arange(B)[:, None] * (T + 1)
    return held.ravel().take(last)


def _step_fk_rank_one(cdf, weights, term, s_new, cur, u, n, counts):
    """Redraw from the reweighted occupation measure, then extend."""
    drawn = _weighted_redraw(counts, weights, u[0])
    return drawn * s_new + _cdf_draw(cdf, term.take(drawn), u[1])


def _step_annealing(cdf, weights, eps, cur, u, n, counts):
    """Kernel move with weight eps, else reweighted redraw plus move.

    The redraw target reuses the kernel move's uniform, as layout 1 fixes.
    """
    drawn = _weighted_redraw(counts, weights, u[1])
    redraw = _cdf_draw(cdf, drawn, u[2])
    return _kernel_scan(cdf, cur, u[1], move=u[0] < eps, other=redraw)


@dataclass(frozen=True)
class _Rule:
    step: Callable
    reads: str  # of the level below: "history", "counts" or ""
    width: int  # states per (width, B, T) bulk array of the rule
    draws: int  # leading uniforms of each step that the rule reads


def _rules(config: EngineConfig) -> list[_Rule]:
    model = config.model
    spaces = [model.level_space(k) for k in range(config.levels + 1)]
    sizes = [ps.space.size for ps in spaces]
    rules = [_Rule(partial(_step_chain, _cdf_table(model.level0_kernel.matrix)), "", sizes[0], 1)]
    for k in range(1, config.levels + 1):
        if isinstance(model, ann.AnnealingModel):
            step = partial(
                _step_annealing,
                _cdf_table(model.kernels[k].matrix),
                ann.potential_fn(model, k - 1).values,
                model.epsilon,
            )
            rules.append(_Rule(step, "counts", sizes[k], 3))
            continue
        s_prev, s_new = model.base_spaces[k - 1].size, model.base_spaces[k].size
        cdf = _cdf_table(model.transitions[k - 1].matrix)
        g = model.potentials[k - 1].values
        term = spaces[k - 1].terminal
        if model.kernel_type == "mh":
            step = partial(_step_fk_mh, cdf, g[None, :] / g[:, None], term, s_new)
            rules.append(_Rule(step, "history", max(s_prev, s_new), 3))
        else:
            # potential of a level-(k-1) path state: that of its terminal
            step = partial(_step_fk_rank_one, cdf, g[term], term, s_new)
            rules.append(_Rule(step, "counts", max(sizes[k - 1], s_new), 2))
    return rules


def run_batch(
    config: EngineConfig,
    replicates,
    *,
    checkpoints=(),
    keep_history: bool = True,
) -> BatchResult:
    """Run the given replicate ids, one level at a time per block of time steps.

    `checkpoints` is an iterable of iteration indices ``n`` at which the
    per-level occupation counts of states ``0..n`` are snapshotted.  A
    block, the time steps whose uniforms are drawn at once, is
    ``min(MAX_BLOCK, 4 * BLOCK_CELLS // B)`` steps for ``B`` replicates:
    512 up to 256 replicates, 256 at 512.  The trajectories do not
    depend on it.
    """
    replicates = tuple(int(r) for r in replicates)
    checkpoints = sorted(set(int(n) for n in checkpoints))
    if checkpoints and checkpoints[-1] > config.iterations:
        raise ValueError(
            f"checkpoint {checkpoints[-1]} exceeds iterations {config.iterations}"
        )
    spaces = config.level_spaces()
    sizes = [sp.size for sp in spaces]
    rules = _rules(config)
    B, N, L = len(replicates), config.iterations, config.levels
    block = min(MAX_BLOCK, max(1, 4 * BLOCK_CELLS // max(B, 1)))
    gens = [[_philox(key) for key in _stream_keys(config.seed, replicates, k)] for k in range(L + 1)]
    keep = _kept_histories(config, keep_history)
    hist = [_History(B, N + 1, size) if kept else None for kept, size in zip(keep, sizes)]

    cur, counts = [], []
    for k in range(L + 1):
        u0 = np.array([g.random() for g in gens[k]])
        uniform = _cdf_table(np.full((1, sizes[k]), 1.0 / sizes[k]))
        x0 = _cdf_draw(uniform, np.zeros(B, dtype=np.intp), u0)
        if keep[k]:
            hist[k].put(0, x0[:, None])
        cur.append(x0)
        counts.append(_row_counts(x0[:, None], sizes[k]))
    snaps = {n: [None] * (L + 1) for n in checkpoints}
    if 0 in snaps:
        snaps[0] = list(counts)

    drawn = np.empty((B, block, DRAWS_PER_STEP))
    # level k writes its buffer while level k + 1 reads it
    buffers = [np.empty(B * block, dtype=_history_dtype(size)) for size in sizes]
    # steps per slice of each level, and one slice's uniforms as planes
    subs = [max(1, BLOCK_CELLS // (B * rule.width)) for rule in rules]
    planes = np.empty(DRAWS_PER_STEP * B * min(block, max(subs)))
    for t0 in range(0, N, block):
        T = min(block, N - t0)
        n = np.arange(t0, t0 + T)
        for k, rule in enumerate(rules):
            for i, g in enumerate(gens[k]):
                g.random(out=drawn[i, :T])
            # contiguous (B, T) rows, in a short last block too
            xs = buffers[k][: B * T].reshape(B, T)
            x = cur[k]
            for lo in range(0, T, subs[k]):
                hi = min(lo + subs[k], T)
                # only the uniforms the rule reads
                u = planes[: rule.draws * B * (hi - lo)].reshape(rule.draws, B, hi - lo)
                np.copyto(u, drawn[:, lo:hi, : rule.draws].transpose(2, 0, 1))
                lower = hist[k - 1] if rule.reads == "history" else None
                if rule.reads == "counts":
                    lower, below_counts = _running_counts(
                        below_counts, below[:, lo:hi], sizes[k - 1], N
                    )
                xs[:, lo:hi] = rule.step(x, u, n[lo:hi], lower)
                del lower  # before the next slice's counts are built
                x = xs[:, hi - 1].astype(np.intp)
            if keep[k]:
                hist[k].put(t0 + 1, xs)
            # what the level above reads: counts through t0, then the block
            below_counts, below = counts[k], xs
            done = 0
            for c in checkpoints:
                if t0 < c <= t0 + T:
                    counts[k] = counts[k] + _row_counts(xs[:, done : c - t0], sizes[k])
                    snaps[c][k] = counts[k]
                    done = c - t0
            counts[k] = counts[k] + _row_counts(xs[:, done:], sizes[k])
            cur[k] = x

    return BatchResult(
        config=config,
        replicates=replicates,
        spaces=spaces,
        states=tuple(h.unpack() for h in hist) if keep_history else None,
        final_counts=tuple(counts),
        checkpoint_counts={c: tuple(v) for c, v in snaps.items()},
    )


def _digits(values: np.ndarray) -> np.ndarray:
    """Decimal digits of each non-negative value as one NUL-padded row of ASCII bytes.

    Every row is as wide as the digits of the largest value.
    """
    text = values.astype(f"S{len(str(values.max()))}")
    return text.view(np.uint8).reshape(text.size, -1)


def _row_template(prefix: bytes, iterations: np.ndarray, width: int) -> np.ndarray:
    """Byte rows of `prefix`, an iteration's digits, a comma, `width`
    unset bytes for a state label and a newline, one per iteration."""
    rows, digits = iterations.shape
    start = len(prefix)
    tpl = np.empty((rows, start + digits + width + 2), dtype=np.uint8)
    tpl[:, :start] = np.frombuffer(prefix, dtype=np.uint8)
    tpl[:, start : start + digits] = iterations
    tpl[:, -width - 2] = ord(",")
    tpl[:, -1] = ord("\n")
    return tpl


def export_trajectories_csv(result: BatchResult, fh) -> None:
    """Write trajectories as ``replicate,level,iteration,state_index`` rows
    to the binary file `fh`, one replicate at a time.

    A (replicate, level) block is a template of fixed-width byte rows,
    one per iteration, each number NUL-padded to the width of the widest
    in its column.  One template per level is held, built for the digit
    count of the replicate ids at hand; a block overwrites its replicate
    digits and state labels in place.  NULs are dropped only in the rows
    that can hold them: those of the shorter iteration numbers, or every
    row when the level's labels differ in width.  The rest are written
    as they are.
    """
    if result.states is None:
        raise ValueError("histories were not retained for this batch")
    fh.write(b"replicate,level,iteration,state_index\n")
    iterations = _digits(np.arange(result.iterations + 1))
    rows = len(iterations)
    # the rows of the shorter iteration numbers, a prefix, end in NULs
    padded = int(np.count_nonzero(iterations[:, -1] == 0))
    labels = [_digits(np.arange(sp.size)) for sp in result.spaces]
    templates, held = [], 0
    for i, r in enumerate(result.replicates):
        rid = str(r).encode()
        if len(rid) != held:
            # one template per level, for ids of this many digits, built
            # once the previous set is dropped
            templates.clear()
            templates += (_row_template(rid + b",%d," % k, iterations, lab.shape[1])
                          for k, lab in enumerate(labels))
            held = len(rid)
        for tpl, lab, arr in zip(templates, labels, result.states):
            # a column at a time: a broadcast row of a few bytes copies slowly
            for j, digit in enumerate(rid):
                tpl[:, j] = digit
            width = lab.shape[1]
            tpl[:, -width - 1 : -1] = np.take(lab, arr[i], axis=0)
            # labels of differing widths may leave NULs in any row
            short = rows if width > 1 else padded
            head = tpl[:short].ravel()
            fh.write(head[head != 0])
            fh.write(tpl[short:])
