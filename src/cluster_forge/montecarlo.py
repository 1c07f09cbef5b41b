"""Seeded stochastic simulation of fusion strategies.

Randomness comes from the counter-based Philox generator. Trials are
grouped into fixed chunks of :data:`TRIAL_CHUNK`; chunk ``c`` draws from
the substream ``Philox(key=seed, counter=c << 128)``, and trial ``t``
consumes row ``t % TRIAL_CHUNK`` of that chunk's block, one draw per
vertex of the start. Every trial therefore has its own reproducible
stream regardless of execution order, so parallel runs aggregate to
bit-identical results.

A draw is kept as one win bit, not as a uniform. ``Generator.random``
would turn the raw 64-bit word w into the double ``(w >> 11) * 2**-53``,
which a player only ever compares with ``p``; that comparison holds
exactly when ``w < ceil(p * 2**53) << 11`` (:func:`_win_cut`). So the
chunk reads its raw words with ``random_raw``, at most
:data:`_WORD_BLOCK` at a time, and thresholds each block into a ``bool``
matrix: one byte per draw instead of eight, and the same successes as
the float comparison, bit for bit.

A chunk plays all its trials at once on numpy arrays, by the plan
:func:`_plan` makes once per estimate: runs of a strategy, one after
another from their own starts, then insistent-pairing rounds on their
survivors. The plan looks at a strategy's type only where the engine
depends on it: a :class:`TwoStage` whose inner strategy keeps
:class:`Strategy`'s own ``start``, ``choose`` and ``step`` runs its
blocks; every other strategy is one run of itself. A trial of a run is a
random walk on the run's event DAG, and the plan is the list of the
runs' empty event tables (:class:`_EventTable`) in play order, runs from
equal starts sharing one table. :func:`estimate_quality` hands the plan
to every chunk, which fills its tables as its trials need them: a state
is numbered when a step first reaches it and expanded, decided and
stepped on both outcomes through the validity gate by
:func:`cluster_forge.exact._expand`, when a walk first needs it, and a
step-table entry, four attempts from a state for one value of the next
four win bits, is filled the first time a trial reads it. A chunk walks
the table four attempts per gather, every trial until all have ended. Trials
visit far fewer states than the DAG holds (about 1,070 of smallest-first's
4,582 from 64 pairs in 4096 trials), and later chunks mostly read
entries that are already filled. A table that a fill could take past
:data:`_TABLE_STATES` states first restarts from its trials' states,
which changes no result. A chunk whose expansion breaks a
validity rule or meets a state that cannot be hashed, and a run whose
first state has more vertices than its start, play one trial at a time
on the scalar player :func:`_play`, which the tests keep as the oracle,
which drives stateless and stateful strategies alike through the
validity gate and which raises the error of the first trial that breaks
a rule. The pairing rounds play on a ``(trials, chains)`` length array.
Each trial keeps its own attempt pointer and reads ``wins[t,
attempts[t]]``, the win bit the scalar player reads at that step, so
the finals, and the float sums built from them, are bit-identical to
the scalar player's whatever the tables hold.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .bounds import _check_rate, _pair_budget
from .configuration import (
    FAILURE,
    SUCCESS,
    Configuration,
    Stop,
    _fused,
    canonical_key,
)
from .exact import _collector_paused, _expand
from .strategies import (
    MODESTY,
    StatefulStrategy,
    Strategy,
    TwoStage,
    _advance,
    _Broken,
    _decide,
)

TRIAL_CHUNK = 4096

# Raw Philox words are drawn at most this many at a time (512 KB).
_WORD_BLOCK = 1 << 16

# Philox keys are 128-bit unsigned integers, and a chunk's counter starts
# at chunk << 128 below 2**256.
_SEEDS = 2 ** 128


def _check_seed(seed: int) -> None:
    if not 0 <= seed < _SEEDS:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")


def _check_run(ps, seed: int) -> float:
    """``ps`` as a float, once it and ``seed`` are checked."""
    p = float(ps)
    if not 0 <= p <= 1:  # also rejects NaN
        raise ValueError(f"success probability must be in [0, 1], got {ps}")
    _check_seed(seed)
    return p


def _win_cut(p: float) -> int:
    """The cut below which a raw word wins at success probability ``p``:
    ``w < cut`` exactly when ``(w >> 11) * 2**-53 < p``. ``p * 2**53`` is
    exact, and an integer is below a real exactly when it is below the
    real's ceiling. At p = 1 the cut is 2**64, past every word."""
    return math.ceil(p * 2 ** 53) << 11


def _word_blocks(bitgen: np.random.Philox, count: int):
    """The next ``count`` raw words of ``bitgen`` as ``(offset, block)``
    pairs, blocks of at most :data:`_WORD_BLOCK` words, in stream order:
    the words that ``Generator.random`` turns into doubles."""
    for start in range(0, count, _WORD_BLOCK):
        yield start, bitgen.random_raw(min(_WORD_BLOCK, count - start))


def _fill_wins(bitgen: np.random.Philox, p: float, wins: np.ndarray) -> np.ndarray:
    """``wins``, a contiguous bool array, set in order from the next
    words of ``bitgen``: True where the attempt succeeds at ``p``."""
    cut = _win_cut(p)
    flat = wins.reshape(-1)
    if cut == 2 ** 64:  # p = 1; nothing else reads the stream, so draw nothing
        flat[:] = True
        return wins
    for start, words in _word_blocks(bitgen, flat.size):
        np.less(words, np.uint64(cut), out=flat[start:start + words.size])
    return wins


def _chunk_stream(seed: int, chunk: int, skip: int = 0) -> np.random.Philox:
    """Chunk ``chunk``'s stream past its first ``skip`` words. Philox makes
    four words per counter step, so the counter starts past the whole
    steps and the words left over are drawn and dropped."""
    steps, words = divmod(skip, 4)
    bitgen = np.random.Philox(key=seed, counter=(chunk << 128) + steps)
    bitgen.random_raw(words)
    return bitgen


def _chunk_wins(seed: int, chunk: int, trials_in_chunk: int, draws: int, p: float) -> np.ndarray:
    """The chunk's ``(trials_in_chunk, draws)`` win matrix: row t holds
    trial t's attempts in order."""
    return _fill_wins(_chunk_stream(seed, chunk), p,
                      np.empty((trials_in_chunk, draws), bool))


def _draws_bound(start: Configuration) -> int:
    # every attempt removes at least one vertex
    return max(start.vertex_count, 1)


def _check_edges(strategy, left: int, expected: int) -> None:
    """End-of-trial edge conservation: a failed attempt loses exactly two
    edges and a successful one none. Raised, not asserted, so that it
    still runs under ``python -O``."""
    if left != expected:
        raise RuntimeError(
            f"edge conservation broken under {strategy.name}: "
            f"{left} edges left, expected {expected}"
        )


def _play(strategy: Strategy | StatefulStrategy, start: Configuration, row):
    """One trial through the strategy's process interface, attempt i
    succeeding when ``row[i]`` is true; returns the final process state.

    Each decision and step passes the validity gate of
    :mod:`cluster_forge.strategies`; the first broken rule raises
    :class:`~cluster_forge.strategies.InvalidStrategy`, its event rebuilt
    from ``row``. A valid trial never needs more than ``row`` holds, one
    win bit per vertex of the start, since every attempt removes a
    vertex; a trial that does raises it too."""
    state = strategy.start(start)
    vertices = state.vertex_count
    edges = start.total_length
    attempts = 0
    try:
        while True:
            action = _decide(strategy, state)
            if isinstance(action, Stop):
                _check_edges(strategy, state.total_length, edges)
                return state
            if attempts == len(row):
                raise _Broken(f"more than {attempts} attempts from a start of "
                              f"{start.vertex_count} vertices; every attempt removes a vertex")
            outcome = SUCCESS if row[attempts] else FAILURE
            state, drop = _advance(strategy, state, action, outcome, vertices)
            attempts += 1
            vertices -= drop
            if outcome == FAILURE:
                edges -= 2
    except _Broken as exc:
        event = "".join(SUCCESS if won else FAILURE for won in row[:attempts])
        raise exc.invalid(strategy, start, event) from exc.__cause__


def simulate_run(
    strategy: Strategy | StatefulStrategy,
    start: Configuration,
    ps,
    seed: int,
    trial_index: int = 0,
) -> Configuration:
    """Sample one trajectory, the one trial ``trial_index`` of an
    :func:`estimate_quality` run plays, and return the final
    configuration."""
    p = _check_run(ps, seed)
    if not 0 <= trial_index < TRIAL_CHUNK * _SEEDS:
        raise ValueError(f"trial_index must be in [0, {TRIAL_CHUNK} * 2**128), "
                         f"got {trial_index}")
    chunk, offset = divmod(trial_index, TRIAL_CHUNK)
    draws = _draws_bound(start)
    row = _fill_wins(_chunk_stream(seed, chunk, offset * draws), p, np.empty(draws, bool))
    return _play(strategy, start, row).to_configuration()


@dataclass(frozen=True)
class SimulationReport:
    """Sample statistics of the final total length; reproducible from
    (seed, parameters)."""

    strategy: str
    start: str
    ps: float
    trials: int
    seed: int
    mean: float
    stderr: float | None
    threshold: int | None = None
    success_count: int | None = None

    @property
    def success_fraction(self) -> float | None:
        if self.success_count is None:
            return None
        return self.success_count / self.trials

    def to_dict(self) -> dict:
        return asdict(self)


# Most states an event table holds. Before a fill that could pass it, the
# table restarts from the states its trials are at (_EventTable.restart).
# A fill adds at most ten states a step entry (two for each of the five
# states it expands), and a gather needs at most one entry a trial, so a
# table restarted from a chunk's trials and the root holds the fill that
# follows while this is at least 11 * TRIAL_CHUNK + 1. 2**18 holds the
# roughly 247,000 states one chunk of smallest-first from 1000 pairs
# visits.
_TABLE_STATES = 1 << 18

# A walk reads four win bits as one little-endian uint32 of their bool
# bytes, attempt i at bit 8i. Times this factor, bit 8i lands on bit
# 24 + i and every cross term below bit 24 or at bit 32 and up, so the
# product shifted right by 24 is the 4-bit step index, attempt i at bit i.
_GATHER_BITS = np.uint32(1 << 24 | 1 << 17 | 1 << 10 | 1 << 3)

# The win bits of each 4-bit step index, attempt 0 first.
_BITS = [tuple(v >> i & 1 for i in range(4)) for v in range(16)]


class _EventTable:
    """A strategy's event DAG from the process state ``root``, its rows
    filled the first time a walk needs them.

    State 0 is the root; a state is numbered the first time a step
    reaches it, and expanded (:func:`cluster_forge.exact._expand`) the
    first time a walk needs its steps or whether it is terminal. Then
    ``rows[i]`` numbers the states after a failed and a successful
    attempt at state ``i``, in that order, so that a win bit indexes it;
    it is None before. At a terminal state, where the strategy stops,
    both point back to it, and ``final_length[i]`` is its total length.
    ``steps[16 * i + v]`` is four attempts from state ``i`` whose win
    bits are the bits of ``v``, attempt j at bit j: ``after << 7 | ended
    << 6 | taken << 3 | lost``, the state after them, whether it is
    terminal, how many attempts were taken before a terminal state was
    reached and how many of those failed. An entry is 0 until it is
    filled: a filled one takes an attempt or has ended. The two arrays
    grow by half when a numbered state would not fit, and not past
    :data:`_TABLE_STATES` states while under it, so that past their first
    64 states they hold at most 1.5 times the states numbered: at most 96
    bytes of step entries a state."""

    def __init__(self, strategy: Strategy | StatefulStrategy, root):
        self.strategy, self.root = strategy, root
        self._clear()

    def _clear(self) -> None:
        # no step reaches the root, so it needs no number
        self.number: dict = {}
        self.states, self.rows = [self.root], [None]
        self.final_length, self.steps = np.zeros(64, np.int64), np.zeros(64 * 16, np.uint32)

    def _number(self, state) -> int:
        """``state``'s number, a new one the first time; TypeError when it
        cannot be hashed."""
        i = self.number.setdefault(state, len(self.states))  # hashes the state once
        if i == len(self.states):
            self.states.append(state)
            self.rows.append(None)
            if i == len(self.final_length):
                size = min(i + i // 2, _TABLE_STATES) if i < _TABLE_STATES else i + i // 2
                self.final_length, self.steps = (
                    np.concatenate([rows, np.zeros((size - i) * width, rows.dtype)])
                    for rows, width in ((self.final_length, 1), (self.steps, 16)))
        return i

    def _expand_row(self, i: int) -> tuple[int, int]:
        """State ``i``'s row, once it is expanded."""
        state = self.states[i]
        node = _expand(self.strategy, state, state.vertex_count)
        if node is None:
            self.final_length[i] = state.total_length
            # a terminal state takes no attempt, whatever the bits
            self.steps[16 * i:16 * i + 16] = i << 7 | 1 << 6
            row = (i, i)
        else:
            succ, _, fail = node
            row = (self._number(fail), self._number(succ))
        self.rows[i] = row
        return row

    def fill(self, keys: np.ndarray) -> bool:
        """Fill the step entries ``keys`` (``16 * state + bits``), each by
        four single attempts over the rows, expanding each state the
        first time it is needed, the entry's own and the one the four
        attempts reach included. False when an expansion breaks a
        validity rule or meets a state that cannot be hashed; the rows it
        filled are kept. A walk fills with the cyclic collector paused
        (:func:`_walk_table`)."""
        rows, expand = self.rows, self._expand_row
        entries = []
        append = entries.append
        try:
            for key in keys.tolist():
                state, counts = key >> 4, 0  # counts: taken << 3 | lost
                for won in _BITS[key & 15]:
                    after = (rows[state] or expand(state))[won]
                    if after == state:  # a terminal state's row points back to it
                        append(state << 7 | 1 << 6 | counts)
                        break
                    state, counts = after, counts + 9 - won
                else:
                    append(state << 7 | ((rows[state] or expand(state))[0] == state) << 6 | counts)
        except (_Broken, TypeError):  # TypeError: a state that cannot be hashed
            return False
        self.steps[keys] = entries
        return True

    def restart(self, state: np.ndarray) -> np.ndarray:
        """Empty the table but for its root and the states in ``state``,
        and return ``state`` numbered anew. A trial's path depends on its
        win bits alone, so a restart changes no result."""
        renumber = np.zeros(len(self.states), state.dtype)
        kept = [(i, self.states[i]) for i in set(state.tolist()) if i]
        self._clear()
        for i, kept_state in kept:
            renumber[i] = self._number(kept_state)
        return renumber[state]


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending. A sort: a set of 4096
    ints takes several times as long, and ``np.unique`` imports
    ``numpy.ma``, about 25 ms, on its first call."""
    keys = np.sort(keys)
    return keys[np.concatenate([[True], keys[1:] != keys[:-1]])]


@_collector_paused()
def _walk_table(
    table: _EventTable, wins: np.ndarray, attempts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Every trial of a chunk walked through ``table`` from its state 0,
    four attempts per gather of its step table, each entry filled the
    first time a trial needs it (:meth:`_EventTable.fill`), with the
    cyclic collector paused: once for the walk rather than once a fill,
    so that the collections the fills' allocations call for run once
    when it returns.

    Trial t reads its next win bits from ``wins[t, attempts[t]]`` on,
    and ``attempts`` is advanced in place. Returns each trial's final
    total length and its number of failed attempts, or None when an
    expansion fails (the scalar player then plays the chunk).

    Every trial is gathered at every step until all have ended. A state
    that is not terminal holds two chains or more, so four vertices or
    more, and every attempt removes a vertex: a trial not yet ended has
    four win bits or more left in its row. A trial that has ended stays
    on its terminal state, which takes no attempt whatever bits it
    reads. Only a start of at most three vertices, which holds one chain
    or none, gives a chunk fewer than four bits; such a chunk is padded
    with zero bits to one word."""
    trials, draws = wins.shape
    bits = wins.reshape(-1)
    if bits.size < 4:
        bits = np.concatenate([bits, np.zeros(3, bool)])
    # words[j]: the win bits j to j + 3, one per byte
    words = np.ndarray((bits.size - 3,), "<u4", bits, 0, (1,))
    first = np.arange(trials) * draws  # flat index of each trial's first win bit
    at = first + attempts  # and of its next one
    state = np.zeros(trials, np.uint32)
    failures = np.zeros(trials, np.int64)
    while True:
        # only a trial that has ended can read past the last word
        word = words[np.minimum(at, words.size - 1)]
        word *= _GATHER_BITS
        word >>= 24
        key = state << 4 | word
        entry = table.steps[key]
        if np.count_nonzero(entry) < entry.size:
            missing = np.flatnonzero(entry == 0)
            keys = _distinct(key[missing])
            if len(table.states) + 10 * keys.size > _TABLE_STATES:
                state = table.restart(state)
                key, missing = state << 4 | word, np.arange(key.size)
                keys = _distinct(key)
            if not table.fill(keys):
                return None
            entry[missing] = table.steps[key[missing]]
        state = entry >> 7
        at += (entry >> 3) & 7
        failures += entry & 7
        if (entry & 64).all():
            break
    attempts[:] = at - first
    return table.final_length[state], failures


def _plan(strategy, start: Configuration) -> list:
    """How a chunk plays ``strategy`` from ``start``: the empty event
    table of each run, in play order, the runs played one after another
    and runs from equal starts sharing one table. A :class:`TwoStage`
    runs its blocks when its inner strategy keeps :class:`Strategy`'s own
    ``start``, ``choose`` and ``step``: its process is then its decisions
    under the fusion rule, as in a block. Every other strategy is one run
    of itself. A run whose first state has more vertices than its start
    has None, not a table: a walk could need more win bits than a trial's
    row holds. :func:`estimate_quality` makes the plan once, for all its
    chunks."""
    explorer, runs = strategy, [start]
    if type(strategy) is TwoStage and all(
            getattr(type(strategy.inner), name, None) is getattr(Strategy, name)
            for name in ("start", "choose", "step")):
        explorer, runs = strategy.inner, strategy.blocks(start)
    roots = {run: explorer.start(run) for run in runs}
    tables = {run: _EventTable(explorer, root) if root.vertex_count <= _draws_bound(run) else None
              for run, root in roots.items()}
    return [tables[run] for run in runs]


def _compact(lengths: np.ndarray) -> np.ndarray:
    """Each row's nonzero lengths moved left in order, trailing columns
    that are zero in every row dropped."""
    order = np.argsort(lengths == 0, axis=1, kind="stable")
    packed = np.take_along_axis(lengths, order, axis=1)
    return packed[:, :int((packed > 0).sum(1).max(initial=0))]


def _pairing_round(
    lineup: np.ndarray, wins: np.ndarray, attempts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One round of insistent pairwise fusion on a compacted
    (trials, chains) lineup: chains 2i and 2i+1 are retried until they
    merge or one is destroyed, pair after pair, and an odd last chain
    carries over. Returns the compacted survivors and each trial's
    failed attempts."""
    trials, m = lineup.shape
    out = np.zeros((trials, (m + 1) // 2), lineup.dtype)
    failures = np.zeros(trials, np.int64)
    for i in range(m // 2):
        x = lineup[:, 2 * i].copy()
        y = lineup[:, 2 * i + 1].copy()
        live = np.flatnonzero((x > 0) & (y > 0))
        while live.size:
            at = attempts[live]
            success = wins[live, at]
            attempts[live] = at + 1
            xs, ys = x[live], y[live]
            won, lost = _fused(xs, ys, True), _fused(xs, ys, False)
            x[live], y[live] = np.where(success, won[0], lost[0]), np.where(success, won[1], lost[1])
            failures[live[~success]] += 1
            live = live[~success & (lost[0] > 0) & (lost[1] > 0)]
        out[:, i] = x + y
    if m % 2:
        out[:, -1] = lineup[:, -1]
    return _compact(out), failures


def _play_chunk(
    strategy, start: Configuration, wins: np.ndarray, plan: list,
) -> np.ndarray | None:
    """Final total length of every trial of a chunk, played from its win
    matrix on arrays, each run walked on its event table of ``plan``
    (:func:`_plan`), or None when the scalar player plays it: a run
    without a table, or one whose walk fails."""
    trials = len(wins)
    attempts = np.zeros(trials, np.int64)
    failures = np.zeros(trials, np.int64)
    survivors = np.zeros((trials, len(plan)), np.int64)
    for i, table in enumerate(plan):
        walked = None if table is None else _walk_table(table, wins, attempts)
        if walked is None:
            return None
        survivors[:, i], lost = walked
        failures += lost
    # one run leaves one column: nothing to compact, no round to play
    chains = _compact(survivors) if len(plan) > 1 else survivors
    while chains.shape[1] >= 2:
        chains, lost = _pairing_round(chains, wins, attempts)
        failures += lost
    finals = chains.sum(1)
    expected = start.total_length - 2 * failures
    broken = np.flatnonzero(finals != expected)
    if broken.size:
        _check_edges(strategy, int(finals[broken[0]]), int(expected[broken[0]]))
    return finals


def _chunk_stats(
    strategy, start: Configuration, p: float, seed: int, threshold: int | None,
    plan: list, chunk: int, trials_in_chunk: int,
) -> tuple[float, float, int]:
    """The sum, the sum of squares and the count reaching ``threshold`` of
    the final lengths of chunk ``chunk``'s trials, played on ``plan``
    (:func:`_plan`) or, when that fails, by the scalar player. The
    per-chunk arguments come last, so that the rest is bound once."""
    wins = _chunk_wins(seed, chunk, trials_in_chunk, _draws_bound(start), p)
    finals = _play_chunk(strategy, start, wins, plan)
    if finals is None:
        finals = np.array([_play(strategy, start, row).total_length for row in wins], np.int64)
    # Finals are integers and no partial sum reaches 2**53 (that needs
    # trials * total_length**2 >= 2**53, far past a win matrix that
    # fits in memory), so the int64 sums converted once equal float sums
    # taken trial by trial.
    successes = int((finals >= threshold).sum()) if threshold is not None else 0
    return float(finals.sum()), float((finals * finals).sum()), successes


def estimate_quality(
    strategy: Strategy | StatefulStrategy,
    start: Configuration,
    ps,
    trials: int,
    seed: int,
    threshold: int | None = None,
    processes: int = 1,
) -> SimulationReport:
    """Mean and standard error of the final total length over ``trials``
    independent runs. ``threshold`` additionally counts runs whose final
    length reaches it. The aggregate is independent of ``processes``.
    ``ps = 0`` is allowed: every attempt fails."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if processes < 1:
        raise ValueError(f"processes must be at least 1, got {processes}")
    p = _check_run(ps, seed)
    # the plan is made once and its tables filled as the chunks walk them;
    # a pool batch unpickles one empty copy and fills its own
    play = partial(_chunk_stats, strategy, start, p, seed, threshold, _plan(strategy, start))
    chunks = range((trials + TRIAL_CHUNK - 1) // TRIAL_CHUNK)
    sizes = [min(TRIAL_CHUNK, trials - chunk * TRIAL_CHUNK) for chunk in chunks]

    if processes > 1 and len(chunks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(processes, len(chunks))
        # a forked pool starts every worker up front; map keeps chunk order
        # and pickles each batch of chunks as one call, so the plan is
        # pickled once a batch, and there is one batch a worker
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(play, chunks, sizes, chunksize=-(-len(chunks) // workers)))
    else:
        parts = list(map(play, chunks, sizes))
    # summed left to right in chunk order, whatever ran them
    total, total_sq, successes = (sum(column) for column in zip(*parts))

    mean = total / trials
    if trials >= 2:
        variance = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
        stderr = math.sqrt(variance / trials)
    else:
        stderr = None
    return SimulationReport(
        strategy=strategy.name,
        start=canonical_key(start),
        ps=p,
        trials=trials,
        seed=seed,
        mean=mean,
        stderr=stderr,
        threshold=threshold,
        success_count=successes if threshold is not None else None,
    )


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a Bernoulli rate; asymmetric, so it stays
    informative for fractions near 0 or 1. No trials give ``(0.0, 1.0)``;
    a success count outside ``[0, trials]``, or a ``z`` that is not finite
    and positive, raises ValueError."""
    if not (z > 0 and math.isfinite(z)):
        raise ValueError(f"z must be finite and positive, got {z!r}")
    if trials <= 0:
        return (0.0, 1.0)
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, {trials}], got {successes}")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = phat + z2 / (2 * trials)
    radius = z * math.sqrt(max(0.0, phat * (1 - phat) / trials + z2 / (4 * trials * trials)))
    return (max(0.0, (center - radius) / denom), min(1.0, (center + radius) / denom))


@dataclass(frozen=True)
class ThresholdReport:
    """Outcome of a reach-the-target-length experiment."""

    target_length: int
    n_pairs: int
    block_size: int
    alpha: float
    epsilon: float
    direction: str
    ps: float
    trials: int
    seed: int
    successes: int
    fraction: float
    wilson_low: float
    wilson_high: float
    block_remainder_ok: bool

    def to_dict(self) -> dict:
        return asdict(self)


def threshold_experiment(
    target_length: int,
    alpha,
    epsilon,
    block_size: int,
    trials: int,
    seed: int,
    ps=Fraction(1, 2),
    direction: str = "sufficient",
) -> ThresholdReport:
    """Fraction of runs in which the two-stage strategy, on
    ceil((1/alpha +- epsilon) L) pairs, ends with a single chain of at
    least L edges.

    ``direction="sufficient"`` uses the + sign (the fraction should
    approach one as L grows when alpha is an achievable rate);
    ``"insufficient"`` uses the - sign (the fraction stays away from one
    when alpha upper-bounds every strategy). The remainder argument
    behind the sufficient direction needs L >= block_size / epsilon;
    ``block_remainder_ok`` records whether that held.

    ``target_length``, ``alpha``, ``epsilon`` and ``direction`` are
    checked before any trial runs, each by a ValueError that names it.
    The rate checks and the pair budget are those of
    :func:`cluster_forge.bounds.inverse_resource_bounds`, taken in
    floats for this direction alone.
    """
    if not isinstance(target_length, numbers.Integral) or target_length < 1:
        raise ValueError(f"target_length must be an integer >= 1, got {target_length!r}")
    _check_rate(alpha, epsilon)
    if direction not in ("sufficient", "insufficient"):
        raise ValueError("direction must be 'sufficient' or 'insufficient'")
    sign = 1 if direction == "sufficient" else -1
    n_pairs = math.ceil(_pair_budget(target_length, float(alpha), float(epsilon), sign))
    strategy = TwoStage(block_size, MODESTY)
    report = estimate_quality(
        strategy, Configuration.epr_pairs(n_pairs), ps, trials, seed,
        threshold=target_length,
    )
    low, high = wilson_interval(report.success_count, trials)
    return ThresholdReport(
        target_length=target_length,
        n_pairs=n_pairs,
        block_size=block_size,
        alpha=float(alpha),
        epsilon=float(epsilon),
        direction=direction,
        ps=float(ps),
        trials=trials,
        seed=seed,
        successes=report.success_count,
        fraction=report.success_count / trials,
        wilson_low=low,
        wilson_high=high,
        block_remainder_ok=target_length >= block_size / float(epsilon),
    )
