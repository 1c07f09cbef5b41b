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
:func:`_plan` makes: runs of a strategy, one after another from their
own starts, then insistent-pairing rounds on their survivors. The plan
looks at a strategy's type only where an engine depends on it: a
:class:`TwoStage` whose inner strategy keeps :class:`Strategy`'s own
``start``, ``choose`` and ``step`` runs its blocks, and runs of exactly
:class:`Modesty` or :class:`Greed` have a count-matrix fallback. Every
other strategy is one run of itself. Before the chunks run,
:func:`estimate_quality` explores each
distinct run's event DAG with the exact evaluation's explorer
(:func:`cluster_forge.exact._explore`, depth first through the validity
gate), numbers its states and doubles its one-attempt steps twice into a
step table; a chunk then walks the table four attempts per gather. The
DAG grows fast with the start (smallest-first has 55 states from 12
pairs, 27,881 from 100), so exploration stops once the table would hold
more than one state per 16 trials of the run, which keeps a given-up
exploration cheap next to the run that follows it
(:func:`_state_budget`). A run without a table plays smallest- or
largest-first on a ``(trials, total_length + 1)`` count matrix; any
other strategy then plays its whole chunk one trial at a time on the
scalar player :func:`_play`, which the tests keep as the oracle and
which drives stateless and stateful strategies alike through the
validity gate. The pairing rounds play on a ``(trials, chains)`` length
array. Each trial keeps its own attempt pointer and reads ``wins[t,
attempts[t]]``, the win bit the scalar player reads at that step, so
the finals, and the float sums built from them, are bit-identical to
the scalar player's.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .configuration import (
    FAILURE,
    SUCCESS,
    Configuration,
    Stop,
    canonical_key,
)
from .exact import _collector_paused, _explore
from .strategies import (
    MODESTY,
    Greed,
    InvalidStrategy,
    Modesty,
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


def _play_counts(
    greedy: bool, counts: dict[int, int], wins: np.ndarray, attempts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Smallest-first fusion (largest-first with ``greedy``) from
    ``counts`` in every trial of a chunk at once.

    Trial t reads its next win bit at ``wins[t, attempts[t]]``, and
    ``attempts`` is advanced in place. Returns each trial's final total
    length and its number of failed attempts."""
    trials = len(wins)
    total = sum(k * n for k, n in counts.items())
    chain_count = sum(counts.values())
    failures = np.zeros(trials, np.int64)
    if chain_count <= 1:
        return np.full(trials, total, np.int64), failures
    # Column base + sign * k counts the chains of length k, so that the
    # chain to fuse first sits in the leftmost occupied column. The
    # length-0 column collects chains a failure destroys and is cleared
    # after every step. No count ever exceeds the starting chain count.
    base, sign = (total, -1) if greedy else (0, 1)
    width = total + 1
    matrix = np.zeros((trials, width), np.min_scalar_type(chain_count))
    for k, n in counts.items():
        matrix[:, base + sign * k] = n
    column_lengths = base + sign * np.arange(width)
    chains = np.full(trials, chain_count, np.int64)
    finals = np.zeros(trials, np.int64)
    live = np.arange(trials)
    while live.size:
        local = np.arange(live.size)
        present = matrix > 0
        first = present.argmax(1)
        present[local, first] = matrix[local, first] >= 2
        second = present.argmax(1)
        a = base + sign * first
        b = base + sign * second
        at = attempts[live]
        success = wins[live, at]
        attempts[live] = at + 1
        matrix[local, first] -= 1
        matrix[local, second] -= 1
        matrix[local, base + sign * np.where(success, a + b, a - 1)] += 1
        matrix[local, base + sign * np.where(success, 0, b - 1)] += 1
        matrix[:, base] = 0
        failures[live[~success]] += 1
        chains -= np.where(success, 1, (a == 1).astype(np.int64) + (b == 1))
        done = chains <= 1
        if done.any():
            finals[live[done]] = matrix[done] @ column_lengths
            keep = ~done
            matrix, chains, live = matrix[keep], chains[keep], live[keep]
    return finals, failures


def _state_budget(trials: int) -> int:
    """Most states an event table may hold in a run of ``trials``. An
    exploration given up at this size costs 4 to 9 us a state (mostly
    its two fusions), so at most about half a microsecond a trial. The
    run that then plays costs far more: the count matrix 6 us a trial
    or more from 32 pairs up, and the scalar player, the fallback of
    every other strategy, about 50 us a trial from 12 pairs and more
    from larger starts, so a given-up exploration adds about 1 % to it.
    Smaller starts have small tables (570 states from 32 pairs under
    smallest-first). A table that is kept also gets its step table, at
    about 0.6 us a state (2.8 ms for the 4,582 states of smallest-first
    from 64 pairs), under a tenth of its exploration."""
    return trials // 16


# A walk reads four win bits as one little-endian uint32 of their bool
# bytes, attempt i at bit 8i. Times this factor, bit 8i lands on bit
# 24 + i and every cross term below bit 24 or at bit 32 and up, so the
# product shifted right by 24 is the 4-bit step index, attempt i at bit i.
_GATHER_BITS = np.uint32(1 << 24 | 1 << 17 | 1 << 10 | 1 << 3)


class _EventTable(NamedTuple):
    """A strategy's event DAG from one start, state 0. ``succ[i]``
    and ``fail[i]`` number the states after a successful and a failed
    attempt at state ``i``; at a ``terminal`` state the strategy stops,
    both point back to it, and ``final_length`` is its total length.
    ``steps[16 * i + v]`` is four attempts from state ``i`` whose win
    bits are the bits of ``v``, attempt j at bit j (:func:`_step_table`)."""

    succ: np.ndarray
    fail: np.ndarray
    final_length: np.ndarray
    terminal: np.ndarray
    steps: np.ndarray


def _step_table(succ: np.ndarray, fail: np.ndarray, terminal: np.ndarray) -> np.ndarray:
    """The 16 entries a state of the one-attempt table ``succ``/``fail``
    has for the next four win bits: ``after << 6 | taken << 3 | lost``,
    the state after the four attempts, how many of them were taken
    before a terminal state was reached and how many of those failed.
    Terminal states point back to themselves and take no attempt, so
    two doublings of the one-attempt table, each a gather of the table
    by itself, make it."""
    n = len(succ)
    after = np.stack([fail, succ], 1)  # (n, 2): column = the win bit
    # taken << 3 | lost of one attempt: a failure at a live state loses it
    counts = np.where(terminal[:, None], np.uint8(0), np.array([0b1001, 0b1000], np.uint8))
    for _ in range(2):
        # entry lo + hi * width: the first half by lo, then from there by hi
        width = after.shape[1]
        counts = (counts[:, None, :] + counts[after].transpose(0, 2, 1)).reshape(n, width * width)
        after = after[after].transpose(0, 2, 1).reshape(n, width * width)
    # the states numbered by the entries fit uint32 up to 2**26 states
    kind = np.uint32 if n <= 1 << 26 else np.uint64
    return (after.astype(kind) << 6 | counts).reshape(-1)


@_collector_paused()
def _event_table(strategy: Strategy | StatefulStrategy, start: Configuration,
                 budget: int) -> _EventTable | None:
    """The event DAG of ``strategy`` from ``start``, numbered in the
    post-order of :func:`~cluster_forge.exact._explore` and then reversed,
    so that the start is state 0. None once it would hold more than
    ``budget`` states, or when a walk could need more win bits than a
    trial's row holds (the start's process state has more vertices than
    the start). None too at a state that breaks a validity rule or
    cannot be hashed; the scalar player, which runs without a table,
    then raises what it raises, or plays through if no trial reaches
    that state."""
    root = strategy.start(start)
    if root.vertex_count > _draws_bound(start):
        return None
    number: dict = {}
    succ, fail = [], []
    try:
        for state, _, node in _explore(strategy, root, number, budget):
            i = number[state] = len(number)  # a stop points back to itself
            succ.append(i if node is None else number[node[0]])
            fail.append(i if node is None else number[node[2]])
    except (InvalidStrategy, TypeError):  # TypeError: an unhashable state
        return None
    if root not in number:  # the budget cut the exploration short
        return None
    last = len(number) - 1  # post-order number i becomes state last - i
    succ, fail = last - np.array(succ[::-1], np.intp), last - np.array(fail[::-1], np.intp)
    terminal = succ == np.arange(last + 1)
    final_length = np.array([state.total_length for state in reversed(number)], np.int64)
    return _EventTable(succ, fail, final_length, terminal, _step_table(succ, fail, terminal))


def _walk_table(
    table: _EventTable, wins: np.ndarray, attempts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Every trial of a chunk walked through ``table`` from its state 0,
    four attempts per gather of its step table.

    Trial t reads its next win bits from ``wins[t, attempts[t]]`` on,
    and ``attempts`` is advanced in place. Returns each trial's final
    total length and its number of failed attempts.

    A state that is not terminal holds two chains or more, so four
    vertices or more, and every attempt removes a vertex: a trial still
    walked has four win bits or more left in its row. A trial that has
    ended stays on its terminal state, which takes no attempt whatever
    bits it reads, until at least half of the trials still walked have
    ended; then the ended ones are recorded and dropped at once."""
    final_length, terminal, steps = table.final_length, table.terminal, table.steps
    trials, draws = wins.shape
    finals = np.full(trials, final_length[0])
    failures = np.zeros(trials, np.int64)
    if terminal[0]:
        return finals, failures
    # words[j]: the win bits j to j + 3, one per byte
    bits = wins.reshape(-1)
    words = np.ndarray((bits.size - 3,), "<u4", bits, 0, (1,))
    live = np.arange(trials)
    at = live * draws + attempts  # flat index of each live trial's next win bit
    state = np.zeros(trials, steps.dtype)
    lost = np.zeros(trials, np.int64)
    while live.size:
        # only the chunk's last trial, once it has ended, can need the clip
        word = words[np.minimum(at, words.size - 1)]
        word *= _GATHER_BITS
        word >>= 24
        entry = steps[state << 4 | word]
        state = entry >> 6
        at += (entry >> 3) & 7
        lost += entry & 7
        done = terminal[state]
        if 2 * np.count_nonzero(done) < live.size:
            continue
        ended = live[done]
        finals[ended] = final_length[state[done]]
        failures[ended] = lost[done]
        attempts[ended] = at[done] - ended * draws
        keep = ~done
        live, at, state, lost = live[keep], at[keep], state[keep], lost[keep]
    return finals, failures


def _plan(strategy, start: Configuration) -> tuple[Strategy | StatefulStrategy, list, bool | None]:
    """How a chunk plays ``strategy`` from ``start``: ``(explorer, runs,
    greedy)``, the starts of the runs of ``explorer``, played one after
    another, each on its event table, and the count matrix a run without
    a table falls back on, largest-first when ``greedy``, none when
    ``greedy`` is None. A :class:`TwoStage` runs its blocks when its
    inner strategy keeps :class:`Strategy`'s own ``start``, ``choose`` and
    ``step``: its process is then its decisions under the fusion rule, as
    in a block. Exactly :class:`Modesty` and :class:`Greed` have the count
    matrix. Every other strategy is one run of itself."""
    runs = [start]
    if type(strategy) is TwoStage and all(
            getattr(type(strategy.inner), name, None) is getattr(Strategy, name)
            for name in ("start", "choose", "step")):
        strategy, runs = strategy.inner, strategy.blocks(start)
    kind = type(strategy)
    return strategy, runs, kind is Greed if kind in (Modesty, Greed) else None


def _event_tables(strategy, start: Configuration, budget: int) -> dict:
    """The event tables within ``budget`` of the runs of the chunks' plan
    (:func:`_plan`), keyed by the run's start."""
    explorer, runs, _ = _plan(strategy, start)
    tables = {run: _event_table(explorer, run, budget) for run in dict.fromkeys(runs)}
    return {run: table for run, table in tables.items() if table is not None}


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
            x[live] = np.where(success, xs + ys, xs - 1)
            y[live] = np.where(success, 0, ys - 1)
            failures[live[~success]] += 1
            live = live[~success & (xs > 1) & (ys > 1)]
        out[:, i] = x + y
    if m % 2:
        out[:, -1] = lineup[:, -1]
    return _compact(out), failures


def _play_chunk(
    strategy, start: Configuration, wins: np.ndarray, tables: dict | None = None,
) -> np.ndarray | None:
    """Final total length of every trial of a chunk, played from its win
    matrix on arrays by the plan of :func:`_plan` with the run's event
    ``tables`` (see :func:`_event_tables`), or None when the scalar player
    runs it: a run with neither a table nor a count matrix."""
    _, runs, greedy = _plan(strategy, start)
    tables = tables or {}
    trials = len(wins)
    attempts = np.zeros(trials, np.int64)
    failures = np.zeros(trials, np.int64)
    survivors = np.zeros((trials, len(runs)), np.int64)
    for i, run in enumerate(runs):
        table = tables.get(run)
        if table is not None:
            survivors[:, i], lost = _walk_table(table, wins, attempts)
        elif greedy is None:
            return None
        else:
            survivors[:, i], lost = _play_counts(greedy, run.counts(), wins, attempts)
        failures += lost
    # one run leaves one column: nothing to compact, no round to play
    chains = _compact(survivors) if len(runs) > 1 else survivors
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
    strategy, start: Configuration, p: float, seed: int, chunk: int,
    trials_in_chunk: int, threshold: int | None, tables: dict | None = None,
) -> tuple[float, float, int]:
    wins = _chunk_wins(seed, chunk, trials_in_chunk, _draws_bound(start), p)
    finals = _play_chunk(strategy, start, wins, tables)
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
    # built once per run, so no chunk or pool worker builds a table again
    tables = _event_tables(strategy, start, _state_budget(trials))
    n_chunks = (trials + TRIAL_CHUNK - 1) // TRIAL_CHUNK
    jobs = [(strategy, start, p, seed, chunk, min(TRIAL_CHUNK, trials - chunk * TRIAL_CHUNK),
             threshold, tables) for chunk in range(n_chunks)]

    if processes > 1 and n_chunks > 1:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(processes, n_chunks)
        # a forked pool starts every worker up front; map keeps job order
        # and pickles each batch of jobs as one call, so the tables they
        # share are pickled once a batch, and there is one batch a worker
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_chunk_stats, *zip(*jobs), chunksize=-(-n_chunks // workers)))
    else:
        parts = [_chunk_stats(*job) for job in jobs]

    total = 0.0
    total_sq = 0.0
    successes = 0
    for part_total, part_sq, part_succ in parts:
        total += part_total
        total_sq += part_sq
        successes += part_succ

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
    informative for fractions near 0 or 1."""
    if trials <= 0:
        return (0.0, 1.0)
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
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be strictly positive")
    if direction not in ("sufficient", "insufficient"):
        raise ValueError("direction must be 'sufficient' or 'insufficient'")
    sign = 1 if direction == "sufficient" else -1
    rate = 1 / float(alpha) + sign * float(epsilon)
    if rate <= 0:
        raise ValueError("epsilon too large: nonpositive pair budget")
    n_pairs = math.ceil(rate * target_length)
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
