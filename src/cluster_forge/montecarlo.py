"""Seeded stochastic simulation of fusion strategies.

Randomness comes from the counter-based Philox generator. Trials are
grouped into fixed chunks of :data:`TRIAL_CHUNK`; chunk ``c`` draws from
the substream ``Philox(key=seed, counter=c << 128)``, and trial ``t``
consumes row ``t % TRIAL_CHUNK`` of that chunk's uniform block. Every
trial therefore has its own reproducible stream regardless of execution
order, so parallel runs aggregate to bit-identical results.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .configuration import (
    FAILURE,
    SUCCESS,
    Configuration,
    IdentityConfiguration,
    Stop,
    canonical_key,
)
from .strategies import MODESTY, StatefulStrategy, Strategy, TwoStage

TRIAL_CHUNK = 4096


def _chunk_uniforms(seed: int, chunk: int, trials_in_chunk: int, draws: int) -> np.ndarray:
    bitgen = np.random.Philox(key=seed, counter=chunk << 128)
    return np.random.Generator(bitgen).random((trials_in_chunk, draws))


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


def _play_anonymous(strategy: Strategy, start: Configuration, ps: float, row) -> tuple[dict, int]:
    counts = start.counts()
    edges = start.total_length
    attempts = 0
    while True:
        action = strategy.decide_counts(counts)
        if isinstance(action, Stop):
            _check_edges(strategy, sum(k * n for k, n in counts.items()), edges)
            return counts, attempts
        a, b = action.a, action.b
        success = row[attempts] < ps
        attempts += 1
        counts[a] -= 1
        counts[b] = counts.get(b, 0) - 1
        if success:
            counts[a + b] = counts.get(a + b, 0) + 1
        else:
            if a > 1:
                counts[a - 1] = counts.get(a - 1, 0) + 1
            if b > 1:
                counts[b - 1] = counts.get(b - 1, 0) + 1
            edges -= 2
        for k in (a, b):
            if counts.get(k) == 0:
                del counts[k]


def _play_identity(strategy: StatefulStrategy, start: Configuration, ps: float, row) -> tuple[tuple, int]:
    chains = IdentityConfiguration.from_configuration(start)
    memory = strategy.initial_memory(chains)
    edges = chains.total_length
    attempts = 0
    while True:
        action = strategy.decide(chains, memory)
        if isinstance(action, Stop):
            _check_edges(strategy, chains.total_length, edges)
            return chains.chains, attempts
        outcome = SUCCESS if row[attempts] < ps else FAILURE
        attempts += 1
        nxt = chains.fuse_at(action.a, action.b, outcome)
        memory = strategy.next_memory(chains, memory, action, outcome, nxt)
        chains = nxt
        if outcome == FAILURE:
            edges -= 2


def simulate_run(
    strategy: Strategy | StatefulStrategy,
    start: Configuration,
    ps,
    seed: int,
    trial_index: int = 0,
) -> Configuration:
    """Sample one trajectory and return the final configuration."""
    p = float(ps)
    chunk, offset = divmod(trial_index, TRIAL_CHUNK)
    rows = _chunk_uniforms(seed, chunk, offset + 1, _draws_bound(start))
    if strategy.stateful:
        chains, _ = _play_identity(strategy, start, p, rows[offset])
        return Configuration.from_lengths(chains)
    counts, _ = _play_anonymous(strategy, start, p, rows[offset])
    return Configuration.from_counts(counts)


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


def _chunk_stats(
    strategy, start: Configuration, p: float, seed: int, chunk: int,
    trials_in_chunk: int, threshold: int | None,
) -> tuple[float, float, int]:
    draws = _draws_bound(start)
    rows = _chunk_uniforms(seed, chunk, trials_in_chunk, draws)
    total = 0.0
    total_sq = 0.0
    successes = 0
    if strategy.stateful:
        for t in range(trials_in_chunk):
            chains, _ = _play_identity(strategy, start, p, rows[t])
            final = sum(chains)
            total += final
            total_sq += final * final
            if threshold is not None and final >= threshold:
                successes += 1
    else:
        for t in range(trials_in_chunk):
            counts, _ = _play_anonymous(strategy, start, p, rows[t])
            final = sum(k * n for k, n in counts.items())
            total += final
            total_sq += final * final
            if threshold is not None and final >= threshold:
                successes += 1
    return total, total_sq, successes


def _chunk_stats_args(args) -> tuple[int, tuple[float, float, int]]:
    index, rest = args
    return index, _chunk_stats(*rest)


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
    length reaches it. The aggregate is independent of ``processes``."""
    if trials < 1:
        raise ValueError("need at least one trial")
    p = float(ps)
    n_chunks = (trials + TRIAL_CHUNK - 1) // TRIAL_CHUNK
    jobs = []
    for chunk in range(n_chunks):
        in_chunk = min(TRIAL_CHUNK, trials - chunk * TRIAL_CHUNK)
        jobs.append((chunk, (strategy, start, p, seed, chunk, in_chunk, threshold)))

    if processes > 1 and n_chunks > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            parts = dict(pool.map(_chunk_stats_args, jobs))
        ordered = [parts[c] for c in range(n_chunks)]
    else:
        ordered = [_chunk_stats(*rest) for _, rest in jobs]

    total = 0.0
    total_sq = 0.0
    successes = 0
    for part_total, part_sq, part_succ in ordered:
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


def two_stage_strategy(block_size: int, inner: Strategy | None = None) -> TwoStage:
    """Process blocks of ``block_size`` pairs with ``inner`` (smallest
    first by default), then combine the survivors by rounds of insistent
    pairwise fusion. ``block_size=8`` with the default inner strategy is
    exactly the built-in static strategy."""
    return TwoStage(block_size=block_size, inner=inner if inner is not None else MODESTY)


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
    strategy = two_stage_strategy(block_size)
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
