"""Building n x n clusters from linear chains by weaving.

n cross-chains of length m = a n are fused onto a long thread at n sites
each. A failed attempt loses a bounded number of edges without splitting
a chain, so weaving one cross-chain succeeds exactly when n successes
arrive within the m-attempt budget; the per-gate model counts two lost
edges per involved chain per failure, and all lengths here are in those
double-edge units. The whole carpet succeeds when all n cross-chains do.

For a > 1/ps the per-chain probability tends to one fast enough that the
overall success probability does too, giving quadratic total resource
use; for a < 1/ps it collapses to zero instead, with the threshold at
ps = 1/a.

The simulator reproduces the successes of
``rng.binomial(m, ps, (trials, n))`` on a ``Philox(key=seed)`` generator
bit for bit without drawing a binomial. In numpy's inversion regime
(ps m <= 30 for ps <= 1/2, (1 - ps) m <= 30 above) each draw is decided
by one uniform U through a loop that subtracts the probability masses
from U until it falls below the next one. The masses do not depend on U
and IEEE subtraction rounds monotonically, so the draw is a
nondecreasing function of U: whether a chain gets its n successes is a
threshold on U, found once per call by bisection over the 2^53 possible
doubles with the loop rerun in Python, operation for operation. The
trials then need one raw 64-bit word per chain and one integer
comparison: ``rng.random`` would make U = (w >> 11) 2^-53 from the word
w, so U above the grid point j 2^-53 is w > (j << 11) + 2047, exact up
to j = 2^53 - 1, where no word is above. No uniform is ever formed, and
the words are drawn in chunks of 2^16.
Numpy's other sampler (BTPE) takes a varying number of uniforms per
draw, and a draw whose loop passes numpy's bound restarts on a fresh
uniform; there the simulator calls ``rng.binomial`` itself, for every
chunk of trials in the first case and for the chunk holding such a
uniform in the second.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np
from scipy.special._ufuncs import _binom_sf

from .montecarlo import _WORD_BLOCK, _check_seed, wilson_interval


@dataclass(frozen=True)
class WeaveParameters:
    """Cluster side ``n`` (fusion sites per cross-chain), overhead factor
    ``a`` (cross-chain length a n, rounded to the nearest integer), and
    per-attempt success probability ``ps``."""

    n: int
    a: float
    ps: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("cluster side must be at least 1")
        if not self.a > 1:
            raise ValueError("overhead factor must exceed 1")
        if self.a == math.inf:
            raise ValueError("overhead factor must be finite")
        if not math.isfinite(self.a * self.n):
            raise ValueError("cross-chain length a n must be finite")
        if not 0 < self.ps <= 1:
            raise ValueError("success probability must be in (0, 1]")

    @property
    def attempt_budget(self) -> int:
        """Cross-chain length: fusion attempts available per chain."""
        return int(round(self.a * self.n))

    @property
    def thread_length(self) -> int:
        """Length of the single long thread, n (l + 1) with l = m - n."""
        return self.n * (self.attempt_budget - self.n + 1)


def _binomial_tail(params: WeaveParameters) -> float:
    """P(Binomial(m, ps) >= n), unclipped.

    This is the Boost survival function that ``scipy.stats.binom.sf``
    and ``binom.logsf`` evaluate (the budget m is at least n, so the
    point n - 1 is always inside the support), called directly so that
    ``scipy.stats`` is never imported. The public ``scipy.special.bdtrc``
    is a different (Cephes) implementation and differs in the last
    bits; the tests pin equality with ``scipy.stats.binom``.
    """
    return _binom_sf(float(params.n - 1), float(params.attempt_budget), float(params.ps))


def single_chain_weave_probability(params: WeaveParameters) -> float:
    """Probability that one cross-chain accumulates its n successes
    within the attempt budget: the upper tail of Binomial(m, ps) at n,
    evaluated via the regularized-beta survival function."""
    return float(np.clip(_binomial_tail(params), 0.0, 1.0))


def negative_binomial_weave_probability(params: WeaveParameters) -> float:
    """The same probability summed failure-count by failure-count:
    ps^n sum_k (1-ps)^k C(n+k-1, k) over k = 0..m-n, computed exactly in
    rational arithmetic. Cross-check for the tail form."""
    p = Fraction(params.ps)
    n = params.n
    total = Fraction(0)
    for k in range(params.attempt_budget - n + 1):
        total += (1 - p) ** k * math.comb(n + k - 1, k)
    return float(p ** n * total)


def log_overall_success_probability(params: WeaveParameters) -> float:
    """log P with P the probability that all n cross-chains weave in."""
    with np.errstate(divide="ignore"):
        return params.n * float(np.log(_binomial_tail(params)))


def overall_success_probability(params: WeaveParameters) -> float:
    """pi^n, evaluated in log space to survive extreme n."""
    return math.exp(log_overall_success_probability(params))


def hoeffding_bound(params: WeaveParameters) -> float:
    """Certified lower bound on the single-chain probability,
    1 - exp(-2 (m ps - n + 1)^2 / m), valid only for a > 1/ps (so that
    the budget's mean success count exceeds the requirement)."""
    if params.a * params.ps <= 1:
        raise ValueError("bound direction requires a > 1/ps")
    m = params.attempt_budget
    gap = m * params.ps - params.n + 1
    return 1.0 - math.exp(-2.0 * gap * gap / m)


def resource_count(params: WeaveParameters) -> int:
    """Total input edges (double-edge units): n cross-chains of length m
    plus the thread of length n (m - n + 1). Grows like (2a - 1) n^2, so
    quadratically at fixed a; preparing the redundantly encoded fusion
    sites needs a further ~2 n^2 edges on top, a constant factor."""
    return params.n * params.attempt_budget + params.thread_length


@dataclass(frozen=True)
class WeaveReport:
    n: int
    a: float
    ps: float
    trials: int
    seed: int
    successes: int
    fraction: float
    wilson_low: float
    wilson_high: float

    def to_dict(self) -> dict:
        return asdict(self)


# Weave trials are drawn in chunks of this many raw words (512 KB), or of
# one trial when n is larger, so memory does not grow with trials.
_CHUNK_VALUES = _WORD_BLOCK

# Philox doubles are j / 2**53 for 0 <= j < 2**53, from the words
# j << 11 to (j << 11) + 2047.
_UNIFORM_GRID = 2 ** 53

_INT64_MAX = 2 ** 63 - 1


def _inversion_draw(m: int, p: float, u: float) -> int:
    """Binomial(m, p) as numpy's ``random_binomial_inversion`` draws it
    from the uniform ``u``, operation for operation (its first mass is
    exp(m log1p(-p)), not (1 - p)^m), or m + 1 where numpy would restart
    on a fresh uniform because the loop passed its bound."""
    q = 1.0 - p
    px = math.exp(m * math.log1p(-p))
    bound = int(min(m, m * p + 10.0 * math.sqrt(m * p * q + 1)))
    x = 0
    while u > px:
        x += 1
        if x > bound:
            return m + 1
        u -= px
        px = ((m - x + 1) * p * px) / (x * q)
    return x


def _last_below(m: int, p: float, k: int) -> int:
    """The largest j whose uniform j / 2^53 has an inversion draw below k
    (k >= 1, so j = 0, which draws 0, is one). The draw is monotone in
    u, so bisection finds it."""
    lo, hi = 0, _UNIFORM_GRID
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _inversion_draw(m, p, mid / _UNIFORM_GRID) < k:
            lo = mid
        else:
            hi = mid
    return lo


def _last_word(j: int) -> int:
    """The largest raw word whose uniform is at most j / 2^53: a word is
    above that uniform exactly when it is above this one."""
    return (j << 11) | 0x7FF


def _threshold_counter(m: int, n: int, ps: float):
    """A function from a (rows, n) array of the generator's raw words to
    the number of rows in which every ``rng.binomial(m, ps)`` draw would
    reach n, or to None if one of them would restart. None where numpy
    samples by BTPE instead of inversion."""
    if ps <= 0.5:
        p, below = ps, n  # success: draw >= n, every u above the cut
    else:
        # numpy draws m - Inv(m, 1 - ps); success: Inv < m - n + 1,
        # every u at or below the cut
        p, below = 1.0 - ps, m - n + 1
    if p * m > 30.0:
        return None
    cut = np.uint64(_last_word(_last_below(m, p, below)))
    guard = _last_word(_last_below(m, p, m + 1))

    def count(words: np.ndarray) -> int | None:
        if int(words.max()) > guard:
            return None
        won = words > cut if ps <= 0.5 else words <= cut
        return int(won.all(axis=1).sum())

    return count


def _weave_successes(rng: np.random.Generator, params: WeaveParameters, trials: int) -> int:
    """``(rng.binomial(m, ps, (trials, n)) >= n).all(1).sum()``, drawn in
    chunks, by threshold wherever numpy would draw by inversion."""
    m, n = params.attempt_budget, params.n
    counter = _threshold_counter(m, n, params.ps)
    rows = max(1, _CHUNK_VALUES // n)
    successes = 0
    for start in range(0, trials, rows):
        size = (min(rows, trials - start), n)
        if counter is not None:
            state = rng.bit_generator.state
            hits = counter(rng.bit_generator.random_raw(size))
            if hits is not None:
                successes += hits
                continue
            rng.bit_generator.state = state
        counts = rng.binomial(m, params.ps, size=size)
        successes += int((counts >= n).all(axis=1).sum())
    return successes


def simulate_weave(params: WeaveParameters, trials: int, seed: int) -> WeaveReport:
    """Monte Carlo of the per-chain counting model: each cross-chain
    draws Bernoulli(ps) attempts until n successes or the budget runs
    out; a trial succeeds when every chain does.

    Stopping early never changes whether n successes fit in the budget,
    so each chain is one Binomial(m, ps) draw, and the successes equal
    ``(rng.binomial(m, ps, (trials, n)) >= n).all(1).sum()`` on
    ``Philox(key=seed)`` bit for bit. Where numpy draws those by
    inversion, one uniform per chain is compared with a threshold
    instead, as an integer comparison of the raw word that numpy would
    turn into that uniform: numpy's loop only subtracts from the
    uniform, and rounded subtraction is monotone, so reaching n
    successes is a threshold event on the uniform's 2^53 grid. A chunk
    in which some uniform
    would make numpy restart is redrawn with ``rng.binomial`` from the
    generator state before it, as is every chunk in the BTPE regime.
    Chunks are taken from the one generator in order, so the count does
    not depend on their size."""
    if trials < 1:
        raise ValueError("need at least one trial")
    _check_seed(seed)
    if params.attempt_budget > _INT64_MAX:
        # numpy's binomial takes an int64 count
        raise ValueError("attempt budget a n must be at most 2**63 - 1 to simulate")
    rng = np.random.Generator(np.random.Philox(key=seed))
    successes = _weave_successes(rng, params, trials)
    low, high = wilson_interval(successes, trials)
    return WeaveReport(
        n=params.n,
        a=params.a,
        ps=params.ps,
        trials=trials,
        seed=seed,
        successes=successes,
        fraction=successes / trials,
        wilson_low=low,
        wilson_high=high,
    )


@dataclass(frozen=True)
class ScanPoint:
    a: float
    ps: float
    n: int
    single_chain: float
    overall: float
    log_overall: float


@dataclass(frozen=True)
class PercolationScan:
    """Overall success probabilities over a (a or ps) grid and a list of
    cluster sides, with the per-point trend in n and the empirical
    crossover bracket around the analytic threshold."""

    points: tuple[ScanPoint, ...]
    trends: dict[tuple[float, float], str]
    threshold: float
    bracket_low: float | None
    bracket_high: float | None

    @property
    def bracket_contains_threshold(self) -> bool | None:
        if self.bracket_low is None or self.bracket_high is None:
            return None
        return self.bracket_low < self.threshold < self.bracket_high


def _trend(log_values: list[float]) -> str:
    if len(log_values) < 2:
        return "degenerate"
    diffs = [b - a for a, b in zip(log_values, log_values[1:])]
    if all(d >= 0 for d in diffs) and log_values[-1] > log_values[0]:
        return "increasing"
    if all(d <= 0 for d in diffs) and log_values[-1] < log_values[0]:
        return "decreasing"
    if all(d == 0 for d in diffs):
        return "flat"
    return "mixed"


def percolation_scan(
    n_values: list[int],
    a: float | None = None,
    ps: float | None = None,
    a_values: list[float] | None = None,
    ps_values: list[float] | None = None,
) -> PercolationScan:
    """Scan ps at fixed a (pass ``a`` and ``ps_values``) or a at fixed ps
    (pass ``ps`` and ``a_values``). Grid points sitting exactly on the
    threshold are labeled ``critical`` and excluded from the bracket; a
    single-entry n list yields ``degenerate`` trends and no bracket."""
    if (a is None) == (ps is None):
        raise ValueError("fix exactly one of a and ps")
    if a is not None:
        if not ps_values:
            raise ValueError("scanning ps requires ps_values")
        grid = [(a, p, p) for p in ps_values]
    else:
        if not a_values:
            raise ValueError("scanning a requires a_values")
        grid = [(av, ps, av) for av in a_values]

    if not n_values:
        raise ValueError("need at least one cluster side")
    ns = sorted(n_values)
    points: list[ScanPoint] = []
    trends: dict[tuple[float, float], str] = {}
    below: list[float] = []
    above: list[float] = []
    # (a, ps, the scanned value) of each grid point
    for av, pv, var in grid:
        logs = []
        for n in ns:
            params = WeaveParameters(n=n, a=av, ps=pv)
            lo = log_overall_success_probability(params)
            logs.append(lo)
            points.append(
                ScanPoint(
                    a=av, ps=pv, n=n,
                    single_chain=single_chain_weave_probability(params),
                    overall=math.exp(lo),
                    log_overall=lo,
                )
            )
        trend = "critical" if av * pv == 1.0 else _trend(logs)
        trends[(av, pv)] = trend
        if trend == "decreasing":
            below.append(var)
        elif trend == "increasing":
            above.append(var)

    bracket_low = max(below) if below else None
    bracket_high = min(above) if above else None
    return PercolationScan(
        points=tuple(points),
        trends=trends,
        # every grid point passed WeaveParameters, so the fixed value is positive
        threshold=1.0 / (ps if a is None else a),
        bracket_low=bracket_low,
        bracket_high=bracket_high,
    )
