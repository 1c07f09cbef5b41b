"""Rigorous lower and upper bounds on the optimal quality.

Lower bounds come from explicit constructions: any computed strategy
performance is one, and block constructions extend small exact values to
arbitrary input sizes at a linear rate. Upper bounds come from the razor
model, a relaxation in which chains are capped at length R after every
step. Capping only removes edges, and fewer edges never demand more
fusion attempts, so the razor model's minimal expected attempt count
lower-bounds the true one; the edge-loss identity then turns it into an
upper bound on quality: quality <= N - attempts at success probability
one half. The R = 2 razor model reduces further to a three-action walk
on a quarter-plane whose attempt count is bounded by a tiny linear
program, whose optimum is a closed form proven here by an explicit,
checked primal/dual certificate.

Exact answers stay Fractions, but the razor model and the smallest-first
sweep behind the lower bounds do their arithmetic on integer-scaled
values in :mod:`cluster_forge.exact`, and the LP certificate is checked
on ints over the lcm of its denominators. This module has no DP of its own:
the razor model is the optimal-table engine run with a cap of R on the
chain length, and the sweep goes through
:func:`~cluster_forge.exact.strategy_quality_range`. A sweep over sizes
reads every size from the one razor DP for the largest
(:func:`razor_quality_range`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .exact import HALF, _check_ps, _optimize, strategy_quality_range
from .strategies import MODESTY


class CertificateMismatch(RuntimeError):
    """A closed form and its optimality certificate disagree; indicates a bug."""


class HypothesisViolated(ValueError):
    """A bound's verified precondition failed for the supplied data."""

    def __init__(self, message: str, failing: list[int]):
        super().__init__(message)
        self.failing = failing


# ---------------------------------------------------------------------------
# razor model


def razor_quality(n: int, r: int, ps=HALF) -> tuple[Fraction, Fraction]:
    """Optimal quality and minimal expected attempts in the razor model.

    With r >= n no chain is ever capped and both numbers match the full
    problem. Bound claims are made at ps = 1/2 only; other values are
    informational.

    The razor model is the optimal strategy's own recursion with a
    merged chain cut to length r, so it runs on the engine of
    :func:`~cluster_forge.exact.build_quality_table` with ``cap = r``:
    one pass maximises quality and minimises attempts over capped count
    codes and integer-scaled values (see :func:`~cluster_forge.exact._optimize`).
    """
    return razor_quality_range([n], r, ps)[n]


def razor_quality_range(ns: Iterable[int], r: int, ps=HALF) -> dict[int, tuple]:
    """``{n: razor_quality(n, r, ps)}`` for each n in ``ns``, read from the
    one razor DP for the largest n.

    That DP holds every start of m <= n pairs. Its value there is the
    m-pair DP's: a cap of at least m cuts no chain of at most m edges,
    so both run the same recursion with the same arithmetic.
    """
    if r < 2:
        raise ValueError("razor parameter must be at least 2")
    ns = list(ns)
    if ns and min(ns) < 0:
        raise ValueError(f"razor size must be at least 0, got {min(ns)}")
    n = max(ns, default=0)
    # no chain is longer than n, so a larger cap changes nothing
    _, _, starts = _optimize(n, ps, min(r, n), attempts=True)
    return {m: starts[m] for m in ns}


def razor_upper_bound(n: int, r: int) -> Fraction:
    """Upper bound on the optimal quality of n EPR pairs: n minus the
    razor model's minimal expected attempts, at ps = 1/2."""
    _, attempts = razor_quality(n, r, HALF)
    return n - attempts


# ---------------------------------------------------------------------------
# the R = 2 linear program


@dataclass(frozen=True)
class LinearProgramInstance:
    """min cost . x  subject to  x matrix <= rhs, x >= 0 (x in R^3).

    The matrix rows are the mean displacement vectors of the three
    available moves in the R = 2 state space (fuse 1+1, 1+2, 2+2); the
    right-hand side encodes that any play from (n, 0) must end within
    distance one of the origin.
    """

    cost: tuple[Fraction, ...]
    matrix: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]

    @classmethod
    def for_pairs(cls, n: int) -> "LinearProgramInstance":
        return cls(cost=_UNIT_COSTS, matrix=_MOVES, rhs=(Fraction(1 - n), Fraction(1)))


# the cost and mean displacement of each move, the same for every n
_UNIT_COSTS = (Fraction(1), Fraction(1), Fraction(1))
_MOVES = (
    (Fraction(-2), Fraction(1, 2)),
    (Fraction(-1, 2), Fraction(-1, 2)),
    (Fraction(1), Fraction(-3, 2)),
)


def lp_closed_form(n: int) -> Fraction:
    if n < 1:
        raise ValueError("need at least one pair")
    if n == 1:
        return Fraction(0)
    if n <= 5:
        return Fraction(n - 1, 2)
    return Fraction(4 * (n - 1) - 6, 5)


def lp_certificate(n: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Primal and dual solutions that certify the closed form."""
    if n == 1:
        return (Fraction(0),) * 3, (Fraction(0),) * 2
    if n <= 5:
        return (
            (Fraction(n - 1, 2), Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(0)),
        )
    return (
        (Fraction(2 * n, 5), Fraction(2 * n - 10, 5), Fraction(0)),
        (Fraction(4, 5), Fraction(6, 5)),
    )


def lp_attempts_bound(n: int) -> Fraction:
    """Lower bound on the expected attempts of any R = 2 razor strategy
    on n pairs: the closed form, certified by an explicit primal/dual
    pair that are feasible for their respective programs and whose
    objectives coincide with it, which proves it the optimum. Every
    check raises :class:`CertificateMismatch`, also under ``python -O``.

    The checks run on ints: the instance's cost, matrix and rhs, the
    closed form and both certificates are scaled by the lcm d of all
    their denominators, so a product of two scaled numbers is over d**2.
    """
    instance = LinearProgramInstance.for_pairs(n)
    closed = lp_closed_form(n)
    x, y = lp_certificate(n)
    parts = (instance.cost, *instance.matrix, instance.rhs, x, y, (closed,))
    d = math.lcm(*(v.denominator for part in parts for v in part))
    cost, *matrix, rhs, x, y, (target,) = [
        [v.numerator * (d // v.denominator) for v in part] for part in parts]

    if any(v < 0 for v in x):
        raise CertificateMismatch(f"primal certificate not nonnegative for N={n}")
    for j in range(2):
        lhs = sum(x[i] * matrix[i][j] for i in range(3))
        if lhs > rhs[j] * d:
            raise CertificateMismatch(f"primal certificate infeasible for N={n}")
    if any(v < 0 for v in y):
        raise CertificateMismatch(f"dual certificate not nonnegative for N={n}")
    for i in range(3):
        lhs = -sum(y[j] * matrix[i][j] for j in range(2))
        if lhs > cost[i] * d:
            raise CertificateMismatch(f"dual certificate infeasible for N={n}")

    primal_value = sum(c * v for c, v in zip(cost, x))
    dual_value = -sum(b * v for b, v in zip(rhs, y))
    if not (primal_value == dual_value == target * d):
        raise CertificateMismatch(
            f"objective mismatch for N={n}: primal={Fraction(primal_value, d * d)} "
            f"dual={Fraction(dual_value, d * d)} closed={closed}"
        )
    return closed


def analytic_upper_bound(n: int) -> Fraction:
    """Quality of n pairs is at most n/5 + 2, for n >= 6: quality is n
    minus the expected attempts at ps = 1/2, and those are at least the
    certified LP bound (:func:`lp_attempts_bound`)."""
    if n < 6:
        raise ValueError(
            "the n/5 + 2 bound needs n >= 6; use lp_attempts_bound for the small cases"
        )
    return n - lp_attempts_bound(n)


# ---------------------------------------------------------------------------
# lower bounds from constructions


def combine_lower_bound(parts: Iterable[Fraction]) -> Fraction:
    """Quality bound for processing k groups independently and then
    fusing the resulting chains insistently: sum of the per-group bounds
    minus 2 (k - 1)."""
    values = list(parts)
    if not values:
        raise ValueError("need at least one part")
    return sum(values) - 2 * (len(values) - 1)


def modesty_quality_range(max_n: int, ps=HALF) -> dict[int, Fraction]:
    """Exact smallest-first quality for every start of 1..max_n pairs,
    sharing one memo across the whole sweep."""
    return strategy_quality_range(MODESTY, range(1, max_n + 1), ps)


def modesty_lower_bound(
    n: int, n0: int, values: Mapping[int, Fraction], step: int = 1
) -> Fraction:
    """Linear lower bound on the optimal quality of n pairs, n >= n0,
    anchored at exact data: values[n0] + alpha (n - n0) with
    alpha = (values[n0] - 2) / n0.

    ``values`` must supply the exact smallest-first quality on the
    checked range n0..2 n0 and satisfy (values[m] - 2)/m >= alpha there;
    the hypothesis is checked and a violation reported with the failing
    sizes. With ``step=2`` only sizes of the anchor's parity are checked
    and covered: the block decomposition then never needs an off-parity
    size, but ``n`` must share the anchor's parity. (Large anchors need
    this: quality has parity steps, so odd sizes sag below a slope fitted
    at an even anchor.)
    """
    if n0 < 1:
        raise ValueError(f"the anchor n0 must be at least 1, got {n0}")
    if n < n0:
        raise ValueError(f"bound is valid for n >= n0 = {n0}")
    if step not in (1, 2):
        raise ValueError("step must be 1 or 2")
    if step == 2 and n0 % 2:
        raise ValueError("step=2 needs an even anchor so all block sizes share its parity")
    if (n - n0) % step:
        raise ValueError(f"with step={step}, n must have the anchor's parity")
    checked = range(n0, 2 * n0 + 1, step)
    missing = [m for m in checked if m not in values]
    if missing:
        raise ValueError(f"need exact values for all of {n0}..{2 * n0}; missing {missing}")
    alpha = (Fraction(values[n0]) - 2) / n0
    failing = [m for m in checked if (Fraction(values[m]) - 2) / m < alpha]
    if failing:
        raise HypothesisViolated(
            f"(value - 2)/m >= alpha fails for m in {failing}", failing
        )
    return Fraction(values[n0]) + alpha * (n - n0)


def static_lower_bound(n: int) -> Fraction:
    """Yield bound for the block-then-insistent-pairing strategy at
    n = 2**(3+m) input pairs: (137/2048) n + 2."""
    if n < 8 or n & (n - 1):
        raise ValueError(f"bound is stated for n = 2**(3+m), got {n}")
    return Fraction(137, 2048) * n + 2


def general_ps_initial_length(ps) -> Fraction | float:
    """Chain length above which insistent pairwise combination grows the
    total linearly, for a gate of success probability ps: 2 (1 - ps)/ps."""
    _check_ps(ps)
    return 2 * (1 - ps) / ps


def _check_rate(alpha, epsilon) -> None:
    """A ValueError naming ``alpha`` or ``epsilon`` unless both are finite
    and positive."""
    if epsilon <= 0:
        raise ValueError("epsilon must be strictly positive")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    for name, value in (("alpha", alpha), ("epsilon", epsilon)):
        # NaN passes the comparisons above, and an infinite one is no rate
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _pair_budget(target_length, alpha, epsilon, sign: int):
    """(1/alpha + sign * epsilon) * target_length pairs, for a rate that
    :func:`_check_rate` passed; a ValueError when the pairs per edge are
    not positive."""
    rate = 1 / alpha + sign * epsilon
    if rate <= 0:
        raise ValueError("epsilon too large: nonpositive pair budget")
    return rate * target_length


def inverse_resource_bounds(target_length, alpha, epsilon) -> tuple:
    """Pair counts that asymptotically suffice / cannot suffice to reach
    ``target_length`` with probability approaching one, given a linear
    rate alpha: ((1/alpha + eps) L, (1/alpha - eps) L). Requires
    eps > 0: both statements need strict headroom.

    ``target_length`` (finite and positive, not necessarily whole),
    ``alpha`` and ``epsilon`` are checked before anything is computed,
    each by a ValueError that names it, and a budget that is not
    positive (eps >= 1/alpha) raises. Both counts come from
    :func:`_pair_budget`, which also sets the pairs of
    :func:`cluster_forge.montecarlo.threshold_experiment`."""
    if not (target_length > 0 and math.isfinite(target_length)):
        raise ValueError(f"target_length must be finite and positive, got {target_length!r}")
    _check_rate(alpha, epsilon)
    return tuple(_pair_budget(target_length, alpha, epsilon, sign) for sign in (1, -1))


# ---------------------------------------------------------------------------
# largest-first closed forms


def greed_closed_form(n: int) -> Fraction:
    """Exact expected final length of largest-first fusing of n pairs at
    success probability one half: twice the reflected-walk tail sum."""
    if n < 1:
        raise ValueError("need at least one pair")
    scale = Fraction(2, 2 ** n)
    return scale * sum(math.comb(n, k) * (n - 2 * k) for k in range((n - 1) // 2 + 1))


def greed_closed_form_float(n: int) -> float:
    """Log-space evaluation of the same sum, usable for very large n."""
    if n < 1:
        raise ValueError("need at least one pair")
    log2 = math.log(2.0)
    terms = []
    for k in range((n - 1) // 2 + 1):
        terms.append(
            (1 - n) * log2
            + math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + math.log(n - 2 * k)
        )
    peak = max(terms)
    return math.exp(peak) * sum(math.exp(t - peak) for t in terms)


def greed_asymptotic(n: int) -> float:
    """Leading asymptotic of the largest-first yield: sqrt(2 n / pi)."""
    return math.sqrt(2 * n / math.pi)
