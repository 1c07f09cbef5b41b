"""One differential oracle over random strategies: every walker returns
the same value or raises the same ``(start, event, message)``.

Random :class:`LookupStrategy` tables over every configuration of at
most 8 edges, most entries valid and the rest missing keys, premature
stops and absent pairs, are run from every start of at most 7 edges at
ps 1/3, with their :class:`IdentityAdapter`; so are random
:class:`StatefulStrategy` rules that fuse chain indices and remember the
last outcome, most decisions valid and the rest missing keys, premature
stops, equal indices and out-of-range indices. The walkers are the
validity sweep, the exact evaluation, the event-tree oracle, and Monte
Carlo on the array engine against the scalar player trial by trial.
"""

import random
from fractions import Fraction
from unittest import mock

from hypothesis import given, seed, settings, strategies as st

from cluster_forge import montecarlo
from cluster_forge.configuration import STOP, Fuse, canonical_key, enumerate_configurations
from cluster_forge.exact import event_tree_oracle, strategy_quality
from cluster_forge.montecarlo import estimate_quality
from cluster_forge.strategies import (
    IdentityAdapter,
    InvalidStrategy,
    LookupStrategy,
    StatefulStrategy,
    validate_strategy,
)

CONFIGS = list(enumerate_configurations(8))
STARTS = [config for config in CONFIGS if config.total_length <= 7]
PS = Fraction(1, 3)
TRIALS = 64

# An entry's kind, mostly valid, so that some strategies are valid from
# some starts and others break deep in the event tree.
KINDS = ["valid"] * 12 + ["missing", "stop", "absent"]


def absent_pairs(config):
    """Every length pair of a fusion in at most 8 edges that ``config``
    does not hold."""
    present = set(config.fusion_pairs())
    return [(a, b) for a in range(1, 5) for b in range(a, 9 - a) if (a, b) not in present]


@st.composite
def lookup_tables(draw):
    table = {}
    for config in CONFIGS:
        kind = draw(st.sampled_from(KINDS))
        pairs = list(config.fusion_pairs())
        if kind == "valid":
            table[canonical_key(config)] = Fuse(*draw(st.sampled_from(pairs))) if pairs else STOP
        elif kind == "stop":
            table[canonical_key(config)] = STOP
        elif kind == "absent":
            table[canonical_key(config)] = Fuse(*draw(st.sampled_from(absent_pairs(config))))
    return table


# A stateful decision's kind, mostly valid.
STATEFUL_KINDS = ["valid"] * 16 + ["missing", "stop", "equal", "out-of-range"]


class RandomStateful(StatefulStrategy):
    """Fuses chain indices drawn by ``random.Random`` seeded with the text
    of (seed, lineup, memory), so that a decision is a fixed function of
    them and no ``str`` hash is involved. The memory is the last outcome."""

    name = "random-stateful"

    def __init__(self, seed: int):
        self.seed = seed

    def initial_memory(self, chains):
        return ""

    def decide(self, chains, memory):
        lineup = chains.chains
        n = len(lineup)
        rng = random.Random(f"{self.seed}/{lineup}/{memory}")
        kind = rng.choice(STATEFUL_KINDS)
        if kind == "valid":
            return Fuse(*rng.sample(range(n), 2)) if n >= 2 else STOP
        if kind == "missing":
            raise KeyError(f"no decision for {lineup} after {memory!r}")
        if kind == "stop":
            return STOP
        i = rng.randrange(max(n, 1))
        return Fuse(i, i) if kind == "equal" else Fuse(i, n + rng.randrange(2))

    def next_memory(self, chains, memory, action, outcome, result):
        return outcome


def outcome(call):
    """``("value", value)``, or ``("error", start, event, message)`` of the
    InvalidStrategy that ``call`` raises."""
    try:
        return "value", call()
    except InvalidStrategy as exc:
        return "error", exc.start, exc.event, exc.message


def scalar_estimate(*args):
    """estimate_quality with every chunk played by the scalar player."""
    with mock.patch.object(montecarlo, "_play_chunk", lambda *chunk_args: None):
        return estimate_quality(*args)


def walkers(strategy, start, mc_seed):
    """What each walker gives ``strategy`` from ``start``."""
    error = validate_strategy(strategy, start)
    return {
        "validate": ("value", None) if error is None else (
            "error", error.start, error.event, error.message),
        "quality": outcome(lambda: strategy_quality(strategy, start, PS)),
        "oracle": outcome(lambda: event_tree_oracle(strategy, start, PS).mean_length),
        "arrays": outcome(lambda: estimate_quality(strategy, start, PS, TRIALS, mc_seed)),
        "scalar": outcome(lambda: scalar_estimate(strategy, start, PS, TRIALS, mc_seed)),
    }


def assert_walkers_agree(found, start):
    verdict = found["validate"]
    if verdict[0] == "error":
        # the evaluation and the oracle reject the strategy as the sweep does
        assert found["quality"] == found["oracle"] == verdict, start
    else:
        assert found["quality"] == found["oracle"], start
    # Monte Carlo on arrays is the scalar player's, value or error
    assert found["arrays"] == found["scalar"], start
    if found["arrays"][0] == "error":
        # a trial meets only a rule that the sweep finds from that start
        assert verdict[0] == "error", start


@seed(20260)
@settings(max_examples=25, deadline=None)
@given(table=lookup_tables(), mc_seed=st.integers(0, 2 ** 32 - 1))
def test_every_walker_agrees_on_random_lookup_strategies(table, mc_seed):
    strategy = LookupStrategy(table, "random")
    adapter = IdentityAdapter(strategy)
    for start in STARTS:
        plain = walkers(strategy, start, mc_seed)
        # the adapter's states are identity chains, its answers the same
        assert walkers(adapter, start, mc_seed) == plain, start
        assert_walkers_agree(plain, start)


@seed(20261)
@settings(max_examples=25, deadline=None)
@given(strategy_seed=st.integers(0, 2 ** 32 - 1), mc_seed=st.integers(0, 2 ** 32 - 1))
def test_every_walker_agrees_on_random_stateful_strategies(strategy_seed, mc_seed):
    strategy = RandomStateful(strategy_seed)
    for start in STARTS:
        assert_walkers_agree(walkers(strategy, start, mc_seed), start)
