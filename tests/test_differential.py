"""One differential oracle over random strategies: every walker returns
the same value or raises the same ``(start, event, message)``.

Random :class:`LookupStrategy` tables over every configuration of at
most 8 edges, most entries valid and the rest missing keys, premature
stops and absent pairs, are run from every start of at most 7 edges at
ps 1/3, with their :class:`IdentityAdapter`. The walkers are the
validity sweep, the exact evaluation, the event-tree oracle, and Monte
Carlo on the array engine against the scalar player trial by trial.
"""

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
        verdict = plain["validate"]
        if verdict[0] == "error":
            # the evaluation and the oracle reject the strategy as the sweep does
            assert plain["quality"] == plain["oracle"] == verdict, start
        else:
            assert plain["quality"] == plain["oracle"], start
        # Monte Carlo on arrays is the scalar player's, value or error
        assert plain["arrays"] == plain["scalar"], start
        if plain["arrays"][0] == "error":
            # a trial meets only a rule that the sweep finds from that start
            assert verdict[0] == "error", start
