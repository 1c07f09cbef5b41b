import gc
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluster_forge.configuration import (
    FAILURE,
    STOP,
    SUCCESS,
    Configuration,
    Fuse,
    IdentityConfiguration,
    InvalidFusionError,
    Stop,
    enumerate_configurations,
    parse_key,
)
from cluster_forge import montecarlo
from cluster_forge.exact import event_tree_oracle, expected_attempts, strategy_quality
from cluster_forge.montecarlo import TRIAL_CHUNK, estimate_quality, simulate_run
from cluster_forge.strategies import (
    BUILTIN_STRATEGIES,
    GREED,
    MODESTY,
    STATIC,
    IdentityAdapter,
    InvalidStrategy,
    LookupStrategy,
    ProcessState,
    StatefulStrategy,
    Strategy,
    TwoStage,
    validate_strategy,
    validate_strategy_sweep,
)


class TestGreed:
    def test_fuses_two_largest(self):
        assert GREED.decide(Configuration.from_lengths([3, 2, 1])) == Fuse(3, 2)

    def test_equal_lengths_allowed_with_multiplicity(self):
        assert GREED.decide(Configuration.from_lengths([2, 2])) == Fuse(2, 2)

    def test_stops_on_single_chain(self):
        assert GREED.decide(Configuration.single_chain(5)) == STOP


class TestModesty:
    def test_fuses_two_smallest(self):
        assert MODESTY.decide(Configuration.from_lengths([3, 2, 1])) == Fuse(1, 2)

    def test_pairs_first(self):
        assert MODESTY.decide(Configuration.epr_pairs(4)) == Fuse(1, 1)

    def test_stops_on_empty(self):
        assert MODESTY.decide(Configuration()) == STOP


@given(lengths=st.lists(st.integers(1, 6), max_size=12))
def test_count_rules_equal_the_plain_rule(lengths):
    """Greed and Modesty decide from the sorted items as the plain rule on
    the count dict does: the two largest (smallest) chains, a length
    twice when it has two chains."""
    config = Configuration.from_lengths(lengths)
    counts = config.counts()
    for strategy, pick in ((GREED, max), (MODESTY, min)):
        if sum(counts.values()) <= 1:
            expected = STOP
        else:
            a = pick(counts)
            expected = Fuse(a, a if counts[a] >= 2 else pick(k for k in counts if k != a))
        assert strategy.decide(config) == expected


def walk(strategy, chains, memory, outcomes):
    """Drive a stateful strategy through a fixed outcome string."""
    trace = []
    for outcome in outcomes:
        action = strategy.decide(chains, memory)
        trace.append((chains.chains, memory, action))
        nxt = chains.fuse_at(action.a, action.b, outcome)
        memory = strategy.next_memory(chains, memory, action, outcome, nxt)
        chains = nxt
    return chains, memory, trace


class TestRepr:
    def test_a_strategy_shows_its_class_and_name(self):
        assert repr(GREED) == "<Greed greed>"
        assert repr(LookupStrategy({}, name="table")) == "<LookupStrategy table>"

    def test_a_stateful_strategy_shows_its_class_and_name(self):
        assert repr(STATIC) == "<TwoStage static>"
        assert repr(TwoStage(4, GREED)) == "<TwoStage two-stage-4-greed>"
        assert repr(IdentityAdapter(MODESTY)) == "<IdentityAdapter modesty>"


class TestStatic:
    def test_blocks_of_eight(self):
        chains = IdentityConfiguration.epr_pairs(16)
        assert STATIC.initial_memory(chains) == ("blocks", 0, 8)
        # once the first block is down to one chain, the second starts
        # right after it and holds the next 8
        chains, memory, _ = walk(STATIC, chains, ("blocks", 0, 8), [SUCCESS] * 7)
        assert chains.chains == (8,) + (1,) * 8
        assert memory == ("blocks", 1, 8)

    def test_short_final_block(self):
        chains = IdentityConfiguration.epr_pairs(11)
        assert STATIC.initial_memory(chains) == ("blocks", 0, 8)
        chains, memory, _ = walk(STATIC, chains, ("blocks", 0, 8), [SUCCESS] * 7)
        assert memory == ("blocks", 1, 3)
        # a final block of one chain goes straight to stage two
        chains, memory, _ = walk(STATIC, IdentityConfiguration.epr_pairs(9),
                                 ("blocks", 0, 8), [SUCCESS] * 7)
        assert memory == ("pairs", 0)

    def test_paths_to_one_lineup_meet_in_one_state(self):
        # the memory keeps no trace of how the earlier blocks ended
        strategy = TwoStage(block_size=2)
        start = strategy.start(IdentityConfiguration.epr_pairs(6))
        ends = []
        for outcomes in ([SUCCESS, FAILURE], [FAILURE, SUCCESS]):
            state = start
            for outcome in outcomes:
                state = strategy.step(state, strategy.choose(state), outcome)
            ends.append(state)
        assert ends[0] == ends[1] == ProcessState(IdentityConfiguration((2, 1, 1)),
                                                  ("blocks", 1, 2))

    def test_stage_one_is_smallest_first_within_block(self):
        chains = IdentityConfiguration.epr_pairs(16)
        memory = STATIC.initial_memory(chains)
        action = STATIC.decide(chains, memory)
        assert action == Fuse(0, 1)

    def test_stage_two_insists_on_failed_pair(self):
        strategy = TwoStage(block_size=2)
        chains = IdentityConfiguration((4, 4, 3))
        memory = ("pairs", 0)
        action = strategy.decide(chains, memory)
        assert action == Fuse(0, 1)
        after = chains.fuse_at(0, 1, FAILURE)
        memory2 = strategy.next_memory(chains, memory, action, FAILURE, after)
        assert strategy.decide(after, memory2) == Fuse(0, 1)

    def test_stage_two_equal_chains_can_reach_two_pairs(self):
        # insistent failures on (x, x) walk down to (1, 1), then one
        # final attempt may annihilate both
        strategy = TwoStage(block_size=2)
        chains = IdentityConfiguration((3, 3))
        memory = ("pairs", 0)
        chains, memory, trace = walk(strategy, chains, memory, [FAILURE, FAILURE])
        assert chains.chains == (1, 1)
        assert strategy.decide(chains, memory) == Fuse(0, 1)
        final = chains.fuse_at(0, 1, FAILURE)
        assert final.chains == ()

    def test_stage_two_skips_vanished_partner(self):
        strategy = TwoStage(block_size=2)
        chains = IdentityConfiguration((1, 4, 5, 6))
        memory = ("pairs", 0)
        action = strategy.decide(chains, memory)
        after = chains.fuse_at(action.a, action.b, FAILURE)
        assert after.chains == (3, 5, 6)
        memory = strategy.next_memory(chains, memory, action, FAILURE, after)
        # survivor of the first pair is resolved; next pair follows it
        assert strategy.decide(after, memory) == Fuse(1, 2)

    def test_round_restart_renumbers_survivors(self):
        strategy = TwoStage(block_size=2)
        chains = IdentityConfiguration((2, 3, 4))
        memory = ("pairs", 0)
        action = strategy.decide(chains, memory)
        after = chains.fuse_at(0, 1, SUCCESS)
        memory = strategy.next_memory(chains, memory, action, SUCCESS, after)
        # pair (0,1) resolved, chain 2 is the round leftover; new round
        assert memory == ("pairs", 0)
        assert strategy.decide(after, memory) == Fuse(0, 1)

    def test_block_size_below_two_rejected(self):
        with pytest.raises(ValueError):
            TwoStage(block_size=1)

    @pytest.mark.parametrize("block_size", [2.5, 8.0, Fraction(8), "8", None], ids=repr)
    def test_block_size_must_be_an_integer(self, block_size):
        # 2.5 built, and its quality then raised a bare TypeError from a slice
        message = f"^block_size must be an integer, got {re.escape(repr(block_size))}$"
        with pytest.raises(ValueError, match=message):
            TwoStage(block_size)

    def test_any_integral_block_size_is_accepted(self):
        strategy = TwoStage(np.int64(3))
        assert strategy.name == "two-stage-3-modesty"
        assert strategy_quality(strategy, Configuration.epr_pairs(6)) == strategy_quality(
            TwoStage(3), Configuration.epr_pairs(6))

    def test_stage_one_never_crosses_blocks(self):
        # DFS the whole event tree from 19 pairs (blocks of 8, 8 and 3),
        # carrying each chain's block of the start along the lineup.
        # While block memory is live, every fusion stays inside one
        # block, and the memory names the block's chains: finished
        # blocks of at most one chain each before it, untouched chains
        # after it.
        n = 19
        chains = IdentityConfiguration.epr_pairs(n)
        stack = [(chains, STATIC.initial_memory(chains), tuple(i // 8 for i in range(n)))]
        seen = set()
        while stack:
            chains, memory, labels = state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            action = STATIC.decide(chains, memory)
            if action == STOP:
                continue
            if memory[0] == "blocks":
                assert labels[action.a] == labels[action.b]
                _, offset, size = memory
                block = labels[offset]
                assert list(labels[:offset]) == sorted(set(labels[:offset]) & set(range(block)))
                assert labels[offset:offset + size] == (block,) * size and size >= 2
                assert labels[offset + size:] == tuple(i // 8 for i in range(8 * (block + 1), n))
            else:
                assert len(set(labels)) == len(labels)  # every block is down to one chain
            for outcome in (SUCCESS, FAILURE):
                nxt = chains.fuse_at(action.a, action.b, outcome)
                mem = STATIC.next_memory(chains, memory, action, outcome, nxt)
                i, j = sorted((action.a, action.b))
                if outcome == SUCCESS:
                    kept = [k for k in range(len(labels)) if k != j]
                else:
                    kept = [k for k in range(len(labels))
                            if k not in (i, j) or chains.chains[k] > 1]
                stack.append((nxt, mem, tuple(labels[k] for k in kept)))


class Quitter(Strategy):
    name = "quitter"

    def decide(self, config):
        return STOP


class Fantasist(Strategy):
    name = "fantasist"

    def decide(self, config):
        return Fuse(3, 1)


def verdict(error):
    """The start, event and message of an :class:`InvalidStrategy`, or
    None for a valid strategy."""
    return None if error is None else (error.start, error.event, error.message)


class SelfFuser(StatefulStrategy):
    """Fuses the first chain with itself: indices that name one chain
    twice, which no outcome of the step can carry out."""

    name = "self-fuser"

    def initial_memory(self, chains):
        return None

    def decide(self, chains, memory):
        return STOP if chains.chain_count <= 1 else Fuse(0, 0)

    def next_memory(self, chains, memory, action, outcome, result):
        return None


class SecondFailureBreaks(StatefulStrategy):
    """Smallest-first in the identity picture, its memory counting
    attempts, whose memory step raises IndexError on a failure at the
    second attempt: a null fusion of that outcome alone."""

    name = "second-failure-breaks"
    adapter = IdentityAdapter(MODESTY)

    def initial_memory(self, chains):
        return 0

    def decide(self, chains, memory):
        return self.adapter.decide(chains, None)

    def next_memory(self, chains, memory, action, outcome, result):
        if memory == 1 and outcome == FAILURE:
            raise IndexError("no memory for a failed second attempt")
        return memory + 1


class NonActor(StatefulStrategy):
    """Decides ``action``, which is neither a Fuse nor a Stop, wherever
    two or more chains remain."""

    name = "non-actor"

    def __init__(self, action):
        self.action = action

    def initial_memory(self, chains):
        return None

    def decide(self, chains, memory):
        return STOP if chains.chain_count <= 1 else self.action

    def next_memory(self, chains, memory, action, outcome, result):
        return None


class NonActingLookup(LookupStrategy):
    """A lookup table that decides ``action`` at two pairs and stops
    elsewhere."""

    def __init__(self, action):
        super().__init__({"1^2": action, "2^1": STOP, "1^1": STOP, "": STOP}, "non-acting-lookup")
        self.action = action


NON_ACTION_STRATEGIES = [kind(action) for kind in (NonActingLookup, NonActor)
                         for action in ("oops", (1, 1), None)]


class TestValidation:
    def test_greed_ok(self):
        assert validate_strategy(GREED, Configuration.epr_pairs(6)) is None

    def test_premature_stop_detected(self):
        error = validate_strategy(Quitter(), Configuration.epr_pairs(2))
        assert isinstance(error, InvalidStrategy)
        assert "premature stop" in error.message
        assert error.event == ""

    def test_null_fusion_detected(self):
        error = validate_strategy(Fantasist(), Configuration.epr_pairs(2))
        assert "null fusion" in error.message

    def test_bad_chain_indices_are_the_decisions_fault(self):
        """Indices that name one chain twice break the step on either
        outcome, so every walker reports them at the decision's event."""
        start = Configuration.epr_pairs(2)
        expected = (start, "", "null fusion: bad chain indices (0,0) for 2 chains")
        assert verdict(validate_strategy(SelfFuser(), start)) == expected
        for run in (lambda: event_tree_oracle(SelfFuser(), start),
                    lambda: estimate_quality(SelfFuser(), start, 0.5, trials=5, seed=0)):
            with pytest.raises(InvalidStrategy) as err:
                run()
            assert verdict(err.value) == expected

    def test_a_step_error_is_the_outcomes_fault(self):
        """An IndexError of a step is a null fusion of that outcome: every
        walker reports it at the event with the outcome letter appended."""
        strategy, start = SecondFailureBreaks(), parse_key("1^3")
        expected = (start, "SF", "null fusion: no memory for a failed second attempt")
        assert verdict(validate_strategy(strategy, start)) == expected
        for run in (lambda: strategy_quality(strategy, start),
                    lambda: event_tree_oracle(strategy, start),
                    lambda: estimate_quality(strategy, start, 0.5, trials=50, seed=0)):
            with pytest.raises(InvalidStrategy) as err:
                run()
            assert verdict(err.value) == expected

    @pytest.mark.parametrize("strategy", NON_ACTION_STRATEGIES,
                             ids=[f"{strategy.name}-{type(strategy.action).__name__}"
                                  for strategy in NON_ACTION_STRATEGIES])
    def test_a_decision_that_is_no_action_is_invalid(self, strategy):
        """A decision that is neither a Fuse nor a Stop breaks a rule at
        the decision's event in every walker, the Monte Carlo player in
        one process and in two included."""
        start = parse_key("1^2")
        expected = (start, "", f"invalid decision: {strategy.action!r} is neither a fusion "
                               "nor a stop")
        assert verdict(validate_strategy(strategy, start)) == expected
        assert verdict(validate_strategy_sweep(strategy, [start])) == expected
        assert reference_validate(strategy, start) == expected
        for run in (lambda: strategy_quality(strategy, start),
                    lambda: expected_attempts(strategy, start),
                    lambda: event_tree_oracle(strategy, start),
                    lambda: estimate_quality(strategy, start, 0.5, trials=5, seed=0),
                    lambda: estimate_quality(strategy, start, 0.5, trials=TRIAL_CHUNK + 1,
                                             seed=0, processes=2),
                    lambda: simulate_run(strategy, start, 0.5, seed=0)):
            with pytest.raises(InvalidStrategy) as err:
                run()
            assert verdict(err.value) == expected

    @pytest.mark.parametrize("name", sorted(BUILTIN_STRATEGIES))
    def test_builtins_valid_up_to_14_edges(self, name):
        strategy = BUILTIN_STRATEGIES[name]
        for config in enumerate_configurations(14):
            error = validate_strategy(strategy, config)
            assert error is None, (name, str(config), error)


@given(st.lists(st.integers(1, 6), min_size=2, max_size=7).map(tuple), st.randoms())
@settings(max_examples=100, deadline=None)
def test_anonymous_strategies_are_permutation_invariant(chains, rng):
    shuffled = list(chains)
    rng.shuffle(shuffled)
    for strategy in (GREED, MODESTY):
        adapter = IdentityAdapter(strategy)
        one = adapter.decide(IdentityConfiguration(chains), None)
        other = adapter.decide(IdentityConfiguration(tuple(shuffled)), None)
        pick = lambda ident, act: tuple(sorted((ident.chains[act.a], ident.chains[act.b])))
        assert pick(IdentityConfiguration(chains), one) == pick(
            IdentityConfiguration(tuple(shuffled)), other
        )


def test_identity_adapter_picks_lowest_indices():
    adapter = IdentityAdapter(MODESTY)
    ident = IdentityConfiguration((2, 1, 2, 1))
    assert adapter.decide(ident, None) == Fuse(1, 3)


def test_invalid_strategy_names_its_walk_and_pickles():
    err = InvalidStrategy("quitter", parse_key("1^2"), "SF", "premature stop with 2 chains")
    assert str(err) == "invalid strategy quitter: premature stop with 2 chains at 'SF' from '1^2'"
    assert isinstance(err, ValueError)
    copy = pickle.loads(pickle.dumps(err))
    assert type(copy) is InvalidStrategy and str(copy) == str(err)
    assert (copy.name, copy.start, copy.event, copy.message) == (
        err.name, err.start, err.event, err.message)


class TestLookupStrategy:
    def test_decide_and_missing_entry(self):
        strategy = LookupStrategy({"1^2": Fuse(1, 1), "2^1": STOP, "": STOP})
        assert strategy.decide(Configuration.epr_pairs(2)) == Fuse(1, 1)
        assert strategy.decide(Configuration.single_chain(2)) == STOP
        assert strategy.decide(Configuration()) == STOP
        with pytest.raises(KeyError, match=r"no entry for configuration '1\^3'"):
            strategy.decide(Configuration.epr_pairs(3))

    @pytest.mark.parametrize("key", ["1^0", "2^1,1^1", "x"])
    def test_rejects_a_malformed_or_non_canonical_key(self, key):
        with pytest.raises(ValueError, match="not a canonical configuration key"):
            LookupStrategy({key: Fuse(1, 1)})

    def test_partial_table_fails_validation(self):
        strategy = LookupStrategy({"1^2": Fuse(1, 1)})
        error = validate_strategy(strategy, Configuration.epr_pairs(2))
        assert "no decision" in error.message


def reference_validate(strategy, start):
    """One start's validity walk with a seen set of its own: the oracle
    for the shared sweep of :func:`validate_strategy_sweep`, as the
    :func:`verdict` of its error."""
    seen = set()
    stack = [(strategy.start(start), "")]
    while stack:
        state, event = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        try:
            action = strategy.choose(state)
        except KeyError as exc:
            return start, event, f"no decision available: {exc}"
        except InvalidFusionError as exc:
            # an absent pair, met where a plain state meets it
            if state.chain_count <= 1:
                return start, event, "fusion attempted on a terminal configuration"
            return start, event, f"null fusion: {exc}"
        except ValueError as exc:
            return start, event, f"invalid decision: {exc}"
        n_chains = state.chain_count
        if isinstance(action, Stop):
            if n_chains > 1:
                return start, event, f"premature stop with {n_chains} chains"
            continue
        if not isinstance(action, Fuse):
            return start, event, f"invalid decision: {action!r} is neither a fusion nor a stop"
        if n_chains <= 1:
            return start, event, "fusion attempted on a terminal configuration"
        for outcome in (SUCCESS, FAILURE):
            try:
                child = strategy.step(state, action, outcome)
            except InvalidFusionError as exc:  # the decision's fault, at its event
                return start, event, f"null fusion: {exc}"
            except (ValueError, IndexError) as exc:
                return start, event + outcome, f"null fusion: {exc}"
            drop = state.vertex_count - child.vertex_count
            if drop not in ({1} if outcome == SUCCESS else {2, 3, 4}):
                return start, event + outcome, drop_message(drop)
            stack.append((child, event + outcome))
    return None


def drop_message(drop):
    return (f"a step removed {drop} vertices; the fusion rule removes 1 on success, "
            "2 to 4 on failure")


def assert_evaluation_raises(strategy, start, result):
    """Exact quality, expected attempts and the event-tree oracle from
    ``start`` raise InvalidStrategy with the start, event and message of
    the rejection ``result``."""
    for evaluate in (strategy_quality, expected_attempts, event_tree_oracle):
        with pytest.raises(InvalidStrategy) as err:
            evaluate(strategy, start)
        assert verdict(err.value) == result


class LateQuitter(Strategy):
    """Smallest-first, but stops once three chains hold six or more edges."""

    name = "late-quitter"

    def decide(self, config):
        if config.chain_count == 3 and config.total_length >= 6:
            return STOP
        return MODESTY.decide(config)


class LateFantasist(Strategy):
    """Smallest-first, but asks for a second chain of its longest length
    once a lone longest chain has four edges."""

    name = "late-fantasist"

    def decide(self, config):
        if config.chain_count >= 2:
            longest = config.lengths()[-1]
            if longest >= 4 and config.count(longest) == 1:
                return Fuse(longest, longest)
        return MODESTY.decide(config)


class Treadmill(Strategy):
    """Smallest-first whose failed attempts leave the state as it was: a
    step that removes no vertex."""

    name = "treadmill"

    def decide(self, config):
        return MODESTY.decide(config)

    def step(self, state, action, outcome):
        return state if outcome == FAILURE else super().step(state, action, outcome)


class Grower(Strategy):
    """Smallest-first whose failed attempts add a chain of length 1, so
    a walk that does not check each step never ends."""

    name = "grower"

    def decide(self, config):
        return MODESTY.decide(config)

    def step(self, state, action, outcome):
        return state.add(1) if outcome == FAILURE else super().step(state, action, outcome)


class Detour(Strategy):
    """Smallest-first, except that a failed attempt at a configuration
    named in ``detours`` goes to the configuration it names."""

    name = "detour"

    def __init__(self, detours):
        self.detours = {parse_key(key): parse_key(to) for key, to in detours.items()}

    def decide(self, config):
        return MODESTY.decide(config)

    def step(self, state, action, outcome):
        if outcome == FAILURE and state in self.detours:
            return self.detours[state]
        return super().step(state, action, outcome)


# Failed attempts at 1^3 to 1^8 add a pair, and one at 1^9 goes back to
# two pairs, the earlier start: a path that grows and then rejoins a
# state walked clean. The local rule rejects the first failure from
# three pairs, a step that adds two vertices.
DETOUR = Detour({f"1^{k}": f"1^{k + 1}" for k in range(3, 9)} | {"1^9": "1^2"})
DETOUR_STARTS = [parse_key("1^2"), parse_key("1^3")]
# every configuration up to 10 edges, in vertex-count order: a state below
# a start is itself an earlier start, so failures show at the root; from
# pairs alone they show deep in the tree
SMALL_STARTS = list(enumerate_configurations(10))
PAIR_STARTS = [Configuration.epr_pairs(n) for n in range(13)]
class LossySuccess(Strategy):
    """Smallest-first whose successes also lose an edge of the merged
    chain: a success that removes 2 vertices."""

    name = "lossy-success"

    def decide(self, config):
        return MODESTY.decide(config)

    def step(self, state, action, outcome):
        child = super().step(state, action, outcome)
        if outcome == SUCCESS:
            merged = action.a + action.b
            child = child.add(merged, -1).add(merged - 1)
        return child


class MildFailure(Strategy):
    """Smallest-first whose failures cost only the second chain one edge,
    when it has two or more: a failure that removes 1 vertex."""

    name = "mild-failure"

    def decide(self, config):
        return MODESTY.decide(config)

    def step(self, state, action, outcome):
        if outcome == FAILURE and action.b > 1:
            return state.add(action.b, -1).add(action.b - 1)
        return super().step(state, action, outcome)


class PairEatingSuccess(Strategy):
    """Smallest-first whose successes also destroy a spare pair when one is
    left: a success that removes 3 vertices."""

    name = "pair-eating-success"

    def decide(self, config):
        return MODESTY.decide(config)

    def step(self, state, action, outcome):
        child = super().step(state, action, outcome)
        if outcome == SUCCESS and child.count(1):
            child = child.add(1, -1)
        return child


SWEEP_STRATEGIES = [GREED, MODESTY, STATIC, Quitter(), Fantasist(),
                    LookupStrategy({"1^2": Fuse(1, 1)}), LateQuitter(), LateFantasist(),
                    Treadmill(), Grower(), DETOUR, LossySuccess(), MildFailure(),
                    PairEatingSuccess()]
SWEEP_CASES = [(strategy, starts) for strategy in SWEEP_STRATEGIES
               for starts in (SMALL_STARTS, PAIR_STARTS)]
SWEEP_CASES.append((DETOUR, DETOUR_STARTS))
SWEEP_IDS = [f"{strategy.name}-{kind}" for strategy in SWEEP_STRATEGIES
             for kind in ("small", "pairs")] + ["detour-two-starts"]


class CountingStrategy:
    """Passes the process interface through, counting decisions."""

    def __init__(self, inner):
        self.inner = inner
        self.decisions = 0

    def start(self, config):
        return self.inner.start(config)

    def choose(self, state):
        self.decisions += 1
        return self.inner.choose(state)

    def step(self, state, action, outcome):
        return self.inner.step(state, action, outcome)


class TestValidationSweep:
    @pytest.mark.parametrize("strategy, starts", SWEEP_CASES, ids=SWEEP_IDS)
    def test_sweep_equals_one_walk_per_start(self, strategy, starts):
        """The sweep's verdict is the first rejecting start's own, and
        the exact evaluation and the event-tree oracle from each start (of
        at most 12 edges, within the oracle's 14) raise exactly when that
        start is rejected, with the same event and message."""
        expected = None
        for start in starts:
            result = reference_validate(strategy, start)
            assert verdict(validate_strategy(strategy, start)) == result
            if result is None:
                assert event_tree_oracle(strategy, start).mean_length == strategy_quality(
                    strategy, start)
            else:
                assert_evaluation_raises(strategy, start, result)
                if expected is None:
                    expected = result
        assert verdict(validate_strategy_sweep(strategy, starts)) == expected

    @pytest.mark.parametrize("strategy, start, event, drop", [
        (LossySuccess(), "1^3", "S", 2),
        (MildFailure(), "1^3", "SF", 1),
        (PairEatingSuccess(), "1^3", "S", 3),
        (Treadmill(), "1^2", "F", 0),
        (Grower(), "1^2", "F", -2),
        (DETOUR, "1^3", "F", -2),
    ], ids=lambda value: getattr(value, "name", None))
    def test_a_step_removes_what_the_fusion_rule_removes(self, strategy, start, event, drop):
        """Each step must remove 1 vertex on success and 2 to 4 on failure,
        as the exact evaluation assumes; the first step that does not
        fails validation at its event, and the message names its drop."""
        start = parse_key(start)
        expected = (start, event, drop_message(drop))
        assert verdict(validate_strategy(strategy, start)) == expected
        assert verdict(validate_strategy_sweep(strategy, [parse_key("1^1"), start])) == expected
        assert_evaluation_raises(strategy, start, expected)

    @pytest.mark.parametrize("strategy, start, event, message", [
        (Treadmill(), "1^2", "F", drop_message(0)),
        (Quitter(), "1^3", "", "premature stop with 3 chains"),
    ], ids=["step-removes-no-vertex", "immediate-stop"])
    def test_the_oracle_rejects_an_invalid_strategy(self, strategy, start, event, message):
        """The oracle neither recurses without end on a step that removes
        no vertex nor answers for a strategy that stops at once."""
        with pytest.raises(InvalidStrategy) as err:
            event_tree_oracle(strategy, parse_key(start))
        assert (err.value.event, err.value.message) == (event, message)

    @pytest.mark.parametrize("strategy, starts", SWEEP_CASES, ids=SWEEP_IDS)
    def test_the_scalar_player_rejects_what_the_evaluation_rejects(self, strategy, starts):
        """Played along the event at which a start is rejected, the scalar
        Monte Carlo player raises the evaluation's InvalidStrategy, with
        the same event and message."""
        for start in starts:
            result = reference_validate(strategy, start)
            if result is None:
                continue
            row = [outcome == SUCCESS for outcome in result[1]]
            row += [False] * (start.vertex_count - len(row))
            with pytest.raises(InvalidStrategy) as err:
                montecarlo._play(strategy, start, row)
            assert verdict(err.value) == result

    @pytest.mark.parametrize("strategy", [
        Fantasist(), Treadmill(), Grower(), LossySuccess(), MildFailure(), PairEatingSuccess(),
    ], ids=lambda strategy: strategy.name)
    def test_monte_carlo_names_the_broken_rule(self, strategy):
        """A sampled trial that breaks a rule raises InvalidStrategy, not
        an error of the uniform row, the fusion rule or the edge count."""
        with pytest.raises(InvalidStrategy):
            estimate_quality(strategy, Configuration.epr_pairs(4), 0.5, trials=20, seed=0)

    def test_broken_strategies_fail_deep_in_a_later_start(self):
        for strategy in (LateQuitter(), LateFantasist()):
            error = validate_strategy_sweep(strategy, PAIR_STARTS)
            assert isinstance(error, InvalidStrategy) and error.event
            assert error.start.chain_count > 4

    @pytest.mark.parametrize("strategy", [GREED, MODESTY, STATIC], ids=lambda s: s.name)
    def test_sweep_decides_each_reachable_state_once(self, strategy):
        reachable = set()
        stack = [strategy.start(start) for start in SMALL_STARTS]
        while stack:
            state = stack.pop()
            if state in reachable:
                continue
            reachable.add(state)
            action = strategy.choose(state)
            if isinstance(action, Fuse):
                stack.extend(strategy.step(state, action, outcome) for outcome in (SUCCESS, FAILURE))
        counting = CountingStrategy(strategy)
        assert validate_strategy_sweep(counting, SMALL_STARTS) is None
        assert counting.decisions == len(reachable)

    def test_no_starts_is_valid(self):
        assert validate_strategy_sweep(GREED, []) is None


class Stubborn(Strategy):
    name = "stubborn"

    def decide(self, config):
        return STOP


class Overreacher(Strategy):
    """Asks for a chain of length 3 whatever the configuration holds."""

    name = "overreacher"

    def decide(self, config):
        return Fuse(3, 1)


@pytest.mark.parametrize("inner, message", [
    (Stubborn(), "invalid decision: two-stage-3-stubborn: inner strategy stubborn returned "
                 "Stop inside the block (1, 1, 1)"),
    (Overreacher(), "null fusion: no chains of lengths (1,3) in 1^3"),
], ids=["stop", "absent-length"])
def test_a_bad_inner_action_fails_validation(inner, message):
    strategy = TwoStage(3, inner)
    start = Configuration.epr_pairs(3)
    expected = (start, "", message)
    assert verdict(validate_strategy(strategy, start)) == expected
    sweep = validate_strategy_sweep(strategy, [Configuration.single_chain(4), start])
    assert verdict(sweep) == expected
    assert reference_validate(strategy, start) == expected


class DuckModesty:
    """Smallest-first with only the ``decide`` and ``name`` a two-stage
    block asks of its inner strategy, and no Strategy base."""

    name = "duck"

    def decide(self, config):
        return MODESTY.decide(config)


class TestTwoStageInnerStrategy:
    @pytest.mark.parametrize("inner", [STATIC, TwoStage(3, GREED), IdentityAdapter(MODESTY)],
                             ids=["static", "two-stage", "identity-adapter"])
    def test_a_stateful_inner_strategy_is_rejected(self, inner):
        # it built, and every walk then raised a bare TypeError from decide
        with pytest.raises(ValueError, match=f"^inner strategy {re.escape(inner.name)} is "
                                             "stateful; a block runs a stateless one$"):
            TwoStage(4, inner)

    def test_a_duck_typed_stateless_inner_strategy_is_accepted(self):
        strategy = TwoStage(4, DuckModesty())
        assert strategy.name == "two-stage-4-duck"
        for n in (4, 9):
            start = Configuration.epr_pairs(n)
            assert strategy_quality(strategy, start) == strategy_quality(TwoStage(4), start)


def assert_two_stage_errors_raise():
    """A two-stage strategy whose inner strategy stops inside a block
    raises ValueError; uses no assert statement, so it also checks under
    -O."""
    with pytest.raises(ValueError, match=r"inner strategy stubborn returned Stop inside the "
                                         r"block \(1, 1, 1\)"):
        TwoStage(3, Stubborn()).decide(IdentityConfiguration((1, 1, 1)), ("blocks", 0, 3))


def assert_pair_eating_success_is_rejected():
    """Exact evaluation, the event-tree oracle and the scalar Monte Carlo
    player raise at a success that also destroys a spare pair, validation
    rejects it and the Monte Carlo array engine gives the chunk up to
    the scalar player; uses no assert statement, so it also checks
    under -O."""
    start = parse_key("1^3")
    play = lambda strategy, start: montecarlo._play(strategy, start, [True] * 6)
    for walker in (strategy_quality, event_tree_oracle, play):
        with pytest.raises(InvalidStrategy,
                           match=re.escape(f"{drop_message(3)} at 'S' from '1^3'")):
            walker(PairEatingSuccess(), start)
    result = verdict(validate_strategy(PairEatingSuccess(), start))
    if result != (start, "S", drop_message(3)):
        raise AssertionError(f"validation gave {result}")
    wins = montecarlo._chunk_wins(0, 0, 8, montecarlo._draws_bound(start), 0.5)
    finals = montecarlo._play_chunk(PairEatingSuccess(), start, wins,
                                    montecarlo._plan(PairEatingSuccess(), start))
    if finals is not None:
        raise AssertionError(f"the array engine played the chunk: {finals}")


class TestTwoStageBlockDecisions:
    def test_instances_with_different_inner_strategies_decide_apart(self):
        chains = IdentityConfiguration((1, 2, 3))
        smallest, largest = TwoStage(3, MODESTY), TwoStage(3, GREED)
        for _ in range(2):
            assert smallest.decide(chains, ("blocks", 0, 3)) == Fuse(0, 1)
            assert largest.decide(chains, ("blocks", 0, 3)) == Fuse(1, 2)

    def test_a_remembered_lineup_is_moved_to_its_block(self):
        strategy = TwoStage(3)
        assert strategy.decide(IdentityConfiguration((2, 1, 1)), ("blocks", 0, 3)) == Fuse(1, 2)
        assert strategy.decide(IdentityConfiguration((4, 2, 1, 1)), ("blocks", 1, 3)) == Fuse(2, 3)
        assert strategy.decide(IdentityConfiguration((2, 1, 1)), ("blocks", 0, 3)) == Fuse(1, 2)

    def test_bad_inner_action_raises(self):
        assert_two_stage_errors_raise()

    def test_bad_inner_action_raises_under_python_O(self):
        env = dict(os.environ)
        package_root = str(Path(sys.modules[TwoStage.__module__].__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        code = ("assert False, 'asserts must be stripped'\n"
                "import test_strategies\n"
                "test_strategies.assert_two_stage_errors_raise()\n"
                "test_strategies.assert_pair_eating_success_is_rejected()")
        subprocess.run([sys.executable, "-O", "-c", code], cwd=Path(__file__).parent, env=env,
                       check=True, timeout=120)


def reference_two_stage_step(strategy, chains, memory, action, outcome):
    """One two-stage step by the plain rule: fuse the lineup as a list;
    while the running block keeps two chains, it keeps its start and
    holds the chains it has left; otherwise the next block starts right
    after it and takes up to ``block_size`` of the chains that remain,
    and stage two starts if that is fewer than two. The oracle for
    ``TwoStage.step``."""
    i, j = min(action.a, action.b), max(action.a, action.b)
    lineup = list(chains.chains)
    x, y = lineup[i], lineup[j]
    if outcome == SUCCESS:
        lineup[i] += lineup.pop(j)
    else:
        lineup[i] -= 1
        lineup[j] -= 1
        lineup = [k for k in lineup if k > 0]
    if memory[0] == "blocks":
        _, offset, size = memory
        assert offset <= i < j < offset + size
        left = size - (len(chains.chains) - len(lineup))
        if left < 2:
            offset += left
            left = len(lineup[offset:offset + strategy.block_size])
        memory = ("blocks", offset, left) if left > 1 else ("pairs", 0)
    else:
        pos = memory[1]
        if outcome == SUCCESS or (x == 1) != (y == 1):
            pos += 1
        memory = ("pairs", 0 if pos >= len(lineup) - 1 else pos)
    return IdentityConfiguration(tuple(lineup)), memory


@given(block_size=st.sampled_from([2, 3, 5, 8]), inner=st.sampled_from([MODESTY, GREED]),
       lengths=st.lists(st.integers(1, 4), min_size=0, max_size=20),
       outcomes=st.lists(st.sampled_from([SUCCESS, FAILURE]), max_size=60),
       round_position=st.none() | st.integers(0, 18))
@settings(max_examples=300, deadline=None)
def test_two_stage_step_equals_the_plain_rule(block_size, inner, lengths, outcomes,
                                              round_position):
    """Along a random path, from the start or from a random point of a
    pairing round, each step's chains and memory, and ``next_memory``,
    equal the plain rule's, and both are built from the same values the
    checked constructors give."""
    strategy = TwoStage(block_size, inner)
    chains = IdentityConfiguration(tuple(lengths))
    state = strategy.start(chains)
    if round_position is not None and round_position < len(lengths) - 1:
        state = ProcessState(chains, ("pairs", round_position))
    for outcome in outcomes:
        action = strategy.choose(state)
        if action == STOP:
            assert state.chain_count <= 1
            break
        after = strategy.step(state, action, outcome)
        chains, memory = reference_two_stage_step(strategy, *state, action, outcome)
        assert tuple(after) == (chains, memory)
        assert type(after.chains) is IdentityConfiguration
        assert strategy.next_memory(*state, action, outcome, after.chains) == memory
        state = after


class TestSweepPausesTheCollector:
    """``validate_strategy_sweep`` explores with the cyclic collector
    paused and leaves it as it found it (``exact._collector_paused``)."""

    def test_no_collection_runs_inside_the_sweep(self, gc_collections):
        starts = [Configuration.epr_pairs(n) for n in range(1, 33)]
        with gc_collections() as generations:
            assert validate_strategy_sweep(STATIC, starts) is None
        assert generations == []

    @pytest.mark.parametrize("strategy, ok", [(GREED, True), (LateQuitter(), False)],
                             ids=["valid", "invalid-mid-walk"])
    def test_the_collector_state_is_restored(self, collector_state, strategy, ok):
        assert (validate_strategy_sweep(strategy, PAIR_STARTS) is None) is ok
        assert gc.isenabled() is collector_state
