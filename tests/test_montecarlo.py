import contextlib
import gc
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cluster_forge import montecarlo
from cluster_forge.bounds import inverse_resource_bounds
from cluster_forge.configuration import (
    STOP,
    SUCCESS,
    Configuration,
    IdentityConfiguration,
    canonical_key,
    enumerate_configurations,
    parse_key,
)
from cluster_forge.exact import build_quality_table, event_tree_oracle, strategy_quality
from cluster_forge.montecarlo import (
    TRIAL_CHUNK,
    SimulationReport,
    estimate_quality,
    simulate_run,
    threshold_experiment,
    wilson_interval,
)
from cluster_forge.strategies import (
    GREED,
    MODESTY,
    STATIC,
    Greed,
    IdentityAdapter,
    InvalidStrategy,
    LookupStrategy,
    Modesty,
    StatefulStrategy,
    Strategy,
    TwoStage,
    _bad_drop,
)

from conftest import event_dag, final_length_distribution


def epr(n):
    return Configuration.epr_pairs(n)


class TestSimulateRun:
    def test_single_chain_is_untouched(self):
        start = Configuration.single_chain(7)
        assert simulate_run(MODESTY, start, 0.5, seed=11) == start

    def test_deterministic_gates(self):
        for trial in range(6):
            final = simulate_run(MODESTY, epr(2), 1.0, seed=3, trial_index=trial)
            assert final == Configuration.single_chain(2)

    def test_seed_determinism(self):
        runs = [simulate_run(GREED, epr(10), 0.5, seed=7, trial_index=5) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_trials_vary(self):
        finals = {
            simulate_run(GREED, epr(10), 0.5, seed=7, trial_index=t) for t in range(40)
        }
        assert len(finals) > 1

    def test_parity_is_conserved(self):
        for t in range(50):
            final = simulate_run(MODESTY, epr(9), 0.4, seed=13, trial_index=t)
            assert final.total_length % 2 == 1

    def test_stateful_strategy(self):
        final = simulate_run(STATIC, epr(16), 1.0, seed=1)
        assert final == Configuration.single_chain(16)

    def test_broken_conservation_raises_in_anonymous_player(self, monkeypatch):
        fuse = Configuration.fuse

        def leaky_fuse(self, a, b, outcome):
            # a success whose merged chain comes out one edge short removes
            # 2 vertices; a failure that merges the chains one edge short
            # removes 2 vertices but only one edge
            result = fuse(self, a, b, SUCCESS)
            return result.add(a + b, -1).add(a + b - 1)

        monkeypatch.setattr(Configuration, "fuse", leaky_fuse)
        with pytest.raises(InvalidStrategy) as err:
            simulate_run(MODESTY, epr(6), 1.0, seed=3)
        assert (err.value.event, err.value.message) == ("S", _bad_drop(2))
        with pytest.raises(InvalidStrategy) as exact:
            strategy_quality(MODESTY, epr(6))
        assert str(err.value) == str(exact.value)
        with pytest.raises(RuntimeError, match="edge conservation"):
            simulate_run(MODESTY, epr(6), 0.0, seed=3)

    def test_broken_conservation_raises_in_identity_player(self, monkeypatch):
        fuse_at = IdentityConfiguration.fuse_at

        def leaky_fuse_at(self, i, j, outcome):
            # as in the anonymous player: every attempt merges the chains,
            # one edge short
            i, j = min(i, j), max(i, j)
            chains = list(fuse_at(self, i, j, SUCCESS).chains)
            chains[i] -= 1
            return IdentityConfiguration(tuple(chains))

        monkeypatch.setattr(IdentityConfiguration, "fuse_at", leaky_fuse_at)
        with pytest.raises(InvalidStrategy) as err:
            simulate_run(STATIC, epr(8), 1.0, seed=3)
        assert (err.value.event, err.value.message) == ("S", _bad_drop(2))
        with pytest.raises(RuntimeError, match="edge conservation"):
            simulate_run(STATIC, epr(8), 0.0, seed=3)


class Quitter(Strategy):
    name = "quitter"

    def decide(self, config):
        return STOP


class StopsBelowSixVertices(Strategy):
    """Smallest-first until fewer than six vertices are left, then stops."""

    name = "stops-below-six"

    def decide(self, config):
        return STOP if config.vertex_count < 6 else MODESTY.decide(config)


class Inflater(Strategy):
    """Smallest-first from four times the pairs it is given: its trials
    need more uniforms than the start has vertices."""

    name = "inflater"

    def start(self, config):
        return Configuration.epr_pairs(4 * config.total_length)

    def decide(self, config):
        return MODESTY.decide(config)


def test_a_trial_past_its_uniform_row_is_invalid():
    # at ps = 1 the 8 pairs of the state take 7 attempts, the 2 pairs of
    # the start have 4 vertices
    with pytest.raises(InvalidStrategy) as err:
        simulate_run(Inflater(), epr(2), 1.0, seed=0)
    assert (err.value.start, err.value.event, err.value.message) == (
        epr(2), "SSSS", "more than 4 attempts from a start of 4 vertices; every attempt "
        "removes a vertex")


class TestPrematureStop:
    """The scalar player raises the exact evaluation's error at a stop
    that leaves more than one chain, instead of counting the chains left
    as the trial's result."""

    def test_estimate_quality_raises(self):
        start = epr(6)
        with pytest.raises(InvalidStrategy) as err:
            estimate_quality(Quitter(), start, 0.5, trials=10, seed=0)
        assert (err.value.start, err.value.event, err.value.message) == (
            start, "", "premature stop with 6 chains")
        with pytest.raises(InvalidStrategy) as exact:
            strategy_quality(Quitter(), start)
        assert str(err.value) == str(exact.value)

    def test_simulate_run_names_the_event(self):
        # from three pairs a success leaves two chains, a failure one
        strategy, start = StopsBelowSixVertices(), epr(3)
        with pytest.raises(InvalidStrategy) as err:
            simulate_run(strategy, start, 1.0, seed=0)
        assert str(err.value) == ("invalid strategy stops-below-six: premature stop with 2 "
                                  "chains at 'S' from '1^3'")
        with pytest.raises(InvalidStrategy) as exact:
            strategy_quality(strategy, start)
        assert str(err.value) == str(exact.value)
        assert simulate_run(strategy, start, 0.0, seed=0) == Configuration.single_chain(1)


class TestEstimateQuality:
    def test_reports_are_reproducible(self):
        a = estimate_quality(MODESTY, epr(8), 0.5, trials=5000, seed=21)
        b = estimate_quality(MODESTY, epr(8), 0.5, trials=5000, seed=21)
        assert a == b
        assert isinstance(a, SimulationReport)

    def test_three_sigma_agreement(self):
        report = estimate_quality(MODESTY, epr(8), 0.5, trials=40000, seed=5)
        exact = float(strategy_quality(MODESTY, epr(8)))
        assert abs(report.mean - exact) < 3 * report.stderr

    def test_million_trials_on_four_pairs(self):
        report = estimate_quality(MODESTY, epr(4), 0.5, trials=10 ** 6, seed=161)
        assert abs(report.mean - 1.625) < 3 * report.stderr

    def test_single_trial_has_no_stderr(self):
        report = estimate_quality(MODESTY, epr(4), 0.5, trials=1, seed=1)
        assert report.stderr is None

    def test_no_threshold_has_no_success_fraction(self):
        report = estimate_quality(MODESTY, epr(4), 0.5, trials=10, seed=1)
        assert (report.success_count, report.success_fraction) == (None, None)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            estimate_quality(MODESTY, epr(4), 0.5, trials=0, seed=1)

    def test_threshold_counting(self):
        report = estimate_quality(MODESTY, epr(4), 1.0, trials=100, seed=2, threshold=4)
        assert report.success_count == 100
        assert report.success_fraction == 1.0

    def test_parallel_matches_sequential(self):
        trials = 2 * 4096 + 257  # spans three chunks
        seq = estimate_quality(MODESTY, epr(6), 0.5, trials=trials, seed=9, processes=1)
        par = estimate_quality(MODESTY, epr(6), 0.5, trials=trials, seed=9, processes=3)
        assert seq == par

    def test_parallel_table_strategy_matches_sequential(self):
        # a pool pickles the strategy, and with it the table it decides by
        strategy = build_quality_table(8).as_strategy()
        trials = TRIAL_CHUNK + 100  # spans two chunks
        seq = estimate_quality(strategy, epr(8), 0.5, trials=trials, seed=9, processes=1)
        par = estimate_quality(strategy, epr(8), 0.5, trials=trials, seed=9, processes=2)
        assert seq == par

    def test_float_and_fraction_ps_agree(self):
        a = estimate_quality(GREED, epr(6), 0.25, trials=3000, seed=4)
        b = estimate_quality(GREED, epr(6), Fraction(1, 4), trials=3000, seed=4)
        assert a == b


class TestTwoStage:
    def test_block_eight_is_static(self):
        strategy = TwoStage(8)
        for n in (8, 12, 16):
            assert strategy_quality(strategy, epr(n)) == strategy_quality(STATIC, epr(n))

    def test_block_size_one_rejected(self):
        with pytest.raises(ValueError):
            TwoStage(1)

    def test_block_yield_bound(self):
        # 16 blocks of 8: expected yield >= 16 (q8 - 2) + 2 within 3 sigma
        q8 = strategy_quality(MODESTY, epr(8))
        bound = float(16 * (q8 - 2) + 2)
        report = estimate_quality(TwoStage(8), epr(128), 0.5, trials=4000, seed=17)
        assert report.mean + 3 * report.stderr >= bound

    def test_static_bound_at_64_within_three_sigma(self):
        from cluster_forge.bounds import static_lower_bound

        report = estimate_quality(STATIC, epr(64), 0.5, trials=6000, seed=23)
        assert report.mean + 3 * report.stderr >= float(static_lower_bound(64))


class TestWilson:
    def test_brackets_fraction(self):
        low, high = wilson_interval(80, 100)
        assert low < 0.8 < high
        assert 0 <= low <= high <= 1

    def test_extremes(self):
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_asymmetry_near_one(self):
        low, high = wilson_interval(99, 100)
        assert 0.99 - low > high - 0.99

    @pytest.mark.parametrize("successes, trials", [(5, 3), (-1, 3), (1, 0.5)])
    def test_rejects_successes_outside_the_trials(self, successes, trials):
        with pytest.raises(ValueError, match=rf"^successes must be in \[0, {trials}\], "
                                             rf"got {successes}$"):
            wilson_interval(successes, trials)
        # no trials still give the whole unit interval, whatever the count
        assert wilson_interval(successes, 0) == (0.0, 1.0)

    @pytest.mark.parametrize("z", [-1.96, 0, 0.0, math.nan, math.inf, -math.inf], ids=repr)
    def test_rejects_a_z_that_is_not_finite_and_positive(self, z):
        # -1.96 gave (0.603, 0.108) and nan (0.0, 1.0)
        for trials in (10, 0):
            with pytest.raises(ValueError, match=f"^z must be finite and positive, got {z!r}$"):
                wilson_interval(3, trials, z)


# finite positive rates, as floats and as Fractions
RATES = st.floats(1e-3, 1e3) | st.fractions(Fraction(1, 1000), 1000, max_denominator=1000)


def outcome(call):
    """What ``call()`` returns, or the message of the ValueError it raises."""
    try:
        return call()
    except ValueError as error:
        return str(error)


class TestThresholdExperiment:
    def test_sufficient_direction(self):
        report = threshold_experiment(
            target_length=40, alpha=0.153336, epsilon=0.5, block_size=8,
            trials=400, seed=31,
        )
        assert report.n_pairs == 281  # ceil((1/alpha + 0.5) * 40)
        assert 0 <= report.wilson_low <= report.fraction <= report.wilson_high <= 1
        assert report.block_remainder_ok  # 40 >= 8 / 0.5

    def test_remainder_flag(self):
        report = threshold_experiment(
            target_length=10, alpha=0.153336, epsilon=0.5, block_size=8,
            trials=50, seed=31,
        )
        assert not report.block_remainder_ok  # 10 < 8 / 0.5 = 16

    def test_insufficient_direction_uses_minus(self):
        report = threshold_experiment(
            target_length=50, alpha=0.2, epsilon=0.5, block_size=8,
            trials=50, seed=31, direction="insufficient",
        )
        assert report.n_pairs == 225  # ceil((5 - 0.5) * 50)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            threshold_experiment(40, 0.2, 0, 8, 10, 1)
        with pytest.raises(ValueError):
            threshold_experiment(40, 0.2, 6, 8, 10, 1, direction="insufficient")

    @pytest.mark.parametrize("alpha", [0, 0.0, -0.2, Fraction(-1, 5)], ids=repr)
    def test_alpha_validation(self, alpha):
        # no ZeroDivisionError at 0, and no "epsilon too large" below it
        with pytest.raises(ValueError, match="^alpha must be positive$"):
            threshold_experiment(8, alpha, 1, 8, 10, 0)

    @pytest.mark.parametrize("target", [0, -3, 2.0, "8", None], ids=repr)
    def test_target_length_validation(self, target, monkeypatch):
        # rejected before any trial runs, by a message naming the argument
        monkeypatch.setattr(montecarlo, "estimate_quality", None)
        with pytest.raises(ValueError, match="^target_length must be an integer >= 1, got "):
            threshold_experiment(target, 0.2, 1, 8, 10, 0)

    @pytest.mark.parametrize("name, value", [
        ("alpha", math.nan), ("alpha", math.inf), ("epsilon", math.nan), ("epsilon", math.inf),
    ], ids=repr)
    def test_alpha_and_epsilon_must_be_finite(self, name, value, monkeypatch):
        monkeypatch.setattr(montecarlo, "estimate_quality", None)
        arguments = {"alpha": 0.2, "epsilon": 1, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            threshold_experiment(8, arguments["alpha"], arguments["epsilon"], 8, 10, 0)

    def test_negative_infinities_keep_their_messages(self):
        with pytest.raises(ValueError, match="^alpha must be positive$"):
            threshold_experiment(8, -math.inf, 1, 8, 10, 0)
        with pytest.raises(ValueError, match="^epsilon must be strictly positive$"):
            threshold_experiment(8, 0.2, -math.inf, 8, 10, 0)

    def test_an_integral_target_of_any_type_is_accepted(self):
        report = threshold_experiment(np.int64(8), Fraction(1, 5), 1, 8, 10, 0)
        assert report.n_pairs == 48  # ceil((5 + 1) * 8)

    @pytest.mark.parametrize("block_size", [2.5, 8.0, Fraction(8)], ids=repr)
    def test_a_fractional_block_size_is_rejected_before_any_trial(self, block_size, monkeypatch):
        monkeypatch.setattr(montecarlo, "estimate_quality", None)
        with pytest.raises(ValueError, match="^block_size must be an integer, got "):
            threshold_experiment(8, 0.1, 1, block_size, 10, 0)

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            threshold_experiment(40, 0.2, 0.5, 8, 10, 1, direction="sideways")

    def test_sufficient_fraction_grows_with_target(self):
        # rate matched to the block size (blocks of 8 yield 137/2048 per
        # pair) plus headroom: the success fraction climbs toward one
        alpha = float(Fraction(137, 2048))
        fractions = [
            threshold_experiment(target, alpha, 0.5, 8, trials=150, seed=77).fraction
            for target in (20, 40, 80)
        ]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] >= 0.99

    @settings(max_examples=200, deadline=None)
    @given(target=st.integers(1, 10 ** 4), alpha=RATES, epsilon=RATES)
    def test_pairs_are_the_ceiling_of_the_inverse_bounds(self, target, alpha, epsilon):
        # both take the pair budget of cluster_forge.bounds, so both
        # directions hand over the ceiling of their inverse_resource_bounds
        # entry or raise its message
        spy = mock.Mock(return_value=SimpleNamespace(success_count=0))
        expected = outcome(lambda: [math.ceil(pairs) for pairs in inverse_resource_bounds(
            target, float(alpha), float(epsilon))])
        if isinstance(expected, str):
            # epsilon >= 1/alpha: only the minus sign leaves no positive budget
            expected = [math.ceil((1 / float(alpha) + float(epsilon)) * target), expected]
        for direction, want in zip(("sufficient", "insufficient"), expected):
            spy.reset_mock()
            with mock.patch.object(montecarlo, "estimate_quality", spy):
                got = outcome(lambda: threshold_experiment(target, alpha, epsilon, 8, 10, 0,
                                                           direction=direction))
            if isinstance(want, str):
                assert (got, spy.called) == (want, False)
            else:
                assert spy.call_args.args[1] == epr(want)
                assert got.n_pairs == want

    def test_insufficient_budget_stays_away_from_one(self):
        # below the universal five-pairs-per-edge rate nothing can reach
        # the target reliably
        report = threshold_experiment(
            60, 0.2, 0.5, 8, trials=300, seed=78, direction="insufficient"
        )
        assert report.n_pairs == 270
        assert report.fraction <= 0.5


# the benchmark's bound on a count's distance from its exact mean
Z_LIMIT = 5


def reach_probability(strategy, start, threshold, max_total_length=14) -> Fraction:
    """Exact P(final length >= threshold) from the event-tree oracle."""
    oracle = event_tree_oracle(strategy, start, Fraction(1, 2), max_total_length)
    return sum((prob for final, prob in oracle.distribution.items()
                if final.total_length >= threshold), Fraction(0))


def assert_count_near(successes, trials, probability):
    """``successes`` lies within Z_LIMIT standard deviations of the
    binomial mean ``trials * probability``."""
    mean = trials * probability
    assert abs(successes - mean) <= Z_LIMIT * math.sqrt(mean * (1 - probability))


class TestThresholdCountsMatchTheOracle:
    """A Monte Carlo success count estimates the exact probability that
    the final length reaches the threshold. Every seed was fixed before
    the first run."""

    @pytest.mark.parametrize("strategy, seed", [(MODESTY, 9101), (GREED, 9102), (STATIC, 9103)],
                             ids=lambda x: getattr(x, "name", x))
    @pytest.mark.parametrize("threshold", [4, 7])
    def test_twelve_pairs(self, strategy, seed, threshold):
        trials = 4000
        probability = reach_probability(strategy, epr(12), threshold)
        assert 0 < probability < 1
        report = estimate_quality(strategy, epr(12), 0.5, trials, seed, threshold=threshold)
        assert_count_near(report.success_count, trials, probability)

    def test_a_stage_one_block_pair(self):
        # 16 pairs, two blocks of 8, then one insistent pair
        trials = 2000
        report = threshold_experiment(2, 0.1, 2, 8, trials, 9116, direction="insufficient")
        assert report.n_pairs == 16
        probability = reach_probability(TwoStage(8, MODESTY), epr(16), 2, max_total_length=16)
        assert probability == Fraction(1906681, 2097152)
        assert_count_near(report.successes, trials, probability)


OPTIMAL_12 = build_quality_table(12).as_strategy()


class TestFinalLengthsMatchTheExactDistribution:
    """Seeded Monte Carlo final lengths against their exact distribution,
    pushed through the event DAG in time linear in its states
    (``conftest.final_length_distribution``), which is first checked
    against the event-tree oracle. Every seed was fixed before the first
    run."""

    @pytest.mark.parametrize("strategy", [MODESTY, GREED, STATIC, OPTIMAL_12],
                             ids=["modesty", "greed", "static", "optimal-12"])
    def test_the_pushed_distribution_is_the_oracles(self, strategy):
        for start in enumerate_configurations(12):
            by_length: dict = {}
            for final, probability in event_tree_oracle(strategy, start).distribution.items():
                by_length[final.total_length] = by_length.get(final.total_length, 0) + probability
            assert final_length_distribution(
                strategy, strategy.start(start), Fraction(1, 2)) == by_length, start

    @pytest.mark.parametrize("strategy, n, seed", [
        (MODESTY, 16, 9201), (MODESTY, 20, 9202), (MODESTY, 28, 9203),
        (GREED, 16, 9204), (GREED, 20, 9205), (GREED, 28, 9206), ("optimal-28", 28, 9207),
    ], ids=lambda x: getattr(x, "name", x))
    def test_seeded_estimates_lie_near_the_exact_values(self, strategy, n, seed):
        """The success count lies within Z_LIMIT standard deviations of
        its exact mean, and the mean within Z_LIMIT standard errors of the
        exact mean, which is the memoized quality."""
        trials, threshold = 4000, 5
        if strategy == "optimal-28":
            strategy = build_quality_table(28).as_strategy()
        distribution = final_length_distribution(strategy, strategy.start(epr(n)), Fraction(1, 2))
        mean = sum(length * probability for length, probability in distribution.items())
        assert mean == strategy_quality(strategy, epr(n))
        probability = sum(p for length, p in distribution.items() if length >= threshold)
        assert 0 < probability < 1
        report = estimate_quality(strategy, epr(n), 0.5, trials, seed, threshold=threshold)
        assert_count_near(report.success_count, trials, probability)
        assert abs(report.mean - mean) <= Z_LIMIT * report.stderr


def scalar_estimate(strategy, start, ps, trials, seed, threshold=None):
    """estimate_quality with every chunk played by the scalar players, the
    reference the array engine must reproduce bit for bit."""
    with mock.patch.object(montecarlo, "_play_chunk", lambda *args: None):
        return estimate_quality(strategy, start, ps, trials, seed, threshold)


# "capped" walks under a table cap so small that a table restarts at
# nearly every gather that fills an entry.
CAPS = {"uncapped": montecarlo._TABLE_STATES, "capped": 40}


@contextlib.contextmanager
def on_tables(cap="uncapped"):
    """Every run of a chunk walks its event table under the table cap
    ``cap``, and no chunk falls back to the scalar player; yields a spy
    on the walk."""
    walk = montecarlo._walk_table

    def walk_or_refuse(*args):
        walked = walk(*args)
        if walked is None:
            raise AssertionError("a chunk fell back to the scalar player")
        return walked

    spy = mock.Mock(wraps=walk_or_refuse)
    with mock.patch.object(montecarlo, "_TABLE_STATES", CAPS[cap]), \
            mock.patch.object(montecarlo, "_walk_table", spy):
        yield spy


def fill_all(table):
    """Fill every step entry of every state the table reaches: the whole
    event DAG, numbered as a lazy walk numbers it."""
    filled = 0
    while filled < len(table.states):
        numbered = len(table.states)
        assert table.fill(np.arange(16 * filled, 16 * numbered))
        filled = numbered
    return table


def chunk_wins(start, trials=500, seed=8, p=0.5):
    return montecarlo._chunk_wins(seed, 0, trials, montecarlo._draws_bound(start), p)


PS_VALUES = [Fraction(0), Fraction(137, 2048), Fraction(1, 2), Fraction(1)]
ps_values = st.sampled_from(PS_VALUES + [float(ps) for ps in PS_VALUES])
starts = st.sampled_from([
    epr(12), parse_key("1^3,2^2,5^1"), Configuration.single_chain(9), Configuration(),
]) | st.lists(st.integers(1, 6), max_size=10).map(Configuration.from_lengths)


OPTIMAL_10 = build_quality_table(10).as_strategy()


class LargestFirstModesty(Modesty):
    """A subclass of Modesty that decides as Greed."""

    decide = Greed.decide


class RenamedTwoStage(TwoStage):
    """A TwoStage subclass: one run of itself, not a run per block."""


LOOKUP_8 = LookupStrategy({canonical_key(config): action
                           for config, _, action in build_quality_table(8).items()}, "lookup-8")


class ListMemory(StatefulStrategy):
    """Smallest-first in the identity picture with a list as its memory,
    which breaks the hashable contract: no event table can number its
    states, and the scalar player plays it all the same."""

    name = "list-memory"
    adapter = IdentityAdapter(MODESTY)

    def initial_memory(self, chains):
        return []

    def decide(self, chains, memory):
        return self.adapter.decide(chains, None)

    def next_memory(self, chains, memory, action, outcome, result):
        return memory + [outcome]


class TestChunkEngine:
    """The array engine against the scalar players."""

    @pytest.mark.parametrize("cap", CAPS)
    @settings(max_examples=60, deadline=None)
    @given(strategy=st.sampled_from([MODESTY, GREED]), start=starts, ps=ps_values,
           seed=st.integers(0, 2 ** 32 - 1), trials=st.integers(1, 300),
           threshold=st.none() | st.integers(0, 20))
    def test_modesty_and_greed(self, cap, strategy, start, ps, seed, trials, threshold):
        args = (strategy, start, ps, trials, seed, threshold)
        with on_tables(cap) as walk:
            assert estimate_quality(*args) == scalar_estimate(*args)
        assert walk.called

    @pytest.mark.parametrize("cap", CAPS)
    @settings(max_examples=60, deadline=None)
    @given(block_size=st.sampled_from([2, 3, 5, 8]), inner=st.sampled_from([MODESTY, GREED]),
           start=starts | st.integers(0, 40).map(epr), ps=ps_values,
           seed=st.integers(0, 2 ** 32 - 1), trials=st.integers(1, 200))
    @example(block_size=2, inner=MODESTY, start=epr(80), ps=0.5, seed=1, trials=200)
    def test_two_stage(self, cap, block_size, inner, start, ps, seed, trials):
        args = (TwoStage(block_size, inner), start, ps, trials, seed, start.total_length // 2)
        with on_tables(cap) as walk:
            assert estimate_quality(*args) == scalar_estimate(*args)
        assert walk.called == (start.chain_count > 0)

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("strategy, n", [(MODESTY, 8), (GREED, 8), (STATIC, 19)])
    def test_chunk_remainder(self, cap, strategy, n):
        args = (strategy, epr(n), Fraction(1, 2), TRIAL_CHUNK + 257, 3, 4)
        with on_tables(cap) as walk:
            assert estimate_quality(*args) == scalar_estimate(*args)
        assert walk.called

    @settings(max_examples=60, deadline=None)
    @given(start=st.sampled_from([epr(5), parse_key("1^3,2^2,3^1"), Configuration.single_chain(10),
                                  Configuration()])
           | st.lists(st.integers(1, 4), max_size=6).map(Configuration.from_lengths)
           .filter(lambda config: config.total_length <= 10),
           ps=ps_values, seed=st.integers(0, 2 ** 32 - 1), trials=st.integers(1, 300),
           threshold=st.none() | st.integers(0, 10))
    def test_optimal_table(self, start, ps, seed, trials, threshold):
        args = (OPTIMAL_10, start, ps, trials, seed, threshold)
        with on_tables() as walk:
            assert estimate_quality(*args) == scalar_estimate(*args)
        assert walk.called

    def test_optimal_table_beyond_its_n_plays_on_the_scalar_player(self):
        assert montecarlo._play_chunk(OPTIMAL_10, epr(11), chunk_wins(epr(11)),
                                       montecarlo._plan(OPTIMAL_10, epr(11))) is None
        with pytest.raises(InvalidStrategy, match="no decision available"):
            estimate_quality(OPTIMAL_10, epr(11), 0.5, trials=100, seed=1)

    def test_an_invalid_table_plays_on_the_scalar_player(self):
        table = build_quality_table(8)
        table.action_ids[table.rank(epr(4))] = table.actions.index(STOP)
        strategy = table.as_strategy()
        assert montecarlo._play_chunk(strategy, epr(4), chunk_wins(epr(4)),
                                       montecarlo._plan(strategy, epr(4))) is None
        with pytest.raises(InvalidStrategy) as err:
            estimate_quality(strategy, epr(4), 0.5, trials=100, seed=1)
        assert (err.value.event, err.value.message) == ("", "premature stop with 4 chains")

    @pytest.mark.parametrize("strategy, start, states", [
        (MODESTY, epr(12), 55), (GREED, epr(12), 43), (STATIC, epr(64), 24),
        (OPTIMAL_10, epr(5), 9), (TwoStage(3, GREED), epr(9), 4),
        (IdentityAdapter(MODESTY), epr(12), 63),
    ], ids=["modesty", "greed", "static", "optimal", "two-stage", "identity-adapter"])
    def test_a_filled_table_is_the_event_dag(self, strategy, start, states):
        """Every entry filled, a run's table numbers each state of its
        event DAG once; a walk fills no more of it."""
        tables = list(dict.fromkeys(montecarlo._plan(strategy, start)))  # the distinct ones
        assert [len(fill_all(table).states) for table in tables] == [states]
        dag = set().union(*(event_dag(table.strategy, table.root) for table in tables))
        assert {state for table in tables for state in table.states} == dag
        plan = montecarlo._plan(strategy, start)
        wins = chunk_wins(start, TRIAL_CHUNK)
        montecarlo._play_chunk(strategy, start, wins, plan)
        assert all(len(table.states) <= states for table in plan)

    def test_a_two_stage_run_has_one_table_per_distinct_block(self):
        plan = montecarlo._plan(TwoStage(8, GREED), epr(20))
        assert [table.root for table in plan] == [epr(8), epr(8), epr(4)]
        assert plan[0] is plan[1]
        for table in dict.fromkeys(plan):  # the distinct ones
            alone = montecarlo._plan(GREED, table.root)[0]
            assert table.strategy is GREED
            fill_all(table), fill_all(alone)
            assert table.states == alone.states
            assert table.rows == alone.rows

    def test_a_walk_expands_only_the_states_its_trials_visit(self):
        """A chunk decides once at each state one of its trials stands on,
        as the scalar player does, and nowhere else, though the event DAG
        from 200 pairs holds far more states."""
        start, trials = epr(200), 300
        wins = chunk_wins(start, trials)
        visited = set()
        recording = mock.Mock(side_effect=lambda state: visited.add(state) or
                              Modesty.choose(MODESTY, state))
        with mock.patch.object(MODESTY, "choose", recording):
            for row in wins:
                montecarlo._play(MODESTY, start, row)
            played, visited = visited, set()
            recording.reset_mock()
            plan = montecarlo._plan(MODESTY, start)
            montecarlo._play_chunk(MODESTY, start, wins, plan)
        table = plan[0]
        expanded = [state for state, row in zip(table.states, table.rows) if row]
        assert recording.call_count == len(expanded) == len(visited)
        assert set(expanded) == visited == played

    @pytest.mark.parametrize("strategy, like_greed", [
        (LargestFirstModesty(), GREED), (TwoStage(4, LargestFirstModesty()), TwoStage(4, GREED)),
    ], ids=["subclass", "two-stage-of-subclass"])
    def test_subclasses_walk_their_own_tables(self, strategy, like_greed):
        """A subclass of Modesty that decides as Greed walks its own event
        table and plays as Greed."""
        args = (epr(10), 0.5, 500, 8, 10)
        greed = estimate_quality(like_greed, *args)
        with on_tables() as walk:
            ours = estimate_quality(strategy, *args)
        assert walk.called
        assert (ours.mean, ours.stderr, ours.success_count) == (
            greed.mean, greed.stderr, greed.success_count)

    @pytest.mark.parametrize("strategy, start", [
        (IdentityAdapter(MODESTY), epr(12)), (LOOKUP_8, epr(8)),
        (RenamedTwoStage(3, GREED), epr(9)),
    ], ids=["identity-adapter", "lookup", "two-stage-subclass"])
    def test_any_strategy_walks_its_table(self, strategy, start):
        args = (strategy, start, 0.5, TRIAL_CHUNK + 100, 5, start.total_length // 2)
        expected = scalar_estimate(*args)
        assert [table.root for table in montecarlo._plan(strategy, start)] == [
            strategy.start(start)]
        with on_tables() as walk:
            assert estimate_quality(*args) == expected
            assert walk.called
            assert estimate_quality(*args, processes=2) == expected

    @pytest.mark.parametrize("strategy, start, blocks", [
        (TwoStage(8, OPTIMAL_10), epr(20), [epr(8), epr(8), epr(4)]),
        (TwoStage(3, LOOKUP_8), epr(10), [epr(3), epr(3), epr(3), epr(1)]),
    ], ids=["optimal", "lookup"])
    def test_a_plain_inner_strategy_walks_its_block_tables(self, strategy, start, blocks):
        """A two-stage strategy whose inner strategy keeps Strategy's own
        process plays one run of it per block, whatever its class."""
        args = (strategy, start, 0.5, TRIAL_CHUNK + 100, 5, start.total_length // 2)
        expected = scalar_estimate(*args)
        plan = montecarlo._plan(strategy, start)
        assert [table.root for table in plan] == blocks
        assert plan[0] is plan[1]
        with on_tables() as walk:
            assert estimate_quality(*args) == expected
            assert walk.called
            assert estimate_quality(*args, processes=2) == expected

    def test_an_inner_strategy_with_its_own_process_is_one_run(self):
        """Inflater starts from more pairs than it is given, so its runs
        are not the blocks TwoStage plays: the two-stage strategy is one
        run of itself, and plays like TwoStage(4, MODESTY)."""
        strategy = TwoStage(4, Inflater())
        [table] = montecarlo._plan(strategy, epr(10))
        assert (table.strategy, table.root) == (strategy, strategy.start(epr(10)))
        args = (epr(10), 0.5, 500, 8, 10)
        ours, modesty = estimate_quality(strategy, *args), estimate_quality(TwoStage(4), *args)
        assert (ours.mean, ours.stderr, ours.success_count) == (
            modesty.mean, modesty.stderr, modesty.success_count)

    def test_a_start_state_past_the_win_row_has_no_table(self):
        assert montecarlo._plan(Inflater(), epr(2)) == [None]
        assert montecarlo._play_chunk(Inflater(), epr(2), chunk_wins(epr(2)),
                                       montecarlo._plan(Inflater(), epr(2))) is None
        with pytest.raises(InvalidStrategy) as err:
            estimate_quality(Inflater(), epr(2), 1.0, trials=10, seed=0)
        assert (err.value.start, err.value.event, err.value.message) == (
            epr(2), "SSSS", "more than 4 attempts from a start of 4 vertices; every attempt "
            "removes a vertex")

    def test_unhashable_states_play_on_the_scalar_player(self):
        assert montecarlo._play_chunk(ListMemory(), epr(12), chunk_wins(epr(12)),
                                       montecarlo._plan(ListMemory(), epr(12))) is None
        args = (epr(12), 0.5, 300, 4, 8)
        ours = estimate_quality(ListMemory(), *args)
        modesty = estimate_quality(MODESTY, *args)
        assert (ours.mean, ours.stderr, ours.success_count) == (
            modesty.mean, modesty.stderr, modesty.success_count)

    @pytest.mark.parametrize("strategy, engine", [
        (STATIC, "_pairing_round"), (MODESTY, "_walk_table"), (GREED, "_walk_table"),
        (STATIC, "_walk_table"), (OPTIMAL_10, "_walk_table"),
    ])
    def test_broken_conservation_raises(self, monkeypatch, strategy, engine):
        original = getattr(montecarlo, engine)

        def one_failure_too_many(*args):
            result, failures = original(*args)
            failures[0] += 1
            return result, failures

        monkeypatch.setattr(montecarlo, engine, one_failure_too_many)
        with pytest.raises(RuntimeError, match="edge conservation"):
            estimate_quality(strategy, epr(5 if strategy is OPTIMAL_10 else 16), 0.5,
                             trials=50, seed=3)

    def test_a_chunk_walk_stays_within_four_bytes_a_draw(self):
        start = epr(200)
        wins = chunk_wins(start, TRIAL_CHUNK, seed=5)
        montecarlo._play_chunk(MODESTY, epr(8), wins[:, :16],  # warm the strategy
                               montecarlo._plan(MODESTY, epr(8)))
        tracemalloc.start()
        try:
            plan = montecarlo._plan(MODESTY, start)
            montecarlo._play_chunk(MODESTY, start, wins, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The table's 8,768 states peak at about 5.2 MB, 3.2 bytes a
        # draw: about 590 B a state, mostly the configurations, then the
        # numbering, the rows and the step entries.
        assert len(plan[0].states) == 8768
        assert peak < 4 * wins.size


class TestTableCap:
    """A table that would pass its cap restarts from its trials' states,
    which changes no result."""

    def test_the_cap_holds_a_whole_chunks_fill(self):
        assert montecarlo._TABLE_STATES >= 11 * TRIAL_CHUNK + 3

    def test_a_capped_run_equals_an_uncapped_one(self, monkeypatch):
        start, trials = epr(200), 300
        args = (MODESTY, start, 0.5, trials, 6, 60)
        uncapped = estimate_quality(*args)
        cap = 11 * trials + 3
        sizes, restarts = [], []
        restart, walk = montecarlo._EventTable.restart, montecarlo._walk_table

        def spy_restart(table, state):
            restarts.append(len(table.states))
            return restart(table, state)

        def spy_walk(table, wins, attempts):
            walked = walk(table, wins, attempts)
            sizes.append(max(len(table.states), len(table.final_length)))
            return walked

        monkeypatch.setattr(montecarlo, "_TABLE_STATES", cap)
        monkeypatch.setattr(montecarlo._EventTable, "restart", spy_restart)
        monkeypatch.setattr(montecarlo, "_walk_table", spy_walk)
        assert estimate_quality(*args) == uncapped == scalar_estimate(*args)
        assert restarts and max(restarts + sizes) <= cap

    def test_the_arrays_grow_by_half_and_not_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_TABLE_STATES", 150)
        table = montecarlo._plan(MODESTY, epr(12))[0]
        sizes = []
        for state in range(1, 200):  # any hashable value numbers as a state
            table._number(state)
            sizes.append(len(table.final_length))
        # a table that a small cap leaves past it grows by half again
        assert sorted(set(sizes)) == [64, 96, 144, 150, 225]
        assert table.steps.size == 16 * 225

    def test_a_restart_keeps_the_start_and_the_live_states(self):
        table = montecarlo._plan(MODESTY, epr(12))[0]
        fill_all(table)
        live = np.array([0, 7, 3, 7, 0, 12], np.uint32)
        kept = [table.states[i] for i in live]
        renumbered = table.restart(live)
        assert table.states[0] == MODESTY.start(epr(12))
        assert [table.states[i] for i in renumbered] == kept
        assert table.rows == [None] * 4


class QuitsAtSixPairs(Modesty):
    """Smallest-first that stops at six lone pairs, which from 30 pairs
    twelve failures in a row reach: a broken state one trial in about
    4096 meets at ps 1/2."""

    name = "quits-at-six-pairs"

    def decide(self, config):
        return STOP if config == epr(6) else Modesty.decide(self, config)


def test_a_state_first_broken_in_a_later_chunk_raises_the_scalar_players_error():
    """Chunk 0 walks its table; chunk 1 meets the broken state and plays on
    the scalar player, which raises the first breaking trial's error."""
    strategy, start = QuitsAtSixPairs(), epr(30)
    outcomes = {}

    def first_chunks(seed):
        plan = montecarlo._plan(strategy, start)
        return [montecarlo._play_chunk(strategy, start, montecarlo._chunk_wins(
            seed, chunk, TRIAL_CHUNK, montecarlo._draws_bound(start), 0.5), plan) is None
            for chunk in (0, 1)]

    seed = next(seed for seed in range(100) if first_chunks(seed) == [False, True])
    args = (strategy, start, 0.5, 2 * TRIAL_CHUNK, seed)
    for name, run in [("arrays", estimate_quality), ("scalar", scalar_estimate)]:
        with pytest.raises(InvalidStrategy) as err:
            run(*args)
        outcomes[name] = (err.value.start, err.value.event, err.value.message)
    assert outcomes["arrays"] == outcomes["scalar"]
    assert outcomes["arrays"][1:] == ("F" * 12, "premature stop with 6 chains")


def four_single_steps(table, state, bits):
    """Four attempts from ``state`` through the one-attempt rows, attempt
    i won when bit i of ``bits`` is set: the state after them, whether it
    is terminal, and the attempts taken and lost before a terminal state
    was reached."""
    taken = lost = 0
    for i in range(4):
        if table.rows[state][0] == state:
            break
        won = bits >> i & 1
        state = table.rows[state][won]
        taken += 1
        lost += not won
    return state, table.rows[state][0] == state, taken, lost


def assert_steps_are_four_single_steps(table, every=True):
    """Each filled step entry is four single steps; with ``every``, each
    entry is filled."""
    filled = 0
    for state in range(len(table.states)):
        for bits in range(16):
            entry = int(table.steps[16 * state + bits])
            if entry == 0:
                assert not every, (state, bits)
                continue
            filled += 1
            assert (entry >> 7, bool(entry >> 6 & 1), entry >> 3 & 7, entry & 7) == \
                four_single_steps(table, state, bits), (state, bits)
    assert filled


class ReadRow:
    """A win row that counts the bits the scalar player reads of it, and
    how many of them lose."""

    def __init__(self, row):
        self.row, self.reads, self.losses = row, 0, 0

    def __len__(self):
        return len(self.row)

    def __getitem__(self, i):
        assert i == self.reads  # each bit once, in order
        self.reads += 1
        self.losses += not self.row[i]
        return self.row[i]


class TestStepTables:
    """A table walk takes four attempts per gather of its step table; each
    step is four single steps, and each walk is the scalar player's."""

    @settings(max_examples=40, deadline=None)
    @given(strategy=st.sampled_from([MODESTY, GREED]), start=starts)
    def test_smallest_and_largest_first(self, strategy, start):
        for table in montecarlo._plan(strategy, start):
            assert_steps_are_four_single_steps(fill_all(table))

    @pytest.mark.parametrize("strategy, start", [
        (OPTIMAL_10, epr(5)), (OPTIMAL_10, parse_key("1^3,2^2,3^1")),
        (TwoStage(3, GREED), epr(20)), (TwoStage(5, MODESTY), epr(23)), (STATIC, epr(64)),
    ], ids=["optimal-1^5", "optimal-mixed", "two-stage-3", "two-stage-5", "static"])
    def test_optimal_table_and_two_stage_blocks(self, strategy, start):
        plan = montecarlo._plan(strategy, start)
        assert plan
        for table in plan:
            assert_steps_are_four_single_steps(fill_all(table))

    @pytest.mark.parametrize("strategy, start", [(MODESTY, epr(40)), (GREED, epr(40))],
                             ids=["modesty", "greed"])
    def test_a_walked_table_holds_only_four_single_steps(self, strategy, start):
        plan = montecarlo._plan(strategy, start)
        montecarlo._play_chunk(strategy, start, chunk_wins(start, 200), plan)
        assert_steps_are_four_single_steps(plan[0], every=False)

    @pytest.mark.parametrize("ps", [0.0, 137 / 2048, 0.5, 1.0])
    @pytest.mark.parametrize("strategy", [MODESTY, GREED, OPTIMAL_10],
                             ids=["modesty", "greed", "optimal"])
    @pytest.mark.parametrize("start", [
        epr(2), Configuration.from_lengths([1, 2, 3]), parse_key("1^3,2^2,3^1"), epr(5),
    ], ids=["1^2", "1,2,3", "mixed", "1^5"])
    def test_walks_resume_at_every_bit_offset(self, start, strategy, ps):
        # Row t resumes at bit t % 8 and holds one bit a vertex past it,
        # so rows are not a whole number of bytes or words long, and the
        # last trial's walk can read up to the chunk's last bit (from 1^2
        # its one step reads its whole row).
        table = montecarlo._plan(strategy, start)[0]
        trials = 8 * 7 + 3
        draws = start.vertex_count + 7
        wins = montecarlo._chunk_wins(41, 2, trials, draws, ps)
        offsets = np.arange(trials) % 8
        offsets[-1] = 7
        attempts = offsets.copy()
        finals, failures = montecarlo._walk_table(table, wins, attempts)
        for t, row in enumerate(wins):
            read = ReadRow(row[offsets[t]:offsets[t] + start.vertex_count])
            final = montecarlo._play(strategy, start, read).total_length
            assert (finals[t], failures[t], attempts[t]) == (
                final, read.losses, offsets[t] + read.reads), t

    @pytest.mark.parametrize("block_size", [3, 5])
    def test_two_stage_blocks_resume_at_every_bit_offset(self, block_size):
        offsets = set()
        walk = montecarlo._walk_table

        def spy(table, wins, attempts):
            offsets.update((attempts % 8).tolist())
            return walk(table, wins, attempts)

        args = (TwoStage(block_size, GREED), epr(37), 0.5, 600, 5, 12)
        with mock.patch.object(montecarlo, "_walk_table", spy):
            assert estimate_quality(*args) == scalar_estimate(*args)
        assert offsets == set(range(8))

    @pytest.mark.parametrize("trials", [1, TRIAL_CHUNK + 257])
    @pytest.mark.parametrize("strategy, start", [
        (MODESTY, epr(13)), (GREED, parse_key("1^5,2^1,4^1")), (OPTIMAL_10, epr(5)),
        (TwoStage(3, MODESTY), epr(11)),
    ], ids=["modesty", "greed", "optimal", "two-stage"])
    def test_one_trial_and_a_chunk_remainder(self, strategy, start, trials):
        args = (strategy, start, Fraction(1, 2), trials, 17, 5)
        with on_tables() as walk:
            assert estimate_quality(*args) == scalar_estimate(*args)
        assert walk.called

    def test_step_tables_stay_small(self):
        # smallest-first from 64 pairs: 4,582 states, all of them filled
        fill_all(montecarlo._plan(MODESTY, epr(8))[0])  # warm the strategy
        tracemalloc.start()
        try:
            table = fill_all(montecarlo._plan(MODESTY, epr(64))[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        states = len(table.states)
        assert states == 4582
        # 16 four-byte entries a state, in arrays that grow by half
        assert table.steps.nbytes <= 100 * states
        # Filling peaks at about 620 B a state, mostly the configurations;
        # building 256 entries a state (eight attempts a gather) alone
        # would take about 6 KB a state.
        assert peak < 1000 * states


TINY_STARTS = [Configuration(), epr(1), parse_key("2^1")]


class TestPaddedWalks:
    """A start of at most three vertices holds one chain or none, so it
    is terminal; a chunk from it of fewer than four win bits is padded to
    one word, and every trial ends where it started."""

    @pytest.mark.parametrize("trials", [1, 2, 3])
    @pytest.mark.parametrize("start", TINY_STARTS, ids=["empty", "1^1", "2^1"])
    @pytest.mark.parametrize("strategy", [MODESTY, GREED, OPTIMAL_12],
                             ids=["modesty", "greed", "optimal"])
    def test_a_walk_from_a_tiny_start_takes_no_attempt(self, strategy, start, trials):
        table = montecarlo._plan(strategy, start)[0]
        draws = montecarlo._draws_bound(start)
        wins = montecarlo._chunk_wins(3, 0, trials, draws, 0.5)
        attempts = np.arange(trials) % (draws + 1)
        before = attempts.copy()
        finals, failures = montecarlo._walk_table(table, wins, attempts)
        assert finals.tolist() == [start.total_length] * trials
        assert failures.tolist() == [0] * trials
        assert attempts.tolist() == before.tolist()

    @pytest.mark.parametrize("trials", [1, 2, 3])
    @pytest.mark.parametrize("start", TINY_STARTS, ids=["empty", "1^1", "2^1"])
    @pytest.mark.parametrize("strategy", [MODESTY, GREED, OPTIMAL_12],
                             ids=["modesty", "greed", "optimal"])
    def test_estimates_from_a_tiny_start_are_the_scalar_players(self, strategy, start, trials):
        args = (strategy, start, 0.5, trials, 23, 1)
        with on_tables() as walk:
            assert estimate_quality(*args) == scalar_estimate(*args)
        assert walk.called


@pytest.mark.parametrize("threshold", [None, 9])
def test_scalar_chunk_sums_equal_float_sums_trial_by_trial(threshold):
    """A chunk played by the scalar player is summed in int64 like an
    array-engine chunk; the sums equal the float sums of its trials."""
    strategy, start = LargestFirstModesty(), parse_key("1^7,2^3,4^1")
    wins = montecarlo._chunk_wins(11, 1, 700, montecarlo._draws_bound(start), 0.5)
    total = total_sq = 0.0
    successes = 0
    for row in wins:
        final = montecarlo._play(strategy, start, row).total_length
        total += final
        total_sq += final * final
        successes += threshold is not None and final >= threshold
    plan = montecarlo._plan(strategy, start)
    assert montecarlo._chunk_stats(strategy, start, 0.5, 11, threshold, plan, 1, 700) == (
        total, total_sq, successes)


class RecordingPool:
    """Stands in for ProcessPoolExecutor, running every job in-process."""

    sizes: list = []
    chunksizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        self.chunksizes.append(chunksize)
        return map(fn, *iterables)


def test_pool_has_no_more_workers_than_chunks(monkeypatch):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "chunksizes", [])
    args = (MODESTY, epr(6), 0.5, TRIAL_CHUNK + 904, 9)
    wide = estimate_quality(*args, processes=64)
    narrow = estimate_quality(*args, processes=1)
    assert RecordingPool.sizes == [2]
    assert wide == narrow


def test_each_worker_gets_one_batch_of_chunks(monkeypatch):
    # one batch a worker is pickled once, with the plan its chunks share
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "chunksizes", [])
    args = (GREED, epr(10), 0.5, 4 * TRIAL_CHUNK + 1, 12)
    pooled = [estimate_quality(*args, processes=processes) for processes in (2, 3, 5)]
    assert RecordingPool.sizes == [2, 3, 5]
    assert RecordingPool.chunksizes == [3, 2, 1]
    assert pooled == [estimate_quality(*args, processes=1)] * 3


def test_the_pool_module_is_imported_only_for_a_pool():
    code = ("import sys; import cluster_forge.cli; "
            "assert 'concurrent.futures.process' not in sys.modules; "
            "assert 'multiprocessing' not in sys.modules")
    package_root = str(Path(montecarlo.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": package_root},
                   check=True, timeout=120)


class TestInputChecks:
    @pytest.mark.parametrize("run", [estimate_quality, simulate_run], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("ps", [1.5, -0.5, float("nan"), Fraction(3, 2), float("inf")],
                             ids=repr)
    def test_success_probability_outside_unit_interval_is_rejected(self, run, ps):
        with pytest.raises(ValueError, match=r"success probability must be in \[0, 1\], got "):
            run(MODESTY, epr(4), ps, 10, 1)

    @pytest.mark.parametrize("trial_index", [-1, TRIAL_CHUNK * 2 ** 128])
    def test_trial_index_outside_the_streams_is_rejected(self, trial_index):
        with pytest.raises(ValueError, match="trial_index must be in"):
            simulate_run(MODESTY, epr(4), 0.5, seed=1, trial_index=trial_index)
        assert simulate_run(MODESTY, epr(4), 0.5, seed=1, trial_index=TRIAL_CHUNK * 2 ** 128 - 1)

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    @pytest.mark.parametrize("run", [
        lambda seed: estimate_quality(MODESTY, epr(4), 0.5, 10, seed),
        lambda seed: simulate_run(MODESTY, epr(4), 0.5, seed),
        lambda seed: threshold_experiment(8, Fraction(137, 2048), 1, 8, 10, seed),
    ], ids=["estimate_quality", "simulate_run", "threshold_experiment"])
    def test_seed_outside_the_philox_keys_is_rejected(self, run, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*128\), got "):
            run(seed)
        run(2 ** 128 - 1)

    @pytest.mark.parametrize("processes", [0, -3])
    def test_fewer_than_one_process_is_rejected(self, processes):
        with pytest.raises(ValueError, match="processes"):
            estimate_quality(MODESTY, epr(4), 0.5, 10, 1, processes=processes)

    def test_zero_success_probability_is_allowed(self):
        assert estimate_quality(STATIC, epr(8), 0, 10, 1).mean == 0.0

    def test_threshold_experiment_checks_its_success_probability(self):
        with pytest.raises(ValueError, match="success probability"):
            threshold_experiment(8, Fraction(137, 2048), 1, block_size=8, trials=10, seed=0,
                                 ps=1.5)


def float_uniforms(seed: int, counter: int, count: int, skip: int = 0) -> np.ndarray:
    """What ``Generator.random`` draws from ``Philox(key=seed,
    counter=counter)``, past its first ``skip`` doubles."""
    bitgen = np.random.Philox(key=seed, counter=counter)
    return np.random.Generator(bitgen).random(skip + count)[skip:]


def word_uniforms(words) -> np.ndarray:
    return (np.asarray(words, np.uint64) >> np.uint64(11)) * 2.0 ** -53


class TestWinBits:
    """Raw Philox words thresholded by the integer cut decide every attempt
    as the float uniform compared with p would."""

    # 2**256 - 3 carries the counter past 2**256 inside the read
    @pytest.mark.parametrize("counter", [0, 3 << 128, (2 ** 128 - 1) << 128, 2 ** 256 - 3])
    @pytest.mark.parametrize("block", [1, 3, 5, 8, 1 << 16])
    def test_word_blocks_are_the_generators_doubles(self, monkeypatch, counter, block):
        monkeypatch.setattr(montecarlo, "_WORD_BLOCK", block)
        blocks = list(montecarlo._word_blocks(np.random.Philox(key=9, counter=counter), 37))
        assert [start for start, _ in blocks] == list(range(0, 37, block))
        assert all(len(words) <= block for _, words in blocks)
        words = np.concatenate([words for _, words in blocks])
        assert np.array_equal(word_uniforms(words), float_uniforms(9, counter, 37))

    # skips that end inside a Philox buffer of four words and on its edge
    @pytest.mark.parametrize("skip", [0, 1, 3, 4, 5, 11, 4096 * 3 + 2])
    @pytest.mark.parametrize("chunk", [0, 7, 2 ** 128 - 1])
    def test_a_chunk_stream_skips_whole_words(self, chunk, skip):
        bitgen = montecarlo._chunk_stream(4, chunk, skip)
        assert np.array_equal(word_uniforms(bitgen.random_raw(10)),
                              float_uniforms(4, chunk << 128, 10, skip))

    @pytest.mark.parametrize("p", [0.0, 2.0 ** -60, 137 / 2048, 0.5, 0.9, 1 - 2 ** -53, 1.0])
    @pytest.mark.parametrize("block", [5, 1 << 16])
    def test_chunk_wins_are_the_float_comparisons(self, monkeypatch, p, block):
        monkeypatch.setattr(montecarlo, "_WORD_BLOCK", block)
        wins = montecarlo._chunk_wins(21, 3, 9, 13, p)
        assert wins.dtype == bool and wins.shape == (9, 13)
        assert np.array_equal(wins, float_uniforms(21, 3 << 128, 9 * 13).reshape(9, 13) < p)

    @pytest.mark.parametrize("trial_index", [0, 5, TRIAL_CHUNK - 1, TRIAL_CHUNK * 2 ** 128 - 1])
    def test_simulate_run_plays_its_own_row(self, trial_index):
        start = epr(7)
        chunk, offset = divmod(trial_index, TRIAL_CHUNK)
        row = float_uniforms(13, chunk << 128, 14, offset * 14) < 0.5
        played = montecarlo._play(MODESTY, start, row).to_configuration()
        assert simulate_run(MODESTY, start, 0.5, 13, trial_index) == played

    @given(p=st.floats(0, 1), word=st.integers(0, 2 ** 64 - 1), shift=st.integers(-4096, 4096))
    @example(p=0.0, word=0, shift=0)
    @example(p=1.0, word=2 ** 64 - 1, shift=-1)
    @example(p=5e-324, word=0, shift=1)
    @example(p=1 - 2 ** -53, word=2 ** 64 - 1, shift=-2048)
    @example(p=math.nextafter(0.5, 0), word=2 ** 63 - 1, shift=-1)
    @example(p=math.nextafter(0.5, 0), word=2 ** 63, shift=0)
    def test_the_win_cut_decides_the_float_comparison(self, p, word, shift):
        """For any p and word, and for words around the cut, the word wins
        exactly when its double is below p; ``_fill_wins`` decides the
        same on the generator's buffer."""
        cut = montecarlo._win_cut(p)
        near = min(max(cut + shift, 0), 2 ** 64 - 1)
        words = [word, near, 2 ** 64 - 1, 0]
        for w in words:
            assert (w < cut) == ((w >> 11) * 2.0 ** -53 < p)
        bitgen = np.random.Philox(key=1)
        state = bitgen.state
        state["buffer"] = np.array(words, np.uint64)
        state["buffer_pos"] = 0
        bitgen.state = state
        wins = montecarlo._fill_wins(bitgen, p, np.empty(4, bool))
        assert wins.tolist() == [bool(u < p) for u in word_uniforms(words)]


class TestTableWalksPauseTheCollector:
    """``_walk_table`` fills and expands with the cyclic collector paused,
    once for the whole walk, and leaves it as it found it
    (``exact._collector_paused``), also where an expansion fails."""

    def test_no_collection_runs_inside_a_walk(self, gc_collections):
        start = epr(64)
        table = montecarlo._plan(MODESTY, start)[0]
        wins = chunk_wins(start, TRIAL_CHUNK)
        with gc_collections() as generations:
            assert montecarlo._walk_table(table, wins, np.zeros(TRIAL_CHUNK, np.int64))
        assert generations == []
        assert len(table.states) == 1088  # of the DAG's 4,582

    @pytest.mark.parametrize("strategy, start, walked", [
        (MODESTY, epr(64), True),
        (ListMemory(), epr(12), False),
        (StopsBelowSixVertices(), epr(8), False),
    ], ids=["whole", "unhashable", "invalid"])
    def test_the_collector_state_is_restored(self, collector_state, strategy, start, walked):
        table = montecarlo._plan(strategy, start)[0]
        wins = chunk_wins(start, TRIAL_CHUNK)
        result = montecarlo._walk_table(table, wins, np.zeros(TRIAL_CHUNK, np.int64))
        assert (result is not None) is walked
        assert gc.isenabled() is collector_state
