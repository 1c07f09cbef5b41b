import contextlib
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cluster_forge import montecarlo
from cluster_forge.configuration import (
    STOP,
    SUCCESS,
    Configuration,
    IdentityConfiguration,
    canonical_key,
    parse_key,
)
from cluster_forge.exact import build_quality_table, strategy_quality
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

    def test_insufficient_budget_stays_away_from_one(self):
        # below the universal five-pairs-per-edge rate nothing can reach
        # the target reliably
        report = threshold_experiment(
            60, 0.2, 0.5, 8, trials=300, seed=78, direction="insufficient"
        )
        assert report.n_pairs == 270
        assert report.fraction <= 0.5


def scalar_estimate(strategy, start, ps, trials, seed, threshold=None):
    """estimate_quality with every chunk played by the scalar players, the
    reference the array engine must reproduce bit for bit."""
    with mock.patch.object(montecarlo, "_play_chunk", lambda *args: None):
        return estimate_quality(strategy, start, ps, trials, seed, threshold)


# A state budget no event table in these tests reaches.
ALL_STATES = 2 ** 62
PATHS = ["table", "count matrix"]


@contextlib.contextmanager
def on_path(path):
    """Every smallest- or largest-first run of a chunk plays on ``path``:
    an event table walk under a budget no table reaches, or the count
    matrix under a budget of 0. The other engine fails if it is called;
    yields a spy on the engine of ``path``."""
    budget, engine, other = {"table": (ALL_STATES, "_walk_table", "_play_counts"),
                             "count matrix": (0, "_play_counts", "_walk_table")}[path]

    def refuse(*args):
        raise AssertionError(f"{other} played on the {path} path")

    spy = mock.Mock(wraps=getattr(montecarlo, engine))
    with mock.patch.object(montecarlo, "_state_budget", lambda trials: budget), \
            mock.patch.object(montecarlo, other, refuse), \
            mock.patch.object(montecarlo, engine, spy):
        yield spy


PS_VALUES = [Fraction(0), Fraction(137, 2048), Fraction(1, 2), Fraction(1)]
ps_values = st.sampled_from(PS_VALUES + [float(ps) for ps in PS_VALUES])
starts = st.sampled_from([
    epr(12), parse_key("1^3,2^2,5^1"), Configuration.single_chain(9), Configuration(),
]) | st.lists(st.integers(1, 6), max_size=10).map(Configuration.from_lengths)


OPTIMAL_10 = build_quality_table(10).as_strategy()


class LargestFirstModesty(Modesty):
    """A subclass the array engine must not mistake for Modesty."""

    decide = Greed.decide


class RenamedTwoStage(TwoStage):
    """A TwoStage subclass: one run of itself, not a run per block."""


LOOKUP_8 = LookupStrategy({canonical_key(config): action
                           for config, _, action in build_quality_table(8).items()}, "lookup-8")


class ListMemory(StatefulStrategy):
    """Smallest-first in the identity picture with a list as its memory,
    which breaks the hashable contract: no event table can be made of
    it, and the scalar player plays it all the same."""

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

    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=60, deadline=None)
    @given(strategy=st.sampled_from([MODESTY, GREED]), start=starts, ps=ps_values,
           seed=st.integers(0, 2 ** 32 - 1), trials=st.integers(1, 300),
           threshold=st.none() | st.integers(0, 20))
    def test_modesty_and_greed(self, path, strategy, start, ps, seed, trials, threshold):
        args = (strategy, start, ps, trials, seed, threshold)
        with on_path(path) as engine:
            assert estimate_quality(*args) == scalar_estimate(*args)
        assert engine.called

    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=60, deadline=None)
    @given(block_size=st.sampled_from([2, 3, 5, 8]), inner=st.sampled_from([MODESTY, GREED]),
           start=starts | st.integers(0, 40).map(epr), ps=ps_values,
           seed=st.integers(0, 2 ** 32 - 1), trials=st.integers(1, 200))
    @example(block_size=2, inner=MODESTY, start=epr(80), ps=0.5, seed=1, trials=200)
    def test_two_stage(self, path, block_size, inner, start, ps, seed, trials):
        args = (TwoStage(block_size, inner), start, ps, trials, seed, start.total_length // 2)
        with on_path(path) as engine:
            assert estimate_quality(*args) == scalar_estimate(*args)
        assert engine.called == (start.chain_count > 0)

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("strategy, n", [(MODESTY, 8), (GREED, 8), (STATIC, 19)])
    def test_chunk_remainder(self, path, strategy, n):
        args = (strategy, epr(n), Fraction(1, 2), TRIAL_CHUNK + 257, 3, 4)
        with on_path(path) as engine:
            assert estimate_quality(*args) == scalar_estimate(*args)
        assert engine.called

    @settings(max_examples=60, deadline=None)
    @given(start=st.sampled_from([epr(5), parse_key("1^3,2^2,3^1"), Configuration.single_chain(10),
                                  Configuration()])
           | st.lists(st.integers(1, 4), max_size=6).map(Configuration.from_lengths)
           .filter(lambda config: config.total_length <= 10),
           ps=ps_values, seed=st.integers(0, 2 ** 32 - 1), trials=st.integers(1, 300),
           threshold=st.none() | st.integers(0, 10))
    def test_optimal_table(self, start, ps, seed, trials, threshold):
        args = (OPTIMAL_10, start, ps, trials, seed, threshold)
        with on_path("table") as walk:
            assert estimate_quality(*args) == scalar_estimate(*args)
        assert walk.called

    def test_optimal_table_beyond_its_n_plays_on_the_scalar_player(self):
        assert montecarlo._event_tables(OPTIMAL_10, epr(11), ALL_STATES) == {}
        with pytest.raises(InvalidStrategy, match="no decision available"):
            estimate_quality(OPTIMAL_10, epr(11), 0.5, trials=100, seed=1)

    def test_an_invalid_table_plays_on_the_scalar_player(self):
        table = build_quality_table(8)
        table.action_ids[table.rank(epr(4))] = table.actions.index(STOP)
        strategy = table.as_strategy()
        assert montecarlo._event_tables(strategy, epr(4), ALL_STATES) == {}
        with pytest.raises(InvalidStrategy) as err:
            estimate_quality(strategy, epr(4), 0.5, trials=100, seed=1)
        assert (err.value.event, err.value.message) == ("", "premature stop with 4 chains")

    @pytest.mark.parametrize("strategy, start, states", [
        (MODESTY, epr(12), 55), (GREED, epr(12), 43), (STATIC, epr(64), 24),
        (OPTIMAL_10, epr(5), 9), (TwoStage(3, GREED), epr(9), 4),
        (IdentityAdapter(MODESTY), epr(12), 63),
    ], ids=["modesty", "greed", "static", "optimal", "two-stage", "identity-adapter"])
    def test_event_table_sizes(self, strategy, start, states):
        tables = montecarlo._event_tables(strategy, start, ALL_STATES)
        assert [len(table.succ) for table in tables.values()] == [states]
        # a table of exactly the budget is kept, one state more is not
        tables = montecarlo._event_tables(strategy, start, states)
        assert [len(table.succ) for table in tables.values()] == [states]
        assert montecarlo._event_tables(strategy, start, states - 1) == {}

    def test_a_two_stage_run_has_one_table_per_distinct_block(self):
        tables = montecarlo._event_tables(TwoStage(8, GREED), epr(20), ALL_STATES)
        assert list(tables) == [epr(8), epr(4)]
        for block, table in tables.items():
            alone = montecarlo._event_tables(GREED, block, ALL_STATES)[block]
            assert all((a == b).all() for a, b in zip(table, alone))

    def test_exploration_stops_at_the_budget(self):
        budget = montecarlo._state_budget(TRIAL_CHUNK)
        assert budget == 256
        with mock.patch.object(MODESTY, "choose", wraps=MODESTY.choose) as choose:
            assert montecarlo._event_tables(MODESTY, epr(200), budget) == {}
        assert 0 < choose.call_count <= budget

    @pytest.mark.parametrize("strategy, like_greed", [
        (LargestFirstModesty(), GREED), (TwoStage(4, LargestFirstModesty()), TwoStage(4, GREED)),
    ], ids=["subclass", "two-stage-of-subclass"])
    def test_subclasses_walk_their_own_tables(self, strategy, like_greed):
        """A subclass of Modesty is never mistaken for Modesty: it walks
        its own event table, and without one it plays on the scalar
        player, never on Modesty's count matrix."""
        args = (epr(10), 0.5, 500, 8, 10)
        greed = estimate_quality(like_greed, *args)
        for path in PATHS:
            with on_path(path) as engine:
                ours = estimate_quality(strategy, *args)
            assert engine.called == (path == "table")
            assert (ours.mean, ours.stderr, ours.success_count) == (
                greed.mean, greed.stderr, greed.success_count)
        wins = montecarlo._chunk_wins(8, 0, 500, montecarlo._draws_bound(epr(10)), 0.5)
        assert montecarlo._play_chunk(strategy, epr(10), wins) is None

    @pytest.mark.parametrize("strategy, start", [
        (IdentityAdapter(MODESTY), epr(12)), (LOOKUP_8, epr(8)),
        (RenamedTwoStage(3, GREED), epr(9)),
    ], ids=["identity-adapter", "lookup", "two-stage-subclass"])
    def test_any_strategy_walks_its_table(self, strategy, start):
        args = (strategy, start, 0.5, TRIAL_CHUNK + 100, 5, start.total_length // 2)
        expected = scalar_estimate(*args)
        assert list(montecarlo._event_tables(strategy, start, ALL_STATES)) == [start]
        with on_path("table") as walk:
            assert estimate_quality(*args) == expected
            assert walk.called
            assert estimate_quality(*args, processes=2) == expected

    @pytest.mark.parametrize("strategy, start, blocks", [
        (TwoStage(8, OPTIMAL_10), epr(20), [epr(8), epr(4)]),
        (TwoStage(3, LOOKUP_8), epr(10), [epr(3), epr(1)]),
    ], ids=["optimal", "lookup"])
    def test_a_plain_inner_strategy_walks_its_block_tables(self, strategy, start, blocks):
        """A two-stage strategy whose inner strategy keeps Strategy's own
        process plays one run of it per block, whatever its class."""
        args = (strategy, start, 0.5, TRIAL_CHUNK + 100, 5, start.total_length // 2)
        expected = scalar_estimate(*args)
        assert list(montecarlo._event_tables(strategy, start, ALL_STATES)) == blocks
        with on_path("table") as walk:
            assert estimate_quality(*args) == expected
            assert walk.called
            assert estimate_quality(*args, processes=2) == expected

    def test_an_inner_strategy_with_its_own_process_is_one_run(self):
        """Inflater starts from more pairs than it is given, so its runs
        are not the blocks TwoStage plays: the two-stage strategy is one
        run of itself, and plays like TwoStage(4, MODESTY)."""
        strategy = TwoStage(4, Inflater())
        assert montecarlo._plan(strategy, epr(10)) == (strategy, [epr(10)], None)
        assert list(montecarlo._event_tables(strategy, epr(10), ALL_STATES)) == [epr(10)]
        args = (epr(10), 0.5, 500, 8, 10)
        ours, modesty = estimate_quality(strategy, *args), estimate_quality(TwoStage(4), *args)
        assert (ours.mean, ours.stderr, ours.success_count) == (
            modesty.mean, modesty.stderr, modesty.success_count)

    def test_blocks_without_tables_or_count_matrix_play_on_the_scalar_player(self):
        strategy = TwoStage(3, LOOKUP_8)
        tables = montecarlo._event_tables(strategy, epr(10), 0)
        assert tables == {}
        wins = montecarlo._chunk_wins(8, 0, 500, montecarlo._draws_bound(epr(10)), 0.5)
        assert montecarlo._play_chunk(strategy, epr(10), wins, tables) is None

    def test_a_start_state_past_the_win_row_has_no_table(self):
        assert montecarlo._event_tables(Inflater(), epr(2), ALL_STATES) == {}
        with mock.patch.object(montecarlo, "_state_budget", lambda trials: ALL_STATES), \
                pytest.raises(InvalidStrategy) as err:
            estimate_quality(Inflater(), epr(2), 1.0, trials=10, seed=0)
        assert (err.value.start, err.value.event, err.value.message) == (
            epr(2), "SSSS", "more than 4 attempts from a start of 4 vertices; every attempt "
            "removes a vertex")

    def test_unhashable_states_play_on_the_scalar_player(self):
        assert montecarlo._event_tables(ListMemory(), epr(12), ALL_STATES) == {}
        args = (epr(12), 0.5, 300, 4, 8)
        with mock.patch.object(montecarlo, "_state_budget", lambda trials: ALL_STATES):
            ours = estimate_quality(ListMemory(), *args)
        modesty = estimate_quality(MODESTY, *args)
        assert (ours.mean, ours.stderr, ours.success_count) == (
            modesty.mean, modesty.stderr, modesty.success_count)

    @pytest.mark.parametrize("strategy, engine", [
        (MODESTY, "_play_counts"), (GREED, "_play_counts"), (STATIC, "_pairing_round"),
        (MODESTY, "_walk_table"), (GREED, "_walk_table"), (STATIC, "_walk_table"),
        (OPTIMAL_10, "_walk_table"),
    ])
    def test_broken_conservation_raises(self, monkeypatch, strategy, engine):
        monkeypatch.setattr(montecarlo, "_state_budget",
                            lambda trials: 0 if engine == "_play_counts" else ALL_STATES)
        original = getattr(montecarlo, engine)

        def one_failure_too_many(*args):
            result, failures = original(*args)
            failures[0] += 1
            return result, failures

        monkeypatch.setattr(montecarlo, engine, one_failure_too_many)
        with pytest.raises(RuntimeError, match="edge conservation"):
            estimate_quality(strategy, epr(5 if strategy is OPTIMAL_10 else 16), 0.5,
                             trials=50, seed=3)

    def test_count_matrix_stays_within_three_bytes_a_draw(self):
        start = epr(200)
        wins = montecarlo._chunk_wins(5, 0, TRIAL_CHUNK, montecarlo._draws_bound(start), 0.5)
        tracemalloc.start()
        try:
            montecarlo._play_chunk(MODESTY, start, wins)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a one-byte count matrix and its temporaries, under a third of
        # eight bytes a draw; eight-byte counts alone would take half that
        assert peak < 8 * wins.size // 3


def four_single_steps(table, state, bits):
    """Four attempts from ``state`` through the one-attempt table, attempt
    i won when bit i of ``bits`` is set: the state after them, and the
    attempts taken and lost before a terminal state was reached."""
    taken = lost = 0
    for i in range(4):
        if table.terminal[state]:
            break
        won = bits >> i & 1
        state = int((table.succ if won else table.fail)[state])
        taken += 1
        lost += not won
    return state, taken, lost


def assert_steps_are_four_single_steps(table):
    for state in range(len(table.succ)):
        for bits in range(16):
            entry = int(table.steps[16 * state + bits])
            assert (entry >> 6, entry >> 3 & 7, entry & 7) == \
                four_single_steps(table, state, bits), (state, bits)


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
        for table in montecarlo._event_tables(strategy, start, ALL_STATES).values():
            assert_steps_are_four_single_steps(table)

    @pytest.mark.parametrize("strategy, start", [
        (OPTIMAL_10, epr(5)), (OPTIMAL_10, parse_key("1^3,2^2,3^1")),
        (TwoStage(3, GREED), epr(20)), (TwoStage(5, MODESTY), epr(23)), (STATIC, epr(64)),
    ], ids=["optimal-1^5", "optimal-mixed", "two-stage-3", "two-stage-5", "static"])
    def test_optimal_table_and_two_stage_blocks(self, strategy, start):
        tables = montecarlo._event_tables(strategy, start, ALL_STATES)
        assert tables
        for table in tables.values():
            assert_steps_are_four_single_steps(table)

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
        table = montecarlo._event_table(strategy, start, ALL_STATES)
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
        with mock.patch.object(montecarlo, "_state_budget", lambda trials: ALL_STATES), \
                mock.patch.object(montecarlo, "_walk_table", spy):
            assert estimate_quality(*args) == scalar_estimate(*args)
        assert offsets == set(range(8))

    @pytest.mark.parametrize("trials", [1, TRIAL_CHUNK + 257])
    @pytest.mark.parametrize("strategy, start", [
        (MODESTY, epr(13)), (GREED, parse_key("1^5,2^1,4^1")), (OPTIMAL_10, epr(5)),
        (TwoStage(3, MODESTY), epr(11)),
    ], ids=["modesty", "greed", "optimal", "two-stage"])
    def test_one_trial_and_a_chunk_remainder(self, strategy, start, trials):
        args = (strategy, start, Fraction(1, 2), trials, 17, 5)
        with on_path("table") as walk:
            assert estimate_quality(*args) == scalar_estimate(*args)
        assert walk.called

    def test_step_tables_stay_small(self):
        # smallest-first from 64 pairs: 4,582 states
        montecarlo._event_tables(MODESTY, epr(8), ALL_STATES)  # warm the strategy
        tracemalloc.start()
        try:
            tables = montecarlo._event_tables(MODESTY, epr(64), ALL_STATES)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = tables[epr(64)]
        states = len(table.succ)
        assert states == 4582
        # 16 four-byte entries a state
        assert table.steps.nbytes <= 100 * states
        # Exploring and doubling peak at about 620 B a state, mostly the
        # explored configurations; building 256 entries a state (eight
        # attempts a gather) alone would take about 6 KB a state.
        assert peak < 1000 * states


@pytest.mark.parametrize("threshold", [None, 9])
def test_scalar_chunk_sums_equal_float_sums_trial_by_trial(threshold):
    """A chunk played by the scalar player is summed in int64 like an
    array-engine chunk; the sums equal the float sums of its trials."""
    strategy, start = LargestFirstModesty(), parse_key("1^7,2^3,4^1")
    args = (start, 0.5, 11, 1, 700)
    wins = montecarlo._chunk_wins(11, 1, 700, montecarlo._draws_bound(start), 0.5)
    total = total_sq = 0.0
    successes = 0
    for row in wins:
        final = montecarlo._play(strategy, start, row).total_length
        total += final
        total_sq += final * final
        successes += threshold is not None and final >= threshold
    assert montecarlo._chunk_stats(strategy, *args, threshold) == (total, total_sq, successes)


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
    # one batch a worker is pickled once, with the tables its jobs share
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
