from fractions import Fraction

import pytest

from cluster_forge.configuration import Configuration, IdentityConfiguration
from cluster_forge.exact import strategy_quality
from cluster_forge.montecarlo import (
    SimulationReport,
    estimate_quality,
    simulate_run,
    threshold_experiment,
    two_stage_strategy,
    wilson_interval,
)
from cluster_forge.strategies import GREED, MODESTY, STATIC, Strategy


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

    def test_broken_conservation_raises_in_anonymous_player(self):
        class Forger(Strategy):
            """Modesty that slips an extra chain into the counts it is shown."""

            name = "forger"

            def __init__(self):
                self.forged = False

            def decide_counts(self, counts):
                if not self.forged:
                    self.forged = True
                    counts[1] = counts.get(1, 0) + 1
                return MODESTY.decide_counts(counts)

        with pytest.raises(RuntimeError, match="edge conservation"):
            simulate_run(Forger(), epr(6), 0.5, seed=3)

    def test_broken_conservation_raises_in_identity_player(self, monkeypatch):
        fuse_at = IdentityConfiguration.fuse_at

        def leaky_fuse_at(self, i, j, outcome):
            # a success whose merged chain comes out one edge short
            i, j = min(i, j), max(i, j)
            chains = list(fuse_at(self, i, j, outcome).chains)
            if outcome == "S":
                chains[i] -= 1
            return IdentityConfiguration(tuple(chains))

        monkeypatch.setattr(IdentityConfiguration, "fuse_at", leaky_fuse_at)
        with pytest.raises(RuntimeError, match="edge conservation"):
            simulate_run(STATIC, epr(8), 1.0, seed=3)


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

    def test_float_and_fraction_ps_agree(self):
        a = estimate_quality(GREED, epr(6), 0.25, trials=3000, seed=4)
        b = estimate_quality(GREED, epr(6), Fraction(1, 4), trials=3000, seed=4)
        assert a == b


class TestTwoStage:
    def test_block_eight_is_static(self):
        strategy = two_stage_strategy(8)
        for n in (8, 12, 16):
            assert strategy_quality(strategy, epr(n)) == strategy_quality(STATIC, epr(n))

    def test_block_size_one_rejected(self):
        with pytest.raises(ValueError):
            two_stage_strategy(1)

    def test_block_yield_bound(self):
        # 16 blocks of 8: expected yield >= 16 (q8 - 2) + 2 within 3 sigma
        q8 = strategy_quality(MODESTY, epr(8))
        bound = float(16 * (q8 - 2) + 2)
        report = estimate_quality(two_stage_strategy(8), epr(128), 0.5, trials=4000, seed=17)
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
