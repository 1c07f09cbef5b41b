import hashlib
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cluster_forge import twodim
from cluster_forge.cli import main
from cluster_forge.twodim import (
    PercolationScan,
    WeaveParameters,
    hoeffding_bound,
    log_overall_success_probability,
    negative_binomial_weave_probability,
    overall_success_probability,
    percolation_scan,
    resource_count,
    simulate_weave,
    single_chain_weave_probability,
)


def binomial_tail_oracle(successes_needed: int, attempts: int, p: Fraction) -> Fraction:
    """P[Binomial(attempts, p) >= successes_needed] by direct summation."""
    total = Fraction(0)
    for k in range(successes_needed, attempts + 1):
        total += math.comb(attempts, k) * p ** k * (1 - p) ** (attempts - k)
    return total


class TestParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeaveParameters(n=0, a=2, ps=0.5)
        with pytest.raises(ValueError):
            WeaveParameters(n=5, a=1.0, ps=0.5)
        with pytest.raises(ValueError):
            WeaveParameters(n=5, a=2, ps=0.0)

    def test_budget_rounds_to_nearest(self):
        assert WeaveParameters(n=10, a=2.04, ps=0.5).attempt_budget == 20
        assert WeaveParameters(n=10, a=2.06, ps=0.5).attempt_budget == 21

    @pytest.mark.parametrize("a", [math.inf, math.nan])
    def test_overhead_factor_must_be_a_finite_number(self, a):
        with pytest.raises(ValueError, match="overhead factor"):
            WeaveParameters(n=5, a=a, ps=0.5)

    def test_cross_chain_length_must_be_finite(self):
        # 1e308 is finite, twice it is not
        with pytest.raises(ValueError, match="cross-chain length a n must be finite"):
            WeaveParameters(n=2, a=1e308, ps=0.5)
        assert WeaveParameters(n=1, a=1e308, ps=0.5).attempt_budget == int(1e308)

    def test_simulated_budget_must_fit_int64(self):
        # 9.2e18 is below 2**63 - 1; 2.0**63 is its first double above
        assert simulate_weave(WeaveParameters(n=1, a=9.2e18, ps=0.5), 3, 0).successes == 3
        with pytest.raises(ValueError, match=r"at most 2\*\*63 - 1"):
            simulate_weave(WeaveParameters(n=1, a=2.0 ** 63, ps=0.5), 3, 0)


class TestSingleChain:
    def test_one_site(self):
        params = WeaveParameters(n=1, a=2, ps=0.5)
        assert single_chain_weave_probability(params) == pytest.approx(0.75)

    def test_three_sites_against_tail_oracle(self):
        params = WeaveParameters(n=3, a=2, ps=0.5)
        expected = binomial_tail_oracle(3, 6, Fraction(1, 2))
        assert expected == Fraction(42, 64)
        assert single_chain_weave_probability(params) == pytest.approx(float(expected), rel=1e-14)

    @pytest.mark.parametrize("ps", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("n", [1, 5, 17, 50])
    def test_tail_and_failure_count_forms_agree(self, n, ps):
        params = WeaveParameters(n=n, a=2, ps=ps)
        a = single_chain_weave_probability(params)
        b = negative_binomial_weave_probability(params)
        assert a == pytest.approx(b, rel=1e-12)

    def test_monotone_decreasing_below_threshold(self):
        values = [
            single_chain_weave_probability(WeaveParameters(n=n, a=1.5, ps=0.5))
            for n in (10, 20, 40, 80)
        ]
        assert all(x > y for x, y in zip(values, values[1:]))


class TestOverall:
    def test_perfect_gates(self):
        assert overall_success_probability(WeaveParameters(n=7, a=2, ps=1.0)) == 1.0

    def test_power_relation(self):
        params = WeaveParameters(n=4, a=2, ps=0.5)
        pi = single_chain_weave_probability(params)
        assert overall_success_probability(params) == pytest.approx(pi ** 4, rel=1e-12)

    def test_supercritical_trend_up(self):
        values = [
            log_overall_success_probability(WeaveParameters(n=n, a=3, ps=0.5))
            for n in (20, 50, 100, 200)
        ]
        assert all(x <= y for x, y in zip(values, values[1:]))
        assert values[-1] > values[0]

    def test_subcritical_trend_down(self):
        values = [
            log_overall_success_probability(WeaveParameters(n=n, a=1.5, ps=0.5))
            for n in (20, 50, 100, 200)
        ]
        assert all(x >= y for x, y in zip(values, values[1:]))
        assert values[-1] < values[0]


class TestHoeffding:
    def test_reference_value(self):
        params = WeaveParameters(n=10, a=3, ps=0.5)
        assert hoeffding_bound(params) == pytest.approx(1 - math.exp(-72 / 30), rel=1e-12)
        assert hoeffding_bound(params) == pytest.approx(0.9092820467, rel=1e-9)

    def test_bound_below_exact(self):
        for n in range(1, 201):
            params = WeaveParameters(n=n, a=3, ps=0.5)
            assert hoeffding_bound(params) <= single_chain_weave_probability(params)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            hoeffding_bound(WeaveParameters(n=10, a=1.5, ps=0.5))

    def test_loose_at_perfect_gates(self):
        params = WeaveParameters(n=5, a=2, ps=1.0)
        assert single_chain_weave_probability(params) == 1.0
        assert hoeffding_bound(params) < 1.0


class TestResources:
    def test_smallest_case(self):
        assert resource_count(WeaveParameters(n=1, a=2, ps=0.5)) == 4

    def test_closed_form(self):
        for n, a in [(10, 2), (25, 3), (40, 1.5)]:
            params = WeaveParameters(n=n, a=a, ps=0.5)
            m = params.attempt_budget
            assert resource_count(params) == n * m + n * (m - n + 1)

    def test_quadratic_ratio(self):
        # total / n^2 -> a + (a - 1) as n grows
        a = 3
        big = resource_count(WeaveParameters(n=1000, a=a, ps=0.5))
        assert big / 1000 ** 2 == pytest.approx(2 * a - 1, rel=1e-3)


class TestSimulateWeave:
    def test_deterministic(self):
        params = WeaveParameters(n=3, a=2, ps=0.5)
        a = simulate_weave(params, 2000, seed=8)
        b = simulate_weave(params, 2000, seed=8)
        assert a == b

    def test_perfect_gates_always_succeed(self):
        report = simulate_weave(WeaveParameters(n=4, a=2, ps=1.0), 500, seed=1)
        assert report.fraction == 1.0

    def test_three_sigma_against_analytic(self):
        params = WeaveParameters(n=3, a=2, ps=0.5)
        report = simulate_weave(params, 100000, seed=12)
        expected = overall_success_probability(params)
        sigma = math.sqrt(expected * (1 - expected) / report.trials)
        assert abs(report.fraction - expected) < 3 * sigma

    def test_trial_validation(self):
        with pytest.raises(ValueError):
            simulate_weave(WeaveParameters(n=3, a=2, ps=0.5), 0, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    def test_seed_outside_the_philox_keys_is_rejected(self, seed):
        params = WeaveParameters(n=4, a=3, ps=0.5)
        with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*128\), got {seed}$"):
            simulate_weave(params, 10, seed)
        assert simulate_weave(params, 10, 2 ** 128 - 1).trials == 10


def binomial_successes(params: WeaveParameters, trials: int, seed: int) -> int:
    """The weave count straight from numpy's binomial sampler."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = rng.binomial(params.attempt_budget, params.ps, size=(trials, params.n))
    return int((counts >= params.n).all(axis=1).sum())


def injected_generator(j: int, seed: int = 5) -> np.random.Generator:
    """Philox(key=seed) whose first uniform is j / 2^53, from the word
    j << 11, followed by three small ones and then the generator's own
    stream."""
    bitgen = np.random.Philox(key=seed)
    state = bitgen.state
    state["buffer"] = np.array([j << 11, 1 << 40, 1 << 41, 1 << 42], dtype=np.uint64)
    state["buffer_pos"] = 0
    bitgen.state = state
    return np.random.Generator(bitgen)


def uniforms_used(m: int, ps: float, j: int) -> int:
    """How many uniforms one rng.binomial(m, ps) draw takes when the
    first is j / 2^53: 2 where numpy's inversion loop restarts."""
    rng = injected_generator(j)
    rng.binomial(m, ps)
    return 1 + injected_generator(j).random(4)[1:].tolist().index(rng.random())


class BinomialCounting(np.random.Generator):
    binomial_calls = 0

    def binomial(self, *args, **kwargs):
        self.binomial_calls += 1
        return super().binomial(*args, **kwargs)


ORACLE_CASES = [
    (5, 3, 0.3),  # p < 1/2
    (20, 3, 0.5),  # p = 1/2 and p m == 30 exactly: the benchmark's weave step
    (10, 2, 0.8),  # p > 1/2: numpy draws m - Inv(m, 1 - p)
    (20, 3, 0.7),
    (4, 2, 1.0),  # perfect gates
    (3, 2, 1e-3),  # tiny ps
    (1, 1.2, 0.5),  # m = 1
    (20, 3, 0.02),  # numpy's bound 15 < n
    (20, 3, 0.98),  # numpy's bound 15 < m - n + 1
    (100, 3, 0.1),  # 0.1 * 300 rounds to 30.0: still inversion
    (100, 3, 0.10000000000000002),  # the next double up: 30.000000000000007, BTPE
    (50, 2, 0.6),  # 0.4 * 100 > 30: BTPE above 1/2
]


class TestWeaveSampler:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("n, a, ps", ORACLE_CASES)
    def test_count_equals_numpy_binomial(self, n, a, ps, seed):
        params = WeaveParameters(n=n, a=a, ps=ps)
        assert simulate_weave(params, 3000, seed).successes == \
            binomial_successes(params, 3000, seed)

    @pytest.mark.parametrize("m, p", [(15, 0.3), (60, 0.5), (20, 0.2), (60, 0.02), (2, 0.4),
                                      (1000, 0.01)])
    def test_inversion_loop_matches_numpy_draw_for_draw(self, m, p):
        uniforms = np.random.Generator(np.random.Philox(key=11)).random(3000)
        draws = np.random.Generator(np.random.Philox(key=11)).binomial(m, p, 3000)
        assert [twodim._inversion_draw(m, p, u) for u in uniforms] == draws.tolist()

    @pytest.mark.parametrize("n, a, ps, btpe", [
        (20, 3, 0.5, False), (10, 2, 0.8, False), (4, 2, 1.0, False), (100, 3, 0.1, False),
        (100, 3, 0.10000000000000002, True), (50, 2, 0.6, True),
    ])
    def test_binomial_runs_only_in_the_btpe_regime(self, n, a, ps, btpe):
        rng = BinomialCounting(np.random.Philox(key=3))
        twodim._weave_successes(rng, WeaveParameters(n=n, a=a, ps=ps), 2000)
        assert (rng.binomial_calls > 0) == btpe

    @pytest.mark.parametrize("n, a, ps", [(5, 3, 0.3), (20, 3, 0.5), (10, 2, 0.8)])
    def test_the_cut_is_numpys_boundary(self, n, a, ps):
        params = WeaveParameters(n=n, a=a, ps=ps)
        m = params.attempt_budget
        p, below = (ps, n) if ps <= 0.5 else (1.0 - ps, m - n + 1)
        cut = twodim._last_below(m, p, below)
        counter = twodim._threshold_counter(m, n, ps)
        outcomes = set()
        for j in (cut, cut + 1):
            won = int(injected_generator(j).binomial(m, ps) >= n)
            # the first and the last word that numpy turns into j / 2^53
            for word in (j << 11, (j << 11) + 2047):
                assert counter(np.full((1, n), word, np.uint64)) == won
            outcomes.add(won)
        assert outcomes == {0, 1}

    # every uniform, 1 - 2^-53 included, draws below the count that
    # decides, so the cut is the last grid point: no word is above it
    @pytest.mark.parametrize("ps", [1e-20, 1 - 2 ** -53])
    def test_a_cut_at_the_last_uniform(self, ps):
        params = WeaveParameters(n=3, a=2, ps=ps)
        m, n = params.attempt_budget, params.n
        p, below = (ps, n) if ps <= 0.5 else (1.0 - ps, m - n + 1)
        last = twodim._UNIFORM_GRID - 1
        assert twodim._last_below(m, p, below) == twodim._last_below(m, p, m + 1) == last
        assert twodim._last_word(last) == 2 ** 64 - 1
        won = int(injected_generator(last).binomial(m, ps) >= n)
        assert won == (ps > 0.5)
        counter = twodim._threshold_counter(m, n, ps)
        for word in (0, last << 11, 2 ** 64 - 1):
            assert counter(np.full((1, n), word, np.uint64)) == won
        assert simulate_weave(params, 3000, 2).successes == binomial_successes(params, 3000, 2)

    # where numpy's bound is below m, the masses it sums leave a gap
    # below 1 in which its loop passes the bound and restarts
    @pytest.mark.parametrize("n, a, ps", [(20, 3, 0.02), (20, 3, 0.98), (30, 3, 0.1)])
    def test_a_restarting_uniform_falls_back_to_binomial(self, monkeypatch, n, a, ps):
        params = WeaveParameters(n=n, a=a, ps=ps)
        m = params.attempt_budget
        p = ps if ps <= 0.5 else 1.0 - ps
        restart = twodim._last_below(m, p, m + 1) + 1
        assert restart < twodim._UNIFORM_GRID
        assert uniforms_used(m, ps, restart - 1) == 1
        assert uniforms_used(m, ps, restart) == 2
        monkeypatch.setattr(twodim, "_CHUNK_VALUES", 7 * n)
        counter = twodim._threshold_counter(m, n, ps)
        assert counter(injected_generator(restart).bit_generator.random_raw((7, n))) is None
        rng, oracle = injected_generator(restart), injected_generator(restart)
        counts = oracle.binomial(m, ps, size=(40, n))
        assert twodim._weave_successes(rng, params, 40) == \
            int((counts >= n).all(axis=1).sum())
        # the restart took one more uniform, in both
        assert np.array_equal(rng.random(8), oracle.random(8))

    def test_a_chunk_holds_at_most_a_megabyte(self):
        """50,000 trials of 20 chains draw a million words, 2^16 at a time."""
        tracemalloc.start()
        try:
            simulate_weave(WeaveParameters(n=20, a=3, ps=0.5), 50000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n, a, ps", [(20, 3, 0.5), (10, 2, 0.8), (50, 2, 0.6)])
    def test_chunking_leaves_the_count_unchanged(self, monkeypatch, n, a, ps):
        params = WeaveParameters(n=n, a=a, ps=ps)
        whole = simulate_weave(params, 500, seed=4)
        monkeypatch.setattr(twodim, "_CHUNK_VALUES", 7 * n)
        assert simulate_weave(params, 500, seed=4) == whole


REFERENCES = Path(__file__).resolve().parents[1] / "benchmarks" / "references.json"


@pytest.mark.parametrize("seed", range(10))
def test_benchmark_weave_outputs_are_pinned(capsys, seed):
    """The benchmark's weave step at its recorded seeds, byte for byte."""
    if not REFERENCES.is_file():
        pytest.skip("benchmarks/references.json is absent")
    expected = json.loads(REFERENCES.read_text())["seeded"][str(seed)]["weave"]
    assert main(["weave", "--n", "20", "--a", "3", "--ps", "0.5", "--trials", "50000",
                 "--seed", str(seed)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected


class TestPercolationScan:
    def test_bracket_contains_threshold(self):
        scan = percolation_scan(
            [50, 100, 200, 400], a=2.0, ps_values=[0.40, 0.45, 0.55, 0.60]
        )
        assert isinstance(scan, PercolationScan)
        assert scan.threshold == 0.5
        assert scan.bracket_low == 0.45
        assert scan.bracket_high == 0.55
        assert scan.bracket_contains_threshold

    def test_critical_point_flagged(self):
        scan = percolation_scan([50, 100], a=2.0, ps_values=[0.5])
        assert scan.trends[(2.0, 0.5)] == "critical"
        assert scan.bracket_contains_threshold is None

    def test_single_n_degenerate(self):
        scan = percolation_scan([100], a=2.0, ps_values=[0.4])
        assert scan.trends[(2.0, 0.4)] == "degenerate"

    def test_a_grid_mode(self):
        scan = percolation_scan([50, 100, 200], ps=0.5, a_values=[1.5, 2.5])
        assert scan.threshold == 2.0
        assert scan.trends[(1.5, 0.5)] == "decreasing"
        assert scan.trends[(2.5, 0.5)] == "increasing"
        assert scan.bracket_contains_threshold

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            percolation_scan([10], a=2.0, ps=0.5)
        with pytest.raises(ValueError):
            percolation_scan([10], a=2.0)
        with pytest.raises(ValueError):
            percolation_scan([], a=2.0, ps_values=[0.4])


# every percolation-scan point of the benchmark (n in 50..800, a = 2, ps in
# 0.40..0.60), its weave step (n = 20, a = 3, ps = 0.5), and a grid around
# them reaching the extremes where the tail underflows to zero
BINOM_GRID_N = [1, 2, 3, 5, 8, 13, 20, 33, 50, 100, 200, 400, 800, 1500]
BINOM_GRID_A = [1.01, 1.2, 1.5, 1.9, 2.0, 2.1, 2.5, 3.0, 4.0, 8.0]
BINOM_GRID_PS = [1e-6, 0.01, 0.1, 0.25, 0.3, 0.4, 0.45, 0.48, 0.5, 0.52, 0.55, 0.6,
                 0.75, 0.9, 0.99, 1.0]


def test_tail_is_bit_identical_to_scipy_stats_binom():
    """The weave tail calls the Boost ufunc behind scipy.stats.binom
    directly; a scipy upgrade that changes it fails here."""
    from scipy.stats import binom

    for n in BINOM_GRID_N:
        for a in BINOM_GRID_A:
            for ps in BINOM_GRID_PS:
                params = WeaveParameters(n=n, a=a, ps=ps)
                m = params.attempt_budget
                assert single_chain_weave_probability(params).hex() == \
                    float(binom.sf(n - 1, m, ps)).hex(), (n, a, ps)
                assert log_overall_success_probability(params).hex() == \
                    (n * float(binom.logsf(n - 1, m, ps))).hex(), (n, a, ps)
