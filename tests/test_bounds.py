import dataclasses
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from cluster_forge import bounds
from cluster_forge.bounds import (
    CertificateMismatch,
    HypothesisViolated,
    LinearProgramInstance,
    analytic_upper_bound,
    combine_lower_bound,
    general_ps_initial_length,
    greed_asymptotic,
    greed_closed_form,
    greed_closed_form_float,
    inverse_resource_bounds,
    lp_attempts_bound,
    lp_certificate,
    lp_closed_form,
    modesty_lower_bound,
    modesty_quality_range,
    razor_quality,
    razor_quality_range,
    razor_upper_bound,
    static_lower_bound,
)
from cluster_forge.configuration import Configuration, _fused
from cluster_forge.exact import (
    HALF,
    _optimize,
    cached_quality_table,
    event_tree_oracle,
    strategy_quality,
)
from cluster_forge.strategies import GREED, MODESTY, STATIC


def epr(n):
    return Configuration.epr_pairs(n)


def reference_razor(n, r, ps):
    """(optimal quality, minimal expected attempts) of the razor model by
    the plain recursion over count tuples (counts[i] chains of capped
    length i + 1), memoized: the oracle for the count-code engine."""
    cast = Fraction if isinstance(ps, Fraction) else float
    quality, attempts = {}, {}

    def fused(counts, a, b, success):
        out = list(counts)
        out[a - 1] -= 1
        out[b - 1] -= 1
        if success:
            out[min(a + b, r) - 1] += 1
        else:
            for k in (a, b):
                if k > 1:
                    out[k - 2] += 1
        return tuple(out)

    def solve(counts):
        if counts in quality:
            return
        if sum(counts) <= 1:
            quality[counts] = cast(sum((i + 1) * c for i, c in enumerate(counts)))
            attempts[counts] = cast(0)
            return
        best_q = best_t = None
        for a in range(1, r + 1):
            for b in range(a, r + 1):
                if counts[a - 1] < 1 or counts[b - 1] < (2 if a == b else 1):
                    continue
                won, lost = fused(counts, a, b, True), fused(counts, a, b, False)
                solve(won)
                solve(lost)
                value = ps * quality[won] + (1 - ps) * quality[lost]
                cost = 1 + ps * attempts[won] + (1 - ps) * attempts[lost]
                if best_q is None or value > best_q:
                    best_q = value
                if best_t is None or cost < best_t:
                    best_t = cost
        quality[counts] = best_q
        attempts[counts] = best_t

    start = tuple([n] + [0] * (r - 1))
    solve(start)
    return quality[start], attempts[start]


class TestRazor:
    @pytest.mark.parametrize("ps", [HALF, Fraction(1, 3), Fraction(137, 2048), 0.5, 0.3],
                             ids=str)
    def test_capped_starts_equal_the_reference(self, ps):
        # the razor DP keeps no table stores; each start of m pairs, read
        # as the DP goes, is the plain recursion's optimum, floats bit for bit
        n = 10
        for cap in (n, 4, 3, 2):
            values, action_ids, starts = _optimize(n, ps, cap, attempts=True)
            stored = values.levels if isinstance(ps, Fraction) else values
            assert (len(stored), len(action_ids)) == (0, 0)
            assert len(starts) == n + 1
            for m, got in enumerate(starts):
                reference = reference_razor(m, cap, ps)
                assert [type(x) for x in got] == [type(x) for x in reference]
                if isinstance(ps, float):
                    got = tuple(x.hex() for x in got)
                    reference = tuple(x.hex() for x in reference)
                assert got == reference, (cap, m)

    def test_uncapped_recovers_exact_optimum(self):
        table = cached_quality_table(8)
        for n in (4, 6, 8):
            quality, attempts = razor_quality(n, n)
            assert quality == table.quality(epr(n))
            assert attempts == n - table.quality(epr(n))

    def test_four_pairs_r2(self):
        # hand-checkable three-action walk on the quarter plane
        assert razor_quality(4, 2) == (Fraction(11, 8), Fraction(19, 8))

    def test_razor_attempts_bound_exact_attempts(self):
        table = cached_quality_table(12)
        for n in (4, 8, 12):
            exact_attempts = n - table.quality(epr(n))
            for r in (2, 3):
                _, razor_attempts = razor_quality(n, r)
                assert razor_attempts <= exact_attempts

    def test_upper_bound_dominates_quality(self):
        table = cached_quality_table(20)
        for n in range(2, 21):
            q = table.quality(epr(n))
            for r in (2, 3):
                assert razor_upper_bound(n, r) >= q

    def test_monotone_in_r(self):
        prev_ub = None
        prev_q = None
        prev_t = None
        for r in range(2, 6):
            quality, attempts = razor_quality(12, r)
            ub = razor_upper_bound(12, r)
            if prev_ub is not None:
                assert ub <= prev_ub
                assert quality >= prev_q
                assert attempts >= prev_t
            prev_ub, prev_q, prev_t = ub, quality, attempts

    @pytest.mark.parametrize("ps", [Fraction(1, 2), Fraction(1, 3), Fraction(137, 2048),
                                    Fraction(1), 0.5, 1 / 3, 137 / 2048, 1.0], ids=repr)
    def test_equals_the_plain_recursion(self, ps):
        for n in range(13):
            for r in (2, 3, 4, 5, 6, 15):
                reference = reference_razor(n, r, ps)
                got = razor_quality(n, r, ps)
                assert [type(x) for x in got] == [type(x) for x in reference]
                if isinstance(ps, float):
                    got = tuple(x.hex() for x in got)
                    reference = tuple(x.hex() for x in reference)
                assert got == reference, (n, r)

    @pytest.mark.parametrize("ps", [Fraction(1, 2), Fraction(1, 3), 0.3], ids=repr)
    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_one_dp_holds_every_smaller_start(self, r, ps):
        """The DP for the largest n answers every size of a sweep as that
        size's own DP does, floats bit for bit."""
        shared = razor_quality_range(range(21), r, ps)
        assert list(shared) == list(range(21))
        for n, got in shared.items():
            reference = razor_quality(n, r, ps)
            assert [type(x) for x in got] == [type(x) for x in reference]
            if isinstance(ps, float):
                got = tuple(x.hex() for x in got)
                reference = tuple(x.hex() for x in reference)
            assert got == reference, n
        assert razor_quality_range([9, 3, 9], r, ps) == {m: shared[m] for m in (9, 3)}
        assert razor_quality_range([], r, ps) == {}

    def test_rejects_tiny_r(self):
        with pytest.raises(ValueError):
            razor_quality(4, 1)
        with pytest.raises(ValueError):
            razor_quality_range([4], 1)

    def test_rejects_a_negative_size(self):
        # as build_quality_table does, before any DP work
        for call in (lambda: razor_quality(-1, 2), lambda: razor_upper_bound(-1, 2),
                     lambda: razor_quality_range([3, -2, 5], 2)):
            with pytest.raises(ValueError, match="razor size must be at least 0, got -"):
                call()
        assert razor_quality(0, 2) == (0, 0)


def _closed_form_plus_one(n):
    return lp_closed_form(n) + 1


def _suboptimal_primal(n):
    # feasible for N=7 but worth 4 > 18/5
    return (Fraction(3), Fraction(1), Fraction(0)), lp_certificate(n)[1]


def _negative_primal(n):
    x, y = lp_certificate(n)
    return x[:2] + (Fraction(-1),), y


def _zero_primal(n):
    return (Fraction(0),) * 3, lp_certificate(n)[1]


def _negative_dual(n):
    return lp_certificate(n)[0], (Fraction(-1), Fraction(0))


def _infeasible_dual(n):
    return lp_certificate(n)[0], (Fraction(1), Fraction(0))


CORRUPTIONS = [
    ("lp_closed_form", _closed_form_plus_one, "objective mismatch"),
    ("lp_certificate", _suboptimal_primal, "objective mismatch"),
    ("lp_certificate", _negative_primal, "primal certificate not nonnegative"),
    ("lp_certificate", _zero_primal, "primal certificate infeasible"),
    ("lp_certificate", _negative_dual, "dual certificate not nonnegative"),
    ("lp_certificate", _infeasible_dual, "dual certificate infeasible"),
]


def assert_every_corruption_raises():
    """Each corrupted closed form or certificate makes lp_attempts_bound
    raise; uses no assert statement, so it also checks under -O."""
    for name, corrupted, message in CORRUPTIONS:
        with mock.patch.object(bounds, name, corrupted):
            with pytest.raises(CertificateMismatch, match=message):
                lp_attempts_bound(7)


def reference_certificate_failure(n, closed, x, y):
    """The first failing check of ``lp_attempts_bound`` on n pairs in
    Fraction arithmetic, with the given closed form and certificates, or
    None: the reference for the checks on scaled ints."""
    instance = LinearProgramInstance.for_pairs(n)
    if any(v < 0 for v in x):
        return f"primal certificate not nonnegative for N={n}"
    for j in range(2):
        if sum(x[i] * instance.matrix[i][j] for i in range(3)) > instance.rhs[j]:
            return f"primal certificate infeasible for N={n}"
    if any(v < 0 for v in y):
        return f"dual certificate not nonnegative for N={n}"
    for i in range(3):
        if -sum(y[j] * instance.matrix[i][j] for j in range(2)) > instance.cost[i]:
            return f"dual certificate infeasible for N={n}"
    primal = sum(c * v for c, v in zip(instance.cost, x))
    dual = -sum(b * v for b, v in zip(instance.rhs, y))
    if not (primal == dual == closed):
        return f"objective mismatch for N={n}: primal={primal} dual={dual} closed={closed}"
    return None


# (certificate, coordinate): each of the primal's three and the dual's two
THIRD_MOVES = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]


def moved_by_a_third(n, part, i, sign):
    x, y = (list(v) for v in lp_certificate(n))
    (x, y)[part][i] += sign * Fraction(1, 3)
    return tuple(x), tuple(y)


class TestLinearProgram:
    def test_instance_matrix(self):
        inst = LinearProgramInstance.for_pairs(7)
        assert inst.cost == (1, 1, 1)
        assert inst.matrix[0] == (-2, Fraction(1, 2))
        assert inst.matrix[1] == (Fraction(-1, 2), Fraction(-1, 2))
        assert inst.matrix[2] == (1, Fraction(-3, 2))
        assert inst.rhs == (-6, 1)

    def test_moves_are_the_fusion_rule_with_chains_cut_to_2_edges(self):
        """The rows of the certified program are the model's: the mean
        change in (chains of 1 edge, chains of 2 edges) of fusing 1+1, 1+2
        and 2+2 at ps = 1/2, a merged chain cut to 2 edges (R = 2)."""

        def change(a, b, won):
            counts = {1: 0, 2: 0}
            counts[a] -= 1
            counts[b] -= 1
            for k in _fused(a, b, won):
                if k:  # a destroyed chain counts nowhere
                    counts[min(k, 2)] += 1
            return counts[1], counts[2]

        moves = tuple(tuple(Fraction(won + lost, 2)
                            for won, lost in zip(change(a, b, True), change(a, b, False)))
                      for a, b in ((1, 1), (1, 2), (2, 2)))
        assert moves == bounds._MOVES == LinearProgramInstance.for_pairs(7).matrix

    def test_closed_form_values(self):
        assert lp_attempts_bound(1) == 0
        assert lp_attempts_bound(5) == 2
        assert lp_attempts_bound(6) == Fraction(14, 5)

    def test_lp_bound_equals_its_closed_form(self):
        for n in range(1, 61):
            assert lp_attempts_bound(n) == lp_closed_form(n)

    def test_certificates_are_tight_for_large_n(self):
        x, y = lp_certificate(100)
        assert sum(x) == lp_closed_form(100)
        assert y == (Fraction(4, 5), Fraction(6, 5))

    def test_corrupted_certificates_raise(self):
        assert_every_corruption_raises()

    # the parent's messages, where the certificates were checked in Fractions
    @pytest.mark.parametrize("part, i, sign, message", [
        (0, 0, 1, "primal certificate infeasible for N=7"),
        (0, 1, 1, "objective mismatch for N=7: primal=59/15 dual=18/5 closed=18/5"),
        (0, 2, -1, "primal certificate not nonnegative for N=7"),
        (1, 1, -1, "dual certificate infeasible for N=7"),
    ])
    def test_a_certificate_moved_by_a_third_keeps_its_message(self, part, i, sign, message):
        """A denominator of 3 is in no true certificate: the lcm of the
        integer checks takes it in and still catches the move."""
        with mock.patch.object(bounds, "lp_certificate",
                               lambda n: moved_by_a_third(n, part, i, sign)):
            with pytest.raises(CertificateMismatch, match=f"^{re.escape(message)}$"):
                lp_attempts_bound(7)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("part, i", THIRD_MOVES)
    @pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 30, 199])
    def test_every_move_by_a_third_fails_as_the_fraction_reference(self, n, part, i, sign):
        x, y = moved_by_a_third(n, part, i, sign)
        expected = reference_certificate_failure(n, lp_closed_form(n), x, y)
        with mock.patch.object(bounds, "lp_certificate", lambda n: (x, y)):
            if expected is None:
                # at N=1 the rhs is (0, 1), so a dual of (1/3, 0) still certifies 0
                assert (n, part, i, sign) == (1, 1, 0, 1)
                assert lp_attempts_bound(n) == 0
            else:
                with pytest.raises(CertificateMismatch, match=f"^{re.escape(expected)}$"):
                    lp_attempts_bound(n)

    @pytest.mark.parametrize("shift", [Fraction(1, 3), Fraction(-2, 7), Fraction(5, 12)], ids=str)
    def test_a_closed_form_moved_fails_as_the_fraction_reference(self, shift):
        for n in (1, 4, 7, 30):
            closed = lp_closed_form(n) + shift
            expected = reference_certificate_failure(n, closed, *lp_certificate(n))
            with mock.patch.object(bounds, "lp_closed_form", lambda n: closed):
                with pytest.raises(CertificateMismatch, match=f"^{re.escape(expected)}$"):
                    lp_attempts_bound(n)

    def test_the_true_certificates_pass_the_fraction_reference(self):
        for n in range(1, 201):
            assert reference_certificate_failure(n, lp_closed_form(n), *lp_certificate(n)) is None

    @pytest.mark.parametrize("n", [6, 7, 30])
    def test_the_dual_objective_is_read_from_the_program(self, n):
        """A program whose right-hand side is not the one the closed form
        solves fails its certificate. Both solutions stay feasible there:
        the primal's first column is tight at 1 - n, and the dual's
        constraints do not read the right-hand side."""
        shifted = dataclasses.replace(LinearProgramInstance.for_pairs(n),
                                      rhs=(Fraction(2 - n), Fraction(1)))
        with mock.patch.object(LinearProgramInstance, "for_pairs", lambda n: shifted):
            with pytest.raises(CertificateMismatch, match="objective mismatch"):
                lp_attempts_bound(n)

    def test_corrupted_certificates_raise_under_python_O(self):
        env = dict(os.environ)
        package_root = str(Path(bounds.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        code = ("assert False, 'asserts must be stripped'\n"
                "import test_bounds\n"
                "test_bounds.assert_every_corruption_raises()")
        subprocess.run([sys.executable, "-O", "-c", code], cwd=Path(__file__).parent, env=env,
                       check=True, timeout=120)

    def test_chain_of_relaxations(self):
        table = cached_quality_table(20)
        for n in range(2, 21):
            _, razor_attempts = razor_quality(n, 2)
            exact_attempts = n - table.quality(epr(n))
            assert lp_attempts_bound(n) <= razor_attempts <= exact_attempts


class TestAnalyticUpperBound:
    def test_formula(self):
        assert analytic_upper_bound(10) == 4
        assert analytic_upper_bound(6) == Fraction(16, 5)

    def test_domain(self):
        with pytest.raises(ValueError, match="lp_attempts_bound"):
            analytic_upper_bound(5)

    def test_dominates_exact_quality(self):
        table = cached_quality_table(20)
        for n in range(6, 21):
            assert table.quality(epr(n)) <= analytic_upper_bound(n)


class TestCombineLowerBound:
    def test_single_part(self):
        assert combine_lower_bound([Fraction(7, 2)]) == Fraction(7, 2)

    def test_two_chains_versus_exact(self):
        for a, b in [(3, 4), (5, 5), (2, 8)]:
            bound = combine_lower_bound([Fraction(a), Fraction(b)])
            assert bound == a + b - 2
            assert bound <= cached_quality_table(16).quality(Configuration.from_lengths([a, b]))

    def test_eight_blocks(self):
        assert combine_lower_bound([Fraction(649, 256)] * 8) == Fraction(201, 32)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_lower_bound([])


class TestModestyLowerBound:
    def test_alpha_at_block_eight(self):
        values = modesty_quality_range(16)
        assert (values[8] - 2) / 8 == Fraction(137, 2048)
        bound = modesty_lower_bound(8, 8, values)
        assert bound == Fraction(649, 256)

    def test_bound_below_exact_quality(self):
        values = modesty_quality_range(16)
        table = cached_quality_table(20)
        for n in range(8, 21):
            assert modesty_lower_bound(n, 8, values) <= table.quality(epr(n))

    def test_hypothesis_violation_reported(self):
        values = dict(modesty_quality_range(16))
        values[11] = Fraction(2)  # sabotage one entry
        with pytest.raises(HypothesisViolated) as err:
            modesty_lower_bound(20, 8, values)
        assert err.value.failing == [11]

    def test_missing_values_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            modesty_lower_bound(20, 8, {8: Fraction(649, 256)})

    def test_needs_n_at_least_n0(self):
        with pytest.raises(ValueError):
            modesty_lower_bound(4, 8, modesty_quality_range(16))

    def test_range_matches_engine(self):
        values = modesty_quality_range(12)
        for n in range(1, 13):
            assert values[n] == strategy_quality(MODESTY, epr(n))

    def test_even_lattice_mode(self):
        values = modesty_quality_range(16)
        assert modesty_lower_bound(20, 8, values, step=2) == modesty_lower_bound(20, 8, values)
        with pytest.raises(ValueError, match="parity"):
            modesty_lower_bound(21, 8, values, step=2)
        with pytest.raises(ValueError, match="even anchor"):
            modesty_lower_bound(21, 7, modesty_quality_range(14), step=2)


class TestStaticLowerBound:
    def test_values(self):
        assert static_lower_bound(16) == Fraction(137, 128) + 2
        assert static_lower_bound(64) == Fraction(137, 32) + 2

    def test_wrong_form_rejected(self):
        for bad in (4, 7, 12, 24):
            with pytest.raises(ValueError):
                static_lower_bound(bad)

    def test_exact_static_beats_bound(self):
        for n in (8, 16):
            assert strategy_quality(STATIC, epr(n)) >= static_lower_bound(n)


class TestGreedForms:
    def test_small_values_match_oracle(self):
        for n in range(1, 11):
            oracle = event_tree_oracle(GREED, epr(n))
            assert greed_closed_form(n) == oracle.mean_length

    def test_parity_pairs_odd_with_next(self):
        # flat steps pair each odd size with its successor, never an even
        # one with its successor: 1 = value(2) != value(3) = 3/2
        for n in range(3, 14, 2):
            assert greed_closed_form(n) == greed_closed_form(n + 1)
        for n in range(2, 14, 2):
            assert greed_closed_form(n) != greed_closed_form(n + 1)

    def test_float_form_matches_exact(self):
        for n in (5, 40, 200):
            exact = float(greed_closed_form(n))
            assert greed_closed_form_float(n) == pytest.approx(exact, rel=1e-12)

    def test_asymptotic_ratio(self):
        ratio = greed_closed_form_float(10 ** 4) / greed_asymptotic(10 ** 4)
        assert abs(ratio - 1) < 0.02

    def test_asymptotic_value(self):
        assert greed_asymptotic(8) == pytest.approx(math.sqrt(16 / math.pi))


class TestSmallHelpers:
    def test_initial_length(self):
        assert general_ps_initial_length(Fraction(1, 2)) == 2
        assert general_ps_initial_length(1) == 0
        assert general_ps_initial_length(Fraction(1, 3)) == 4

    def test_inverse_resource_bounds(self):
        sufficient, insufficient = inverse_resource_bounds(100, Fraction(1, 5), Fraction(1, 2))
        assert sufficient == Fraction(550)
        assert insufficient == Fraction(450)

    def test_inverse_requires_positive_epsilon(self):
        with pytest.raises(ValueError):
            inverse_resource_bounds(100, Fraction(1, 5), 0)

    @pytest.mark.parametrize("call, message", [
        (lambda: lp_closed_form(0), "need at least one pair"),
        (lambda: modesty_lower_bound(20, 8, modesty_quality_range(16), step=3),
         "step must be 1 or 2"),
        (lambda: inverse_resource_bounds(100, 0, Fraction(1, 2)), "alpha must be positive"),
        (lambda: greed_closed_form(0), "need at least one pair"),
        (lambda: greed_closed_form_float(0), "need at least one pair"),
    ], ids=["lp_closed_form", "modesty_lower_bound", "inverse_resource_bounds",
            "greed_closed_form", "greed_closed_form_float"])
    def test_argument_errors(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("target, alpha, epsilon, message", [
        (10, math.nan, 1, "alpha must be finite, got nan"),
        (10, math.inf, 1, "alpha must be finite, got inf"),
        (10, 0.2, math.nan, "epsilon must be finite, got nan"),
        (10, 0.2, math.inf, "epsilon must be finite, got inf"),
        (-3, 0.2, 1, "target_length must be finite and positive, got -3"),
        (0, 0.2, 1, "target_length must be finite and positive, got 0"),
        (Fraction(-1, 2), 0, 1, r"target_length must be finite and positive, got Fraction\(-1, 2\)"),
        (math.nan, 0.2, 1, "target_length must be finite and positive, got nan"),
        (math.inf, 0.2, 1, "target_length must be finite and positive, got inf"),
    ], ids=repr)
    def test_inverse_rejects_what_is_no_length_or_rate(self, target, alpha, epsilon, message):
        # nothing is computed: (nan, nan), (inf, -inf) and (-18.0, -12.0) before
        with pytest.raises(ValueError, match=f"^{message}$"):
            inverse_resource_bounds(target, alpha, epsilon)

    def test_inverse_keeps_its_messages_for_nonpositive_rates(self):
        with pytest.raises(ValueError, match="^alpha must be positive$"):
            inverse_resource_bounds(10, -math.inf, 1)
        with pytest.raises(ValueError, match="^epsilon must be strictly positive$"):
            inverse_resource_bounds(10, 0.2, -math.inf)

    def test_inverse_accepts_a_fractional_length(self):
        assert inverse_resource_bounds(Fraction(5, 2), Fraction(1, 5), Fraction(1, 2)) == (
            Fraction(55, 4), Fraction(45, 4))

    @pytest.mark.parametrize("n0", [0, -2])
    def test_modesty_anchor_must_be_at_least_one(self, n0):
        # at 0 the slope divided by zero
        with pytest.raises(ValueError, match=f"^the anchor n0 must be at least 1, got {n0}$"):
            modesty_lower_bound(10, n0, {0: Fraction(1), -2: Fraction(1)})

    def test_achievable_rate_value(self):
        sufficient, _ = inverse_resource_bounds(1.0, 0.153336, 0.08)
        assert sufficient == pytest.approx(6.6, abs=0.01)
