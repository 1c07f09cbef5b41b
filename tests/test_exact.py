import errno
import fnmatch
import gc
import itertools
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
import weakref
from array import array
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluster_forge import exact
from cluster_forge.cli import main
from cluster_forge.configuration import (
    FAILURE,
    STOP,
    SUCCESS,
    Configuration,
    Fuse,
    IdentityConfiguration,
    Stop,
    canonical_key,
    enumerate_configurations,
    parse_key,
)
from cluster_forge.exact import (
    HALF,
    CorruptTable,
    QualityTable,
    TableBudgetExceeded,
    _count_codes,
    _expand,
    _pair_rows,
    _PackedInts,
    _sweep,
    _table_actions,
    build_quality_table,
    cached_quality_table,
    clear_table_cache,
    event_tree_oracle,
    expected_attempts,
    format_action,
    optimal_attempts,
    optimal_quality,
    strategy_quality,
    strategy_quality_range,
)
from cluster_forge.strategies import (
    BUILTIN_STRATEGIES,
    GREED,
    MODESTY,
    STATIC,
    IdentityAdapter,
    InvalidStrategy,
    StatefulStrategy,
    Strategy,
    TwoStage,
    validate_strategy,
    validate_strategy_sweep,
)

from conftest import event_dag


def epr(n):
    return Configuration.epr_pairs(n)


class TestStrategyQuality:
    def test_modesty_four_pairs(self):
        assert strategy_quality(MODESTY, epr(4)) == Fraction(13, 8)

    def test_single_chain_is_immediate(self):
        for strategy in (GREED, MODESTY, STATIC):
            assert strategy_quality(strategy, Configuration.single_chain(5), Fraction(1, 3)) == 5

    def test_greed_four_pairs_matches_oracle(self):
        oracle = event_tree_oracle(GREED, epr(4))
        assert oracle.mean_length == Fraction(3, 2)
        assert strategy_quality(GREED, epr(4)) == oracle.mean_length

    def test_modesty_eight_pairs(self):
        assert strategy_quality(MODESTY, epr(8)) == Fraction(649, 256)

    def test_static_single_block_is_modesty(self):
        assert strategy_quality(STATIC, epr(8)) == strategy_quality(MODESTY, epr(8))

    def test_float_path(self):
        value = strategy_quality(MODESTY, epr(4), 0.5)
        assert isinstance(value, float)
        assert value == pytest.approx(1.625)

    def test_identity_start_accepted(self):
        ident = IdentityConfiguration((1, 1, 1, 1))
        assert strategy_quality(MODESTY, ident) == Fraction(13, 8)

    def test_invalid_strategy_rejected(self):
        class Quitter(Strategy):
            name = "quitter"

            def decide(self, config):
                return STOP

        with pytest.raises(ValueError, match="premature stop"):
            strategy_quality(Quitter(), epr(2))

    def test_ps_out_of_range(self):
        with pytest.raises(ValueError):
            strategy_quality(MODESTY, epr(2), Fraction(0))


class TestExpectedAttempts:
    def test_no_action_no_attempts(self):
        assert expected_attempts(GREED, Configuration.single_chain(5), 0.7) == 0.0

    def test_two_pairs_always_one_attempt(self):
        table = cached_quality_table(2)
        assert expected_attempts(table.as_strategy(), epr(2)) == 1

    def test_two_chain_attempt_sum(self):
        # insistent fusing of lengths (a, b) attempts sum 2^-i, i < min
        table = cached_quality_table(9)
        for a, b in [(1, 1), (2, 3), (4, 4), (2, 7)]:
            expected = sum(Fraction(1, 2 ** i) for i in range(min(a, b)))
            config = Configuration.from_lengths([a, b])
            assert expected_attempts(table.as_strategy(), config) == expected

    @pytest.mark.parametrize("ps", [Fraction(1, 4), HALF, Fraction(3, 4)])
    @pytest.mark.parametrize("name", sorted(BUILTIN_STRATEGIES))
    def test_edge_loss_identity(self, name, ps):
        strategy = BUILTIN_STRATEGIES[name]
        for start in (epr(7), Configuration.from_lengths([3, 2, 1, 1])):
            quality = strategy_quality(strategy, start, ps)
            attempts = expected_attempts(strategy, start, ps)
            assert quality == start.total_length - 2 * (1 - ps) * attempts


class TestOptimalQuality:
    def test_four_pairs(self):
        assert optimal_quality(epr(4)) == Fraction(13, 8)

    def test_eight_pairs(self):
        assert optimal_quality(epr(8)) == Fraction(649, 256)

    def test_two_chain_closed_form_spot(self):
        for a, b in [(3, 3), (2, 5), (1, 1), (1, 7)]:
            expected = a + b - 2 + Fraction(2) ** (1 - min(a, b))
            assert optimal_quality(Configuration.from_lengths([a, b])) == expected

    def test_empty_and_single(self):
        assert optimal_quality(Configuration()) == 0
        assert optimal_quality(Configuration.single_chain(9)) == 9

    def test_general_ps(self):
        # two pairs: fuse once, success yields 2, failure annihilates
        assert optimal_quality(epr(2), Fraction(3, 4)) == Fraction(3, 2)

    def test_optimal_attempts_two_pairs(self):
        assert optimal_attempts(epr(2)) == 1
        with pytest.raises(ValueError):
            optimal_attempts(epr(2), Fraction(1))


def reference_oracle(strategy, start, ps):
    """``(distribution, mean length, expected attempts, paths)`` of every
    event string from ``start``, in the oracle's walk order, failure
    first, through the strategy's own ``start``, ``choose`` and ``step``:
    each probability a product of Fraction branch probabilities."""
    ps = Fraction(ps)
    leaves = []

    def walk(state, probability, depth):
        action = strategy.choose(state)
        if isinstance(action, Stop):
            leaves.append((state.to_configuration(), probability, depth))
            return
        walk(strategy.step(state, action, FAILURE), probability * (1 - ps), depth + 1)
        walk(strategy.step(state, action, SUCCESS), probability * ps, depth + 1)

    walk(strategy.start(start), Fraction(1), 0)
    distribution = {}
    for final, probability, _ in leaves:
        distribution[final] = distribution.get(final, Fraction(0)) + probability
    return (distribution,
            sum((p * final.total_length for final, p, _ in leaves), Fraction(0)),
            sum((p * depth for _, p, depth in leaves), Fraction(0)),
            len(leaves))


class TestEventTreeOracle:
    def test_probabilities_sum_to_one(self):
        for strategy in (GREED, MODESTY, STATIC):
            oracle = event_tree_oracle(strategy, epr(9), Fraction(1, 3))
            assert oracle.total_probability == 1

    def test_reproduces_four_pair_tree(self):
        oracle = event_tree_oracle(MODESTY, epr(4))
        assert oracle.mean_length == Fraction(13, 8)

    @pytest.mark.parametrize("ps", [Fraction(1, 4), HALF, Fraction(3, 4)])
    @pytest.mark.parametrize("name", sorted(BUILTIN_STRATEGIES))
    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_oracle_equals_memoized_engine(self, name, ps, n):
        strategy = BUILTIN_STRATEGIES[name]
        oracle = event_tree_oracle(strategy, epr(n), ps)
        assert oracle.mean_length == strategy_quality(strategy, epr(n), ps)
        assert oracle.expected_attempts == expected_attempts(strategy, epr(n), ps)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="exhaustive"):
            event_tree_oracle(MODESTY, epr(15))

    def test_identity_start_for_stateful(self):
        oracle = event_tree_oracle(STATIC, IdentityConfiguration.epr_pairs(8))
        assert oracle.mean_length == Fraction(649, 256)

    @pytest.mark.parametrize("ps", [0.3, Fraction(2, 7), Fraction(1)], ids=repr)
    @pytest.mark.parametrize("name", sorted(BUILTIN_STRATEGIES))
    @pytest.mark.parametrize("start", [epr(8), parse_key("1^3,2^2,3^1"),
                                       IdentityConfiguration((3, 1, 2, 1))],
                             ids=str)
    def test_every_field_equals_a_fraction_walk(self, start, name, ps):
        """The integer weights give the Fractions that a product of
        branch probabilities does, field by field and type by type, with
        the distribution in the order its finals are first reached; at
        ps = 1 the failure branches weigh 0 and still count as paths."""
        strategy = BUILTIN_STRATEGIES[name]
        oracle = event_tree_oracle(strategy, start, ps)
        distribution, mean, attempts, paths = reference_oracle(strategy, start, ps)
        assert list(oracle.distribution.items()) == list(distribution.items())
        assert (oracle.mean_length, oracle.expected_attempts, oracle.paths) == (mean, attempts, paths)
        fields = (*oracle.distribution.values(), oracle.mean_length, oracle.expected_attempts)
        assert all(type(value) is Fraction for value in fields)
        assert oracle.total_probability == 1


class TestQualityTable:
    def test_action_on_ten_pairs_is_smallest_first(self):
        table = build_quality_table(10)
        assert table.action(epr(10)) == Fuse(1, 1)
        assert table.action(epr(10)) == MODESTY.decide(epr(10))

    def test_small_table_size(self):
        assert len(build_quality_table(4)) == 12

    def test_replay_reproduces_qualities(self):
        table = build_quality_table(8)
        replay = table.as_strategy()
        for config, quality, _ in table.items():
            assert strategy_quality(replay, config) == quality

    def test_terminal_entries(self):
        table = build_quality_table(4)
        assert table.quality(Configuration()) == 0
        assert table.action(Configuration()) == STOP
        assert table.quality(Configuration.single_chain(3)) == 3

    def test_save_load_round_trip_bit_exact(self, tmp_path):
        table = build_quality_table(6)
        path = tmp_path / "table.tsv"
        table.save(path)
        loaded = QualityTable.load(path)
        assert loaded.n == table.n
        assert loaded.ps == table.ps
        assert list(loaded.items()) == list(table.items())
        second = tmp_path / "again.tsv"
        loaded.save(second)
        assert path.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_an_interrupted_write_leaves_no_partial_table(self, tmp_path, monkeypatch, existing):
        """A write that fails halfway leaves ``path`` as it was (absent, or
        the old table whole) and no temporary file; the temporary name is
        not one the table cache would pick up."""
        path = tmp_path / "table-n6-ps1-2.tsv"
        if existing:
            build_quality_table(6).save(path)
        before = sorted(os.listdir(tmp_path)), path.exists() and path.read_bytes()
        written = []

        def failing_open(file, *args, **kwargs):
            fh = open(file, *args, **kwargs)

            def writelines(lines):
                fh.write("".join(lines)[:100])
                fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

            fh.writelines = writelines
            written.append(os.path.basename(file))
            return fh

        monkeypatch.setattr(exact, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="No space left"):
            build_quality_table(8).save(path)
        assert (sorted(os.listdir(tmp_path)), path.exists() and path.read_bytes()) == before
        assert len(written) == 1 and not fnmatch.fnmatch(written[0], "table-n*-ps*.tsv")

    def test_a_device_is_written_in_place(self):
        """Renaming over ``/dev/null`` would replace the device with a file."""
        build_quality_table(4).save(os.devnull)
        assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)

    def test_file_format(self, tmp_path):
        table = build_quality_table(2)
        path = tmp_path / "t.tsv"
        table.save(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "N=2 ps=1/2"
        assert "1^2\t1/1\t1,1" in lines

    def test_budget_exceeded_names_level(self):
        with pytest.raises(TableBudgetExceeded) as err:
            build_quality_table(8, max_entries=10)
        assert err.value.vertex_level > 0
        assert err.value.budget == 10

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="table size must be at least 0, got -1"):
            build_quality_table(-1)
        assert len(build_quality_table(0)) == 1

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="entry budget must be at least 0, got -3"):
            build_quality_table(4, max_entries=-3)
        with pytest.raises(TableBudgetExceeded) as err:
            build_quality_table(4, max_entries=0)
        assert (err.value.vertex_level, err.value.budget) == (0, 0)

    @pytest.mark.parametrize("n, budget", [(30, 5000), (8, 10), (12, 77), (6, 29), (5, 0)])
    def test_budget_is_checked_before_any_dp_work(self, monkeypatch, n, budget):
        """An over-budget build raises before it enumerates a block, naming
        the level of the first entry past the budget."""
        level = list(enumerate_configurations(n))[budget].vertex_count

        def no_enumeration(*args):
            raise AssertionError("a block was enumerated")

        monkeypatch.setattr(exact, "_block_enumerator", no_enumeration)
        with pytest.raises(TableBudgetExceeded) as err:
            build_quality_table(n, max_entries=budget)
        assert (err.value.n, err.value.vertex_level, err.value.budget) == (n, level, budget)
        # the patched enumerator is the one a build within budget calls
        with pytest.raises(AssertionError, match="a block was enumerated"):
            build_quality_table(n, max_entries=budget + 10 ** 9)

    @pytest.mark.parametrize("n", [0, 6, 11])
    def test_a_budget_of_every_entry_is_enough(self, n):
        size = len(build_quality_table(n))
        assert len(build_quality_table(n, max_entries=size)) == size
        with pytest.raises(TableBudgetExceeded):
            build_quality_table(n, max_entries=size - 1)

    def test_load_shares_one_action_object_per_text(self, tmp_path):
        table = build_quality_table(12)
        path = tmp_path / "table.tsv"
        table.save(path)
        loaded = QualityTable.load(path)
        assert list(loaded.items()) == list(table.items())
        actions = [action for _, _, action in loaded.items()]
        assert len({id(action) for action in actions}) == len(set(actions))

    def test_cache_reuses_larger_tables(self):
        clear_table_cache()
        big = cached_quality_table(10)
        assert cached_quality_table(4) is big
        clear_table_cache()

    def test_cache_keeps_only_the_largest_table_of_a_key(self):
        clear_table_cache()
        try:
            small = cached_quality_table(10)
            large = cached_quality_table(28)
            assert large.n == 28
            assert list(exact._table_cache.values()) == [large]
            assert cached_quality_table(10) is large
            assert large.quality(epr(10)) == small.quality(epr(10))
        finally:
            clear_table_cache()

    def test_cache_keeps_float_and_exact_tables_apart(self):
        # 0.5 == Fraction(1, 2), so a cache keyed on the value alone would
        # answer the exact request from the float table
        clear_table_cache()
        try:
            assert isinstance(optimal_quality(epr(8), 0.5), float)
            value = optimal_quality(epr(8), Fraction(1, 2))
            assert isinstance(value, Fraction)
            assert value == Fraction(649, 256)
            assert isinstance(optimal_quality(epr(8), 0.5), float)
        finally:
            clear_table_cache()

    def test_each_spelling_of_a_directory_is_one_key(self, tmp_path, monkeypatch):
        (tmp_path / "d").mkdir()
        build_quality_table(10).save(tmp_path / "d" / "table-n10-ps1-2.tsv")
        monkeypatch.chdir(tmp_path)
        loads = []
        load = QualityTable.load.__func__

        def counting_load(cls, path):
            loads.append(path)
            return load(cls, path)

        monkeypatch.setattr(QualityTable, "load", classmethod(counting_load))
        clear_table_cache()
        try:
            tables = [cached_quality_table(8, HALF, table_dir)
                      for table_dir in ("d", "d/", "./d", str(tmp_path / "d"))]
            assert len(exact._table_cache) == 1
        finally:
            clear_table_cache()
        assert loads == [os.path.join("d", "table-n10-ps1-2.tsv")]
        assert all(table is tables[0] for table in tables)

    def test_a_directory_error_names_the_path_as_given(self, tmp_path, monkeypatch):
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "table-n8-ps1-2.tsv").write_text("junk\n")
        monkeypatch.chdir(tmp_path)
        clear_table_cache()
        try:
            with pytest.raises(CorruptTable, match=r"^\./d/table-n8-ps1-2\.tsv: malformed header"):
                cached_quality_table(8, HALF, "./d")
        finally:
            clear_table_cache()

    def test_a_directory_ignores_a_table_name_without_an_integer_n(self, tmp_path):
        junk = tmp_path / "table-nX-ps1-2.tsv"
        junk.write_text("junk\n")
        clear_table_cache()
        try:
            table = cached_quality_table(6, HALF, str(tmp_path))
        finally:
            clear_table_cache()
        assert table.n == 6
        assert sorted(os.listdir(tmp_path)) == ["table-n6-ps1-2.tsv", "table-nX-ps1-2.tsv"]
        assert junk.read_text() == "junk\n"

    @pytest.mark.parametrize("persist", [
        lambda path: build_quality_table(4, 0.5).save(path / "table.tsv"),
        lambda path: cached_quality_table(4, 0.5, str(path)),
    ], ids=["save", "table-directory"])
    def test_a_float_table_is_not_persisted(self, tmp_path, persist):
        with pytest.raises(TypeError, match="only exact-rational tables are persisted"):
            persist(tmp_path)
        assert os.listdir(tmp_path) == []

    def test_load_skips_blank_lines(self, tmp_path):
        table = build_quality_table(6)
        path = tmp_path / "table.tsv"
        table.save(path)
        header, *lines = path.read_text().splitlines()
        path.write_text("\n".join([header, ""] + lines[:5] + ["", ""] + lines[5:] + [""]) + "\n")
        loaded = QualityTable.load(path)
        assert (loaded.n, loaded.ps, list(loaded.items())) == (table.n, table.ps, list(table.items()))

    def test_budget_bounds_memory(self):
        # enumeration is lazy by vertex level, so a budget stops the build
        # before the whole N=40 state space (215,308 entries) is made
        limit = 4 * 2 ** 20
        tracemalloc.start()
        try:
            assert len(list(itertools.islice(enumerate_configurations(40), 10))) == 10
            assert tracemalloc.get_traced_memory()[1] < limit
            tracemalloc.reset_peak()
            with pytest.raises(TableBudgetExceeded):
                build_quality_table(40, max_entries=10)
            assert tracemalloc.get_traced_memory()[1] < limit
        finally:
            tracemalloc.stop()


# Writes (``write``) or loads (``load``) the table of N edges at PATH and
# prints how far the write or the load raised the process's VmHWM, in MB;
# "none" where the system reports no VmHWM.
FILE_MEMORY_SCRIPT = """
import sys
from cluster_forge.exact import QualityTable, build_quality_table

def peak_mb():
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh
                        if line.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        return None

mode, n, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
if mode == "write":
    table = build_quality_table(n)
    before = peak_mb()
    table.save(path)
else:
    before = peak_mb()
    QualityTable.load(path)
print("none" if before is None else peak_mb() - before)
"""

# The N=36 table (99,133 entries) raises a fresh process's VmHWM by 3.3-3.5
# MB to write and 6.7 MB to load, one group of keys at a time. Formatting
# every line before writing, and a key map over the whole table while
# loading, took 9.1-9.2 and 21.0-21.1 MB.
FILE_MEMORY_N = 36
WRITE_GROWTH_LIMIT_MB = 6
LOAD_GROWTH_LIMIT_MB = 12


class TestTableFileMemory:
    def test_write_and_load_hold_one_group_at_a_time(self, tmp_path):
        env = dict(os.environ)
        package_root = str(Path(exact.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        path = tmp_path / "table.tsv"
        growth = {}
        for mode in ("write", "load"):
            proc = subprocess.run([sys.executable, "-c", FILE_MEMORY_SCRIPT, mode,
                                   str(FILE_MEMORY_N), str(path)],
                                  env=env, capture_output=True, text=True, check=True, timeout=300)
            growth[mode] = proc.stdout.split()[-1]
        if "none" in growth.values():
            pytest.skip("the system reports no VmHWM")
        assert float(growth["write"]) < WRITE_GROWTH_LIMIT_MB
        assert float(growth["load"]) < LOAD_GROWTH_LIMIT_MB


def all_configurations(max_total):
    """Every configuration with at most ``max_total`` edges, from plain
    integer partitions with the largest part first."""
    def partitions(total, largest):
        if total == 0:
            yield ()
        for part in range(min(total, largest), 0, -1):
            for rest in partitions(total - part, part):
                yield (part,) + rest
    return [Configuration.from_lengths(lengths)
            for total in range(max_total + 1) for lengths in partitions(total, total)]


def stored_value(table, config):
    """The scaled value ``table`` stores for ``config``: decoded from the
    packed store by position and vertex count for an exact ps, read by
    index from the float array otherwise."""
    position = table.rank(config)
    if isinstance(table.ps, Fraction):
        return table.values.at(position, config.vertex_count)
    return table.values[position]


def assert_bellman(table, ps):
    """Each stored scaled value is the best over the fusion pairs of the
    stored successor values, and the stored action attains it."""
    p, q = (ps.numerator, ps.denominator) if isinstance(ps, Fraction) else (ps, 1)
    for config in enumerate_configurations(table.n):
        value = stored_value(table, config)
        action = table.action(config)
        vertices = config.vertex_count
        if config.chain_count <= 1:
            assert (value, action) == (config.total_length * q ** vertices, STOP), config
            continue
        options = {}
        for a, b in config.fusion_pairs():
            success = config.fuse(a, b, SUCCESS)
            failure = config.fuse(a, b, FAILURE)
            drop = vertices - failure.vertex_count
            options[Fuse(a, b)] = (p * stored_value(table, success)
                                   + (q - p) * q ** (drop - 1) * stored_value(table, failure))
        assert value == max(options.values()), config
        assert options[action] == value, config


# Edits of an N=8 table file's entry lines, and the error each makes load
# raise. A line that holds any key but the next one is named with the key
# expected there; a file cut short names its first absent key.
DAMAGED_FILES = [
    (lambda lines: lines[:5] + lines[6:],
     r"line 7 holds '1\^1,2\^2' where '1\^1,2\^1,5\^1' comes next in key order$"),
    (lambda lines: lines[:-1], r"the file ends before '8\^1'$"),
    (lambda lines: lines + lines[-1:], r"line 69 holds '8\^1' where the file should end$"),
    (lambda lines: lines[:1] + ["9^1\t9/1\tstop"] + lines[1:],
     r"line 3 holds '9\^1' where '1\^1' comes next in key order$"),
    (lambda lines: [line.replace("1^1,2^1\t", "2^1,1^1\t") for line in lines],
     r"line 4 holds '2\^1,1\^1' where '1\^1,2\^1' comes next in key order$"),
    (lambda lines: [line.replace("\t1/1\t", "\t1/3\t") for line in lines],
     "is not a multiple of"),
    (lambda lines: [line.replace("\t1/1\t", "\t1/0\t") for line in lines],
     "is not a multiple of"),
    (lambda lines: lines[:9] + [lines[9].split("\t")[0] + "\t1"], "line 11 is malformed"),
    (lambda lines: [lines[0].rsplit("\t", 1)[0] + "\t1;1"] + lines[1:], "line 2 is malformed"),
    (lambda lines: [lines[0] + "\u00e9"] + lines[1:], "line 2 is malformed"),
    (lambda lines: [line.replace("1^3\t3/2\t1,1", "1^3\t3/2\t0,-3") for line in lines],
     r"line 29 is malformed: '1\^3\\t3/2\\t0,-3'"),
    (lambda lines: [line[:-3] + "2,1" if line.endswith("\t1,2") else line for line in lines],
     r"line 4 is malformed: '1\^1,2\^1\\t2/1\\t2,1'"),
    (lambda lines: [line.replace("1^1\t1/1\t", "1^1\t2/1\t") for line in lines],
     r"value 2/1 of '1\^1' is outside \[0, 1\]$"),
    (lambda lines: [line.replace("1^1\t1/1\t", "1^1\t-1/2\t") for line in lines],
     r"value -1/2 of '1\^1' is outside \[0, 1\]$"),
]
DAMAGED_FILE_IDS = ["missing", "missing-last", "duplicated", "too-long", "not-canonical",
                    "bad-value", "zero-denominator", "truncated", "bad-action", "not-ascii",
                    "negative-action", "reversed-action", "value-above-the-edges",
                    "negative-value"]


def damage(path, edit) -> None:
    """Rewrite the table file at ``path`` with ``edit`` applied to its entry lines."""
    header, *lines = path.read_text().splitlines()
    path.write_text("\n".join([header] + edit(lines)) + "\n")


class TestRankedStorage:
    def test_rank_is_the_storage_position(self):
        table = build_quality_table(20)
        configs = [config for config, _, _ in table.items()]
        assert len(configs) == len(table) == len(set(configs))
        assert set(configs) == set(all_configurations(20))
        for position, config in enumerate(configs):
            assert table.rank(config) == position
            assert config in table
        assert epr(21) not in table
        with pytest.raises(KeyError):
            table.rank(epr(21))
        with pytest.raises(KeyError):
            table.quality(Configuration.single_chain(21))

    @pytest.mark.parametrize("ps", [HALF, 0.3], ids=str)
    def test_strategy_is_the_table_action(self, ps):
        table = build_quality_table(12, ps)
        strategy = table.as_strategy()
        assert strategy.name == "optimal"
        for config in all_configurations(12):
            assert strategy.choose(config) is table.action(config)
        for config in (epr(13), Configuration.single_chain(13), parse_key("1^1,12^1")):
            with pytest.raises(KeyError, match=re.escape(f"'{config}' has more than 12")):
                strategy.decide(config)
        error = validate_strategy(strategy, epr(13))
        assert error.message.startswith("no decision available")

    def test_strategy_makes_no_key_strings(self, monkeypatch):
        table = build_quality_table(10)

        def no_keys():
            raise AssertionError("a key string was made")

        monkeypatch.setattr(table, "_groups", no_keys)
        strategy = table.as_strategy("replay")
        assert strategy.name == "replay"
        assert strategy_quality(strategy, epr(10)) == table.quality(epr(10))

    @pytest.mark.parametrize("ps", [HALF, Fraction(137, 2048), 0.3], ids=str)
    def test_stored_values_obey_bellman(self, ps):
        table = build_quality_table(16, ps)
        assert_bellman(table, ps)
        assert all(type(stored_value(table, config)) is (int if isinstance(ps, Fraction) else float)
                   for config in enumerate_configurations(16))

    def test_load_passes_bellman(self, tmp_path):
        path = tmp_path / "table.tsv"
        build_quality_table(12).save(path)
        assert_bellman(QualityTable.load(path), HALF)

    @pytest.mark.parametrize("edit, message", DAMAGED_FILES, ids=DAMAGED_FILE_IDS)
    def test_load_rejects_a_damaged_file(self, tmp_path, edit, message):
        path = tmp_path / "table.tsv"
        build_quality_table(8).save(path)
        damage(path, edit)
        with pytest.raises(CorruptTable, match=message) as err:
            QualityTable.load(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("edit, message", DAMAGED_FILES, ids=DAMAGED_FILE_IDS)
    def test_a_damaged_file_fails_the_same_through_the_cli(self, capsys, tmp_path, monkeypatch,
                                                            edit, message):
        """A damaged cached table exits 3 with the error :meth:`QualityTable.load`
        raises, as one line."""
        path = tmp_path / "table-n8-ps1-2.tsv"
        build_quality_table(8).save(path)
        damage(path, edit)
        with pytest.raises(CorruptTable, match=message) as err:
            QualityTable.load(path)
        monkeypatch.setenv("CLUSTER_FORGE_TABLE_DIR", str(tmp_path))
        clear_table_cache()
        try:
            code = main(["quality", "--strategy", "optimal", "--n-max", "8"])
        finally:
            clear_table_cache()
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == f"cluster-forge: corrupt table: {err.value}\n"

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 28])
    def test_table_actions_are_stop_and_every_pair_of_at_most_n_edges(self, n):
        actions = _table_actions(n)
        assert actions[0] is STOP
        assert [(action.a, action.b) for action in actions[1:]] == sorted(
            (a, b) for a in range(1, n + 1) for b in range(a, n + 1) if a + b <= n)
        assert _table_actions(n) is actions

    @pytest.mark.parametrize("n, ps", [(n, ps) for n in (0, 1, 2, 8, 12)
                                       for ps in (HALF, Fraction(1, 3))] + [(28, HALF)],
                             ids=str)
    def test_a_loaded_table_equals_the_built_one(self, tmp_path, n, ps):
        """A table's actions are a function of N: the loaded table holds
        the built one's values and action ids, and a pickle round trip of
        either gives the same table."""
        built = build_quality_table(n, ps)
        path = tmp_path / "table.tsv"
        built.save(path)
        loaded = QualityTable.load(path)

        def fields(table):
            return table.n, table.ps, stored(table.values), table.action_ids, table.actions

        assert fields(loaded) == fields(built)
        assert built.actions is loaded.actions is _table_actions(n)
        for table in (built, loaded):
            assert fields(pickle.loads(pickle.dumps(table))) == fields(built)

    @pytest.mark.parametrize("text", ["6,6", "1,10", "0,-3", "2,1", " 1,2", "+1,2", "01,2",
                                      "1,2 ", "1,\u0662", "1_0,20", "Stop"])
    def test_load_accepts_only_the_action_texts_save_writes(self, tmp_path, text):
        """An action text that no table of N=10 edges holds, such as 6,6
        (12 edges) or a spelling of a pair other than ``a,b`` in plain
        digits with a <= b, makes its line malformed."""
        path = tmp_path / "table.tsv"
        build_quality_table(10).save(path)
        lines = path.read_text().splitlines()
        number = next(i for i, line in enumerate(lines, 1) if line.startswith("1^4\t"))
        line = lines[number - 1] = lines[number - 1].rsplit("\t", 1)[0] + "\t" + text
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # a byte that is not ASCII reads as U+FFFD
        read = line.encode("utf-8").decode("ascii", errors="replace")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line {number} is malformed: {read!r}")):
            QualityTable.load(path)

    @pytest.mark.parametrize("ps", [HALF, Fraction(137, 2048)], ids=str)
    @pytest.mark.parametrize("n", [0, 1, 2, 8, 16])
    def test_save_matches_a_sorting_writer(self, tmp_path, n, ps):
        table = build_quality_table(n, ps)
        path = tmp_path / "table.tsv"
        table.save(path)
        assert path.read_bytes() == sorting_writer(table)

    @pytest.mark.parametrize("swap", ["groups", "lines"])
    def test_load_rejects_keys_out_of_order(self, tmp_path, swap):
        """The first line that leaves key order is reported with the key
        expected there."""
        path = tmp_path / "table.tsv"
        build_quality_table(8).save(path)
        header, *lines = path.read_text().splitlines()
        heads = [line.split("\t")[0].partition(",")[0] for line in lines]
        start = heads.index("1^1")
        if swap == "groups":
            # the group 1^1 and the one after it
            middle = start + heads.count("1^1")
            stop = middle + heads.count(heads[middle])
        else:
            # the second and third lines of the group 1^1
            start += 1
            assert heads[start + 1] == "1^1"
            middle, stop = start + 1, start + 2
        expected = lines[start].split("\t")[0]
        lines[start:stop] = lines[middle:stop] + lines[start:middle]
        key = lines[start].split("\t")[0]
        path.write_text("\n".join([header] + lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line {2 + start} holds '{key}' where '{expected}' comes next "
                f"in key order")):
            QualityTable.load(path)

    @pytest.mark.parametrize("header", ["", "N=8", "ps=1/2", "N=x ps=1/2", "N=8 ps=1/0",
                                        "N=8 ps=0/1", "N=8 ps=3/2", "N=-1 ps=1/2", "N=8 ps"])
    def test_load_rejects_a_malformed_header(self, tmp_path, header):
        path = tmp_path / "table.tsv"
        build_quality_table(4).save(path)
        path.write_text("\n".join([header] + path.read_text().splitlines()[1:]) + "\n")
        expected = f"{path}: malformed header {header + chr(10)!r}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            QualityTable.load(path)


def sorting_writer(table) -> bytes:
    """The table file as :meth:`QualityTable.save` writes it, made the
    plain way: a line per entry of ``items()``, all sorted at once."""
    lines = sorted(f"{canonical_key(config)}\t{quality.numerator}/{quality.denominator}"
                   f"\t{format_action(action)}\n" for config, quality, action in table.items())
    header = f"N={table.n} ps={table.ps.numerator}/{table.ps.denominator}\n"
    return (header + "".join(lines)).encode("ascii")


def reference_quality(config, ps, memo):
    """(optimal quality, smallest maximizing action) by the plain
    recursion value = ps * value(success) + (1 - ps) * value(failure),
    memoized on configurations: the oracle for the integer-scaled engine."""
    if config not in memo:
        if config.chain_count <= 1:
            exact = isinstance(ps, Fraction)
            memo[config] = ((Fraction if exact else float)(config.total_length), STOP)
        else:
            best = action = None
            for a, b in config.fusion_pairs():
                value = (ps * reference_quality(config.fuse(a, b, SUCCESS), ps, memo)[0]
                         + (1 - ps) * reference_quality(config.fuse(a, b, FAILURE), ps, memo)[0])
                if best is None or value > best:
                    best, action = value, Fuse(a, b)
            memo[config] = (best, action)
    return memo[config]


RATIONAL_PS = [HALF, Fraction(1, 3), Fraction(2, 3), Fraction(137, 2048), Fraction(1)]


@st.composite
def small_configurations(draw, max_total=14):
    lengths, room = [], draw(st.integers(0, max_total))
    while room:
        lengths.append(draw(st.integers(1, room)))
        room -= lengths[-1]
    return Configuration.from_lengths(lengths)


def assert_matches_oracle(table, ps):
    """Same type, same value (floats bit for bit) and same action."""
    memo = {}
    for config, quality, action in table.items():
        ref_quality, ref_action = reference_quality(config, ps, memo)
        assert type(quality) is type(ref_quality), config
        if isinstance(quality, float):
            quality, ref_quality = quality.hex(), ref_quality.hex()
        assert (quality, action) == (ref_quality, ref_action), config


class TestIntegerScaledEngine:
    @pytest.mark.parametrize("ps", RATIONAL_PS, ids=str)
    def test_every_entry_equals_the_rational_oracle(self, ps):
        table = build_quality_table(14, ps)
        assert len(table) == sum(1 for _ in enumerate_configurations(14))
        assert_matches_oracle(table, ps)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 12),
           ps=st.fractions(min_value=0, max_value=1, max_denominator=4096).filter(bool))
    def test_random_rational_ps_equals_the_oracle(self, n, ps):
        assert_matches_oracle(build_quality_table(n, ps), ps)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 12),
           ps=st.one_of(st.sampled_from([0.5, 0.3, 0.137, 0.9, 1.0]),
                        st.floats(min_value=0, max_value=1, exclude_min=True)))
    def test_float_tables_are_bit_identical_to_the_float_oracle(self, n, ps):
        assert_matches_oracle(build_quality_table(n, ps), ps)

    @settings(max_examples=60, deadline=None)
    @given(config=small_configurations(max_total=10), ps=st.sampled_from(RATIONAL_PS))
    def test_random_configurations_match_the_event_tree(self, config, ps):
        table = build_quality_table(config.total_length, ps)
        quality = table.quality(config)
        assert (quality, table.action(config)) == reference_quality(config, ps, {})
        assert event_tree_oracle(table.as_strategy(), config, ps).mean_length == quality

    def test_code_deltas_equal_the_fusion_rule(self):
        """Every pair row of the optimiser: both code shifts and both
        vertex drops against ``Configuration.fuse`` on every configuration
        it applies to, both branch factors against ``p/q``, and the action
        index."""
        # cap = n is the table's rule; a smaller cap the razor model's, in
        # which a merged chain longer than cap is cut to cap
        n, (p, q) = 10, (2, 7)
        for cap in (n, 4):
            w, rows = _pair_rows(n, cap, Fraction(p, q))
            assert w == _count_codes(n, cap)
            # mixed radix: at most n // k chains have length k
            assert w[:4] == [0, 1, n + 1, (n + 1) * (n // 2 + 1)]

            def code(config):
                return sum(count * w[k] for k, count in config.items)

            def vertices(config):
                return sum(count * (k + 1) for k, count in config.items)

            def cut(config):
                return Configuration.from_lengths(
                    min(k, cap) for k, count in config.items for _ in range(count))

            configs = [c for c in enumerate_configurations(n) if max(c.lengths(), default=0) <= cap]
            assert len({code(c) for c in configs}) == len(configs)
            reached = set()
            for config in configs:
                for a, b in config.fusion_pairs():
                    s_shift, s_factor, s_drop, f_shift, f_factor, f_drop, index = rows[a][b]
                    won = cut(config.fuse(a, b, SUCCESS))
                    lost = config.fuse(a, b, FAILURE)
                    assert code(won) == code(config) + s_shift
                    assert code(lost) == code(config) + f_shift
                    assert vertices(won) == vertices(config) - 1 - (a + b - min(a + b, cap))
                    assert vertices(won) == vertices(config) - s_drop
                    assert vertices(lost) == vertices(config) - f_drop
                    assert (s_factor, f_factor) == (p * q ** (s_drop - 1), (q - p) * q ** (f_drop - 1))
                    assert _table_actions(n)[index] == Fuse(a, b)
                    reached.add((a, b))
            # a row for each pair a <= b <= cap with a + b <= n, all reached
            assert reached == {(a, b) for a in range(1, cap + 1) for b in range(a, cap + 1)
                               if a + b <= n}
            assert sum(row is not None for pairs in rows for row in pairs) == len(reached)
            # a float ps: the same rows with the float branch probabilities
            _, float_rows = _pair_rows(n, cap, 0.3)
            assert float_rows == [[row and (row[0], 0.3, row[2], row[3], 1 - 0.3, *row[5:])
                                   for row in pairs] for pairs in rows]


# What a built N=28 table (18,460 entries) keeps alive, traced with
# tracemalloc: 1.28 MB with one int per entry, 0.57 MB with the values
# packed per vertex level.
RETAINED_N = 28
RETAINED_LIMIT = 3 * 2 ** 18  # 0.75 MB


def exact_or_hex(value):
    """A value as compared bit for bit: a float by its hex form."""
    return value.hex() if isinstance(value, float) else value


def stored(values):
    """A table's value store as compared bit for bit: a packed store by
    its (n, q) and levels, a float array by its bytes."""
    if isinstance(values, _PackedInts):
        return values.n, values.q, values.levels
    return values.typecode, values.tobytes()


class TestPackedValues:
    """A table's values sit in one packed store, a :class:`_PackedInts` for
    an exact ps and an ``array('d')`` for a float one, that decodes to the
    plain recursion's values."""

    @pytest.mark.parametrize("ps", [HALF, Fraction(2, 7), Fraction(137, 2048)], ids=str)
    def test_the_scaled_read_is_the_stored_int_over_its_scale(self, ps, tmp_path):
        table = build_quality_table(8, ps)
        table.save(tmp_path / "t.tsv")
        for read in (table, QualityTable.load(tmp_path / "t.tsv")):
            for position, config in enumerate(enumerate_configurations(8)):
                value, scale = read.scaled(config)
                # unreduced: the scale is q**V even where a gcd divides out
                assert scale == ps.denominator ** config.vertex_count
                assert value == table.values.at(position, config.vertex_count)
                assert Fraction(value, scale) == table.quality(config)

    def test_a_float_table_has_no_scaled_read(self):
        with pytest.raises(TypeError, match="float table"):
            build_quality_table(4, 0.5).scaled(epr(2))

    @pytest.mark.parametrize("ps", [HALF, Fraction(1, 3), Fraction(137, 2048), 0.5, 0.3],
                             ids=str)
    def test_decoded_values_equal_the_reference(self, ps):
        n = 12
        table = build_quality_table(n, ps)
        q = ps.denominator if isinstance(ps, Fraction) else 1
        assert type(table.values) is (_PackedInts if q != 1 else array)
        memo = {}
        configs = list(enumerate_configurations(n))
        expected = [exact_or_hex(reference_quality(config, ps, memo)[0] * q ** config.vertex_count)
                    for config in configs]
        if q != 1:
            decoded = [table.values.at(i, config.vertex_count) for i, config in enumerate(configs)]
        else:
            decoded = [table.values[i] for i in range(len(configs))]
        assert [exact_or_hex(value) for value in decoded] == expected
        assert len(table) == len(configs)

    @pytest.mark.parametrize("ps", [HALF, Fraction(137, 2048)], ids=str)
    def test_each_level_is_packed_at_its_width(self, ps):
        # the widths follow from (N, q) alone: a value at V vertices is at
        # most min(V - 1, N) * q**V, and 0 at V = 0
        n, q = 10, ps.denominator
        table = build_quality_table(n, ps)
        widths = [max(1, ((max(min(v - 1, n), 0) * q ** v).bit_length() + 7) // 8)
                  for v in range(2 * n + 1)]
        assert (table.values.n, table.values.q, table.values.widths) == (n, q, widths)
        assert _PackedInts(n, q).widths == widths
        counts = [0] * (2 * n + 1)
        for config in enumerate_configurations(n):
            counts[config.vertex_count] += 1
        assert [len(level) for level in table.values.levels] == [
            count * width for count, width in zip(counts, widths)]
        assert all(type(level) is bytes for level in table.values.levels)

    @pytest.mark.parametrize("ps", [HALF, Fraction(137, 2048), 0.3], ids=str)
    def test_a_pickle_round_trip_gives_an_equal_table(self, ps):
        table = build_quality_table(10, ps)
        copy = pickle.loads(pickle.dumps(table))
        assert type(copy.values) is type(table.values)
        assert stored(copy.values) == stored(table.values)
        assert list(copy.items()) == list(table.items())
        if isinstance(ps, Fraction):
            # the pickle carries the layout's (n, q), not its widths
            assert table.values.__reduce__() == (_PackedInts, (10, ps.denominator,
                                                               table.values.levels))

    def test_a_value_wider_than_its_level_overflows(self):
        # N=2, q=16: levels of 1, 1, 2, 2 and 3 bytes
        store = _PackedInts(2, 16)
        assert store.widths == [1, 1, 2, 2, 3]
        store.extend([255])
        with pytest.raises(OverflowError):
            store.extend([256])
        store.extend([])
        with pytest.raises(OverflowError):
            store.extend([2 ** 16])
        with pytest.raises(OverflowError):
            _PackedInts(2, 16).extend([-1])
        # the check is int.to_bytes itself, not an assert
        code = ("assert False, 'asserts must be stripped'\n"
                "from cluster_forge.exact import _PackedInts\n"
                "try:\n    _PackedInts(2, 16).extend([256])\n"
                "except OverflowError:\n    print('raised')\n")
        env = dict(os.environ)
        package_root = str(Path(exact.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        assert proc.stdout == "raised\n"

    def test_a_built_table_retains_its_values_packed(self):
        build_quality_table(4)
        _table_actions(RETAINED_N)
        tracemalloc.start()
        try:
            table = build_quality_table(RETAINED_N)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(table) == 18460
        assert retained < RETAINED_LIMIT

def reference_strategy_value(strategy, start, ps, attempts=False):
    """Quality (or expected attempts) of ``strategy`` from ``start`` by the
    plain recursion value = base + ps * value(success) + (1 - ps) *
    value(failure), memoized on states: the oracle for the
    integer-scaled read side. A two-stage strategy decides each state with
    a fresh copy, so no decision it remembers is used."""
    cast = Fraction if isinstance(ps, Fraction) else float
    base = cast(1 if attempts else 0)
    memo = {}

    def value(state):
        if state not in memo:
            if isinstance(strategy, StatefulStrategy):
                chains, memory = state
                decider = strategy
                if isinstance(strategy, TwoStage):
                    decider = TwoStage(strategy.block_size, strategy.inner)
                action = decider.decide(chains, memory)
                total = chains.total_length
            else:
                action = strategy.decide(state)
                total = state.total_length
            if isinstance(action, Stop):
                memo[state] = cast(0 if attempts else total)
            else:
                children = []
                for outcome in (SUCCESS, FAILURE):
                    if isinstance(strategy, StatefulStrategy):
                        nxt = chains.fuse_at(action.a, action.b, outcome)
                        children.append(
                            (nxt, strategy.next_memory(chains, memory, action, outcome, nxt)))
                    else:
                        children.append(state.fuse(action.a, action.b, outcome))
                won, lost = (value(child) for child in children)
                memo[state] = base + ps * won + (1 - ps) * lost
        return memo[state]

    if isinstance(strategy, StatefulStrategy):
        chains = IdentityConfiguration.from_configuration(start)
        return value((chains, strategy.initial_memory(chains)))
    return value(start)


def assert_same_number(value, reference):
    """Same type and value; floats bit for bit."""
    assert type(value) is type(reference)
    if isinstance(value, float):
        assert value.hex() == reference.hex()
    else:
        assert value == reference


READ_SIDE_STRATEGIES = [MODESTY, GREED, STATIC, TwoStage(2), TwoStage(3), TwoStage(5),
                        TwoStage(8), TwoStage(3, inner=GREED)]
READ_SIDE_PS = [HALF, Fraction(1, 3), Fraction(137, 2048), Fraction(1)]
READ_SIDE_PS += [float(ps) for ps in READ_SIDE_PS]


class TestIntegerScaledReadSide:
    @pytest.mark.parametrize("ps", READ_SIDE_PS, ids=repr)
    @pytest.mark.parametrize("strategy", READ_SIDE_STRATEGIES, ids=lambda s: s.name)
    def test_epr_starts_equal_the_plain_recursion(self, strategy, ps):
        for n in range(13):
            for attempts, evaluate in ((False, strategy_quality), (True, expected_attempts)):
                assert_same_number(evaluate(strategy, epr(n), ps),
                                   reference_strategy_value(strategy, epr(n), ps, attempts))

    @settings(max_examples=80, deadline=None)
    @given(strategy=st.sampled_from(READ_SIDE_STRATEGIES),
           start=small_configurations(max_total=10),
           ps=st.one_of(st.sampled_from(READ_SIDE_PS),
                        st.fractions(min_value=0, max_value=1, max_denominator=4096).filter(bool),
                        st.floats(min_value=0, max_value=1, exclude_min=True)))
    def test_random_starts_and_ps_equal_the_plain_recursion(self, strategy, start, ps):
        quality = strategy_quality(strategy, start, ps)
        attempts = expected_attempts(strategy, start, ps)
        assert_same_number(quality, reference_strategy_value(strategy, start, ps))
        assert_same_number(attempts, reference_strategy_value(strategy, start, ps, True))
        if isinstance(ps, Fraction):
            # edge-loss identity: a failed attempt loses two edges
            assert quality == start.total_length - 2 * (1 - ps) * attempts

    @pytest.mark.parametrize("ps", READ_SIDE_PS, ids=repr)
    @pytest.mark.parametrize("strategy", READ_SIDE_STRATEGIES, ids=lambda s: s.name)
    def test_range_equals_one_call_per_start(self, strategy, ps):
        for ns in (range(0, 14), [9, 2, 13, 0, 5]):
            values = strategy_quality_range(strategy, ns, ps)
            assert list(values) == list(ns)
            for n, value in values.items():
                assert_same_number(value, strategy_quality(strategy, epr(n), ps))

    def test_range_of_nothing_is_empty(self):
        assert strategy_quality_range(STATIC, [], HALF) == {}

    @pytest.mark.parametrize("ps", [Fraction(137, 2048), 137 / 2048], ids=repr)
    @pytest.mark.parametrize("strategy", [MODESTY, STATIC], ids=lambda s: s.name)
    def test_a_sweep_expands_each_state_once_and_answers_keep_the_type_of_ps(
            self, strategy, ps, monkeypatch):
        starts = [epr(n) for n in range(1, 11)]
        dag = set().union(*(event_dag(strategy, strategy.start(start)) for start in starts))
        expected = {False: [strategy_quality(strategy, start, ps) for start in starts],
                    True: [expected_attempts(strategy, start, ps) for start in starts]}
        expanded = []

        def expand(strategy, state, v):
            expanded.append(state)
            return _expand(strategy, state, v)

        monkeypatch.setattr(exact, "_expand", expand)
        for attempts in (False, True):
            expanded.clear()
            answers = _sweep(strategy, starts, ps, attempts)
            assert len(expanded) == len(dag) and set(expanded) == dag
            assert all(type(answer) is type(ps) for answer in answers)
            assert answers == expected[attempts]

    def test_range_rejects_bad_ps(self):
        with pytest.raises(ValueError):
            strategy_quality_range(MODESTY, range(1, 4), Fraction(0))
        with pytest.raises(ValueError):
            strategy_quality_range(STATIC, range(1, 4), 1.5)


class TestBothStateKindsThroughOneWalker:
    """A stateless strategy and its IdentityAdapter play the same process
    on different kinds of state (configurations, identity chains plus
    memory); every walker must give both the same answers."""

    @pytest.mark.parametrize("ps", [HALF, Fraction(137, 2048), 0.3], ids=repr)
    @pytest.mark.parametrize("name", ["modesty", "greed", "lookup"])
    def test_identity_adapter_agrees_with_its_strategy(self, name, ps):
        if name == "lookup":
            strategy = build_quality_table(10).as_strategy()
        else:
            strategy = BUILTIN_STRATEGIES[name]
        adapter = IdentityAdapter(strategy)
        for start in enumerate_configurations(10):
            for evaluate in (strategy_quality, expected_attempts):
                assert_same_number(evaluate(adapter, start, ps), evaluate(strategy, start, ps))
            # distribution, mean length, expected attempts and path count
            assert event_tree_oracle(adapter, start, ps) == event_tree_oracle(strategy, start, ps)
            assert validate_strategy(strategy, start) is None
            assert validate_strategy(adapter, start) is None


class StopsBelowSixVertices(Strategy):
    """Smallest-first until fewer than six vertices are left, then stops:
    from four pairs, invalid a few attempts into the walk."""

    name = "stops-below-six"

    def decide(self, config):
        return STOP if config.vertex_count < 6 else MODESTY.decide(config)


class NestedSweep(Strategy):
    """Smallest-first that runs a sweep of its own at each decision, one
    paused builder inside another, and records whether the collector was
    off after each inner call."""

    name = "nested-sweep"

    def __init__(self):
        self.paused: list[bool] = []

    def decide(self, config):
        strategy_quality(MODESTY, epr(2))
        self.paused.append(not gc.isenabled())
        return MODESTY.decide(config)


class Memory:
    """A weak-referenceable memory that compares by its event string;
    every one made is counted in ``refs``."""

    __slots__ = ("event", "__weakref__")
    refs: list = []

    def __init__(self, event):
        self.event = event
        Memory.refs.append(weakref.ref(self))

    def __eq__(self, other):
        return self.event == other.event

    def __hash__(self):
        return hash(self.event)

    @classmethod
    def live(cls) -> int:
        gc.collect()
        return sum(ref() is not None for ref in cls.refs)


class StopsAtOneEvent(StatefulStrategy):
    """Fuses the first two chains, and stops once its memory holds the
    event ``SFSFSFSFSFSF``: from 14 pairs, two chains are left there.
    Off that event's prefixes the memory is None, so the DAG merges."""

    name = "stops-at-one-event"
    event = "SF" * 6

    def initial_memory(self, chains):
        return Memory("")

    def decide(self, chains, memory):
        if len(chains.chains) <= 1 or memory.event == self.event:
            return STOP
        return Fuse(0, 1)

    def next_memory(self, chains, memory, action, outcome, result):
        event = None if memory.event is None else memory.event + outcome
        return Memory(event if event is not None and self.event.startswith(event) else None)


def saved_table(path, damaged: bool = False):
    """``path`` after an N=8 table is saved there, cut inside line 19 if
    ``damaged``."""
    build_quality_table(8).save(path)
    if damaged:
        text = path.read_text()
        path.write_text(text[:text.index("\t", 300) + 2])
    return path


class TestHeldError:
    """An error raised by a sweep keeps, through its traceback, the starts
    and the failing path alive, not the memo of the whole walk."""

    STARTS = [epr(n) for n in range(1, 15)]

    @pytest.mark.parametrize("call, starts", [
        (lambda strategy: strategy_quality_range(strategy, range(1, 15)), 14),
        (lambda strategy: validate_strategy_sweep(strategy, TestHeldError.STARTS), 14),
        (lambda strategy: strategy_quality(strategy, epr(14)), 1),
        (lambda strategy: expected_attempts(strategy, epr(14)), 1),
    ], ids=["quality-range", "validate-sweep", "quality", "attempts"])
    def test_a_held_error_keeps_only_the_starts_and_its_path(self, call, starts):
        Memory.refs.clear()
        try:
            error = call(StopsAtOneEvent())
        except InvalidStrategy as exc:
            error = exc
        assert (error.start, error.event, error.message) == (
            epr(14), "SF" * 6, "premature stop with 2 chains")
        assert Memory.live() <= starts + 2 * len(error.event) + 2
        del error
        assert Memory.live() == 0


class TestCollectorPaused:
    """The bulk builders run with the cyclic collector paused
    (``exact._collector_paused``) and leave it as they found it, on
    return and on raise."""

    @pytest.mark.parametrize("build", [
        lambda: strategy_quality_range(STATIC, range(1, 33)),
        lambda: build_quality_table(20),
        lambda: event_tree_oracle(MODESTY, epr(12)),
    ], ids=["static-sweep", "table-build", "oracle"])
    def test_no_collection_runs_inside_a_builder(self, gc_collections, build):
        with gc_collections() as generations:
            build()
        assert generations == []

    def test_no_collection_runs_inside_a_table_save_or_load(self, gc_collections, tmp_path):
        table = build_quality_table(20)
        path = tmp_path / "table.tsv"
        with gc_collections() as generations:
            table.save(path)
        assert generations == []
        with gc_collections() as generations:
            loaded = QualityTable.load(path)
        assert generations == []
        assert loaded.values.levels == table.values.levels

    @pytest.mark.parametrize("call", [
        lambda tmp_path: strategy_quality_range(STATIC, range(1, 9)),
        lambda tmp_path: build_quality_table(8),
        lambda tmp_path: build_quality_table(8).save(tmp_path / "table.tsv"),
        lambda tmp_path: QualityTable.load(saved_table(tmp_path / "t.tsv")),
        lambda tmp_path: event_tree_oracle(GREED, epr(6)),
    ], ids=["sweep", "table-build", "save", "load", "oracle"])
    def test_the_collector_state_is_restored_on_return(self, collector_state, tmp_path, call):
        call(tmp_path)
        assert gc.isenabled() is collector_state

    @pytest.mark.parametrize("call, error", [
        (lambda tmp_path: strategy_quality(StopsBelowSixVertices(), epr(4)), InvalidStrategy),
        (lambda tmp_path: event_tree_oracle(StopsBelowSixVertices(), epr(4)), InvalidStrategy),
        (lambda tmp_path: QualityTable.load(saved_table(tmp_path / "t.tsv", damaged=True)), ValueError),
        (lambda tmp_path: build_quality_table(0.5).save(tmp_path / "t.tsv"), TypeError),
        (lambda tmp_path: build_quality_table(4, Fraction(0)), ValueError),
    ], ids=["sweep-invalid", "oracle-invalid", "load-damaged", "save-float", "build-bad-ps"])
    def test_the_collector_state_is_restored_on_raise(self, collector_state, tmp_path, call,
                                                      error):
        with pytest.raises(error):
            call(tmp_path)
        assert gc.isenabled() is collector_state

    def test_a_nested_builder_keeps_the_outer_pause(self, collector_state):
        strategy = NestedSweep()
        assert strategy_quality(strategy, epr(4)) == strategy_quality(MODESTY, epr(4))
        assert strategy.paused and all(strategy.paused)
        assert gc.isenabled() is collector_state
