import errno
import fnmatch
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluster_forge import exact
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
    QualityTable,
    TableBudgetExceeded,
    _count_codes,
    _explore,
    _optimize,
    _scaling,
    _sweep,
    build_quality_table,
    cached_quality_table,
    clear_table_cache,
    event_tree_oracle,
    expected_attempts,
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
    StatefulStrategy,
    Strategy,
    TwoStage,
    format_action,
    validate_strategy,
)


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


def assert_bellman(table, ps):
    """Each stored scaled value is the best over the fusion pairs of the
    stored successor values, and the stored action attains it."""
    p, q = (ps.numerator, ps.denominator) if isinstance(ps, Fraction) else (ps, 1)
    for config in enumerate_configurations(table.n):
        position = table.rank(config)
        value = table.values[position]
        action = table.actions[table.action_ids[position]]
        vertices = config.vertex_count
        if config.chain_count <= 1:
            assert (value, action) == (config.total_length * q ** vertices, STOP), config
            continue
        options = {}
        for a, b in config.fusion_pairs():
            success = config.fuse(a, b, SUCCESS)
            failure = config.fuse(a, b, FAILURE)
            drop = vertices - failure.vertex_count
            options[Fuse(a, b)] = (p * table.values[table.rank(success)]
                                   + (q - p) * q ** (drop - 1) * table.values[table.rank(failure)])
        assert value == max(options.values()), config
        assert options[action] == value, config


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
        result = validate_strategy(strategy, epr(13))
        assert not result.ok and result.message.startswith("no decision available")

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
        assert all(type(value) is (int if isinstance(ps, Fraction) else float)
                   for value in table.values)

    def test_load_passes_bellman(self, tmp_path):
        path = tmp_path / "table.tsv"
        build_quality_table(12).save(path)
        assert_bellman(QualityTable.load(path), HALF)

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:5] + lines[6:], "1 of the 67 entries for N=8 are missing"),
        (lambda lines: lines + lines[-1:], "is repeated or not the key"),
        (lambda lines: lines[:1] + ["9^1\t9/1\tstop"] + lines[1:], "is repeated or not the key"),
        (lambda lines: [line.replace("1^1,2^1\t", "2^1,1^1\t") for line in lines],
         "is repeated or not the key"),
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
    ], ids=["missing", "duplicated", "too-long", "not-canonical", "bad-value", "zero-denominator",
            "truncated", "bad-action", "not-ascii", "negative-action", "reversed-action"])
    def test_load_rejects_a_damaged_file(self, tmp_path, edit, message):
        path = tmp_path / "table.tsv"
        build_quality_table(8).save(path)
        header, *lines = path.read_text().splitlines()
        path.write_text("\n".join([header] + edit(lines)) + "\n")
        with pytest.raises(ValueError, match=message) as err:
            QualityTable.load(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("ps", [HALF, Fraction(137, 2048)], ids=str)
    @pytest.mark.parametrize("n", [0, 1, 2, 8, 16])
    def test_save_matches_a_sorting_writer(self, tmp_path, n, ps):
        table = build_quality_table(n, ps)
        path = tmp_path / "table.tsv"
        table.save(path)
        assert path.read_bytes() == sorting_writer(table)

    @pytest.mark.parametrize("swap", ["groups", "lines"])
    def test_load_rejects_keys_out_of_order(self, tmp_path, swap):
        path = tmp_path / "table.tsv"
        build_quality_table(8).save(path)
        header, *lines = path.read_text().splitlines()
        heads = [line.split("\t")[0].partition(",")[0] for line in lines]
        if swap == "groups":
            # the group 1^1 and the one after it
            start = heads.index("1^1")
            middle = start + heads.count("1^1")
            stop = middle + heads.count(heads[middle])
            lines[start:stop] = lines[middle:stop] + lines[start:middle]
            # 1^1 is read after the later group
            number = 2 + start + stop - middle
        else:
            # the second and third lines of the group 1^1
            start = heads.index("1^1") + 1
            assert heads[start + 1] == "1^1"
            lines[start], lines[start + 1] = lines[start + 1], lines[start]
            number = 2 + start + 1
        key = lines[number - 2].split("\t")[0]
        path.write_text("\n".join([header] + lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line {number}: '{key}' is repeated or not the key")):
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
        # cap = n is the table's rule; a smaller cap the razor model's, in
        # which a merged chain longer than cap is cut to cap
        n = 10
        for cap in (n, 4):
            w, success, failure = _count_codes(n, cap)

            def code(config):
                return sum(count * w[k] for k, count in config.items)

            def cut(config):
                return Configuration.from_lengths(
                    min(k, cap) for k, count in config.items for _ in range(count))

            configs = [c for c in enumerate_configurations(n) if max(c.lengths(), default=0) <= cap]
            assert len({code(c) for c in configs}) == len(configs)
            for config in configs:
                for a, b in config.fusion_pairs():
                    won = cut(config.fuse(a, b, SUCCESS))
                    lost = config.fuse(a, b, FAILURE)
                    assert code(won) == code(config) + success[a][b]
                    assert code(lost) == code(config) + failure[a][b]
                    assert won.vertex_count == config.vertex_count - 1 - (a + b - min(a + b, cap))
                    assert lost.vertex_count == config.vertex_count - 2 - (a == 1) - (b == 1)


    @pytest.mark.parametrize("ps", [HALF, Fraction(1, 3), 0.3], ids=str)
    def test_capped_engine_obeys_its_recursion(self, ps):
        # every stored value is the best and every stored cost the least
        # over the fusion pairs, from the stored successors with a merged
        # chain cut to cap; the stored action is the first pair that
        # attains the best
        n = 10
        p, q = (ps.numerator, ps.denominator) if isinstance(ps, Fraction) else (ps, 1)
        for cap in (n, 4, 2):
            values, action_ids, actions, costs, starts = _optimize(n, ps, cap, attempts=True)
            configs = [c for c in enumerate_configurations(n) if max(c.lengths(), default=0) <= cap]
            position = {config: i for i, config in enumerate(configs)}
            assert len(values) == len(action_ids) == len(costs) == len(configs)
            # each start of m pairs (2m vertices), decoded
            decode = (lambda x, m: Fraction(x, q ** (2 * m))) if q != 1 else (lambda x, m: x)
            pairs = [position[Configuration.epr_pairs(m)] for m in range(n + 1)]
            assert starts == [(decode(values[i], m), decode(costs[i], m))
                              for m, i in enumerate(pairs)]
            for config, i in position.items():
                vertices = config.vertex_count
                if config.chain_count <= 1:
                    assert (values[i], actions[action_ids[i]], costs[i]) == (
                        config.total_length * q ** vertices, STOP, 0), config
                    continue
                options, spent = {}, []
                for a, b in config.fusion_pairs():
                    won = Configuration.from_lengths(
                        min(k, cap) for k, count in config.fuse(a, b, SUCCESS).items
                        for _ in range(count))
                    lost = config.fuse(a, b, FAILURE)
                    s_factor = p * q ** (vertices - won.vertex_count - 1)
                    f_factor = (q - p) * q ** (vertices - lost.vertex_count - 1)
                    w, f = position[won], position[lost]
                    options[Fuse(a, b)] = s_factor * values[w] + f_factor * values[f]
                    spent.append(q ** vertices + s_factor * costs[w] + f_factor * costs[f])
                best = max(options.values())
                assert values[i] == best, (cap, config)
                assert actions[action_ids[i]] == next(
                    action for action, value in options.items() if value == best), (cap, config)
                assert costs[i] == min(spent), (cap, config)


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

    @pytest.mark.parametrize("ps, stored", [(Fraction(137, 2048), int), (137 / 2048, float)],
                             ids=repr)
    @pytest.mark.parametrize("strategy", [MODESTY, STATIC], ids=lambda s: s.name)
    def test_memo_holds_scaled_values_and_answers_keep_the_type_of_ps(
            self, strategy, ps, stored, monkeypatch):
        starts = [epr(n) for n in range(1, 11)]
        roots = [strategy.start(start) for start in starts]
        explored = set()
        for root in roots:
            for state, _, _ in _explore(strategy, root, explored):
                explored.add(state)
        _, _, scale, _ = _scaling(ps, 20)
        # the memo _sweep hands the explorer, once per start
        memos = []

        def explore(strategy, root, seen, budget=None):
            memos.append(seen)
            return _explore(strategy, root, seen, budget)

        monkeypatch.setattr(exact, "_explore", explore)
        for attempts in (False, True):
            memos.clear()
            answers = _sweep(strategy, starts, ps, attempts)
            memo = memos[0]
            assert len(memos) == len(starts) and all(seen is memo for seen in memos)
            assert memo.keys() == explored
            assert all(type(value) is stored for value in memo.values())
            assert all(type(answer) is type(ps) for answer in answers)
            for root, answer in zip(roots, answers):
                assert memo[root] == answer * scale[root.vertex_count]

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
            result = validate_strategy(strategy, start)
            assert result.ok and validate_strategy(adapter, start) == result
