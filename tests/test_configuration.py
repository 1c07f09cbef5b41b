import os
import pickle
import subprocess
import sys
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
    _block_enumerator,
    _blocks,
    _fused,
    _partition_ranker,
    canonical_key,
    enumerate_configurations,
    parse_key,
)


def partition_count_oracle(n: int) -> list[int]:
    """Independent partition counts via the coin-change recurrence."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts


def reference_partitions_into(total: int, parts: int, max_part: int) -> list:
    """The partitions of ``total`` into exactly ``parts`` parts, each <=
    max_part, as sorted (part, multiplicity) tuples: the plain recursion
    whose order the storage layout was first defined by, smallest part
    first, then its multiplicity, with all-equal parts last."""
    out = []

    def extend(prefix, total, parts, min_part):
        for part in range(min_part, min(max_part, total // parts) + 1):
            rest, rest_parts = total, parts
            for mult in range(1, parts):
                rest -= part
                rest_parts -= 1
                if rest_parts * (part + 1) <= rest <= rest_parts * max_part:
                    extend(prefix + ((part, mult),), rest, rest_parts, part + 1)
            if part * parts == total:
                out.append(prefix + ((part, parts),))

    if parts:
        extend((), total, parts, 1)
    elif not total:
        out.append(())
    return out


def epr(n):
    return Configuration.epr_pairs(n)


class TestCounts:
    def test_total_length(self):
        assert Configuration().total_length == 0
        assert epr(4).total_length == 4
        assert Configuration.from_lengths([3, 2, 2]).total_length == 7

    def test_vertex_count(self):
        assert Configuration.single_chain(1).vertex_count == 2
        assert epr(4).vertex_count == 8
        assert Configuration.single_chain(3).vertex_count == 4

    def test_chain_count_and_terminal(self):
        assert Configuration().is_terminal
        assert Configuration.single_chain(5).is_terminal
        assert not epr(2).is_terminal
        assert Configuration.from_lengths([3, 2, 2]).chain_count == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            Configuration(((2, 1), (1, 1)))  # not sorted
        with pytest.raises(ValueError):
            Configuration(((1, 0),))  # zero count


class TestFusionRule:
    def test_merge_two_pairs(self):
        assert epr(2).fuse(1, 1, SUCCESS) == Configuration.single_chain(2)

    def test_two_pairs_annihilate(self):
        assert epr(2).fuse(1, 1, FAILURE) == Configuration()

    def test_failure_loses_one_edge_each(self):
        start = Configuration.from_lengths([3, 2])
        assert start.fuse(3, 2, FAILURE) == Configuration.from_lengths([2, 1])

    def test_rejects_absent_chains(self):
        with pytest.raises(InvalidFusionError):
            epr(2).fuse(3, 1, SUCCESS)
        with pytest.raises(InvalidFusionError):
            epr(2).fuse(1, 3, FAILURE)
        with pytest.raises(InvalidFusionError):
            Configuration.from_lengths([2, 1]).fuse(2, 2, SUCCESS)

    def test_fuse_is_unordered(self):
        assert Fuse(3, 2) == Fuse(2, 3)
        start = Configuration.from_lengths([3, 2])
        assert start.fuse(2, 3, SUCCESS) == start.fuse(3, 2, SUCCESS)

    def test_fused_gives_both_lengths_with_0_for_a_destroyed_chain(self):
        assert _fused(3, 2, True) == (5, 0)
        assert _fused(3, 2, False) == (2, 1)
        assert _fused(1, 4, False) == (0, 3)
        assert _fused(1, 1, False) == (0, 0)

    @pytest.mark.parametrize("won", [True, False])
    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_fused_on_arrays_equals_the_scalar_rule(self, won, dtype):
        """The Monte Carlo pairing round calls the rule on columns of
        lengths: each element as the scalar rule gives, in the lineup's
        dtype."""
        rng = np.random.default_rng(7)
        xs = rng.integers(1, 20, 200).astype(dtype)
        ys = rng.integers(1, 20, 200).astype(dtype)
        x, y = _fused(xs, ys, won)
        # a merged chain's partner is the scalar 0, which np.where spreads
        columns = zip(np.broadcast_to(x, xs.shape).tolist(), np.broadcast_to(y, ys.shape).tolist())
        assert list(columns) == [_fused(int(a), int(b), won) for a, b in zip(xs, ys)]
        assert x.dtype == dtype


configurations = st.lists(st.integers(1, 8), min_size=0, max_size=8).map(
    Configuration.from_lengths
)


@st.composite
def config_with_pair(draw):
    config = draw(configurations.filter(lambda c: c.chain_count >= 2))
    pairs = list(config.fusion_pairs())
    return config, draw(st.sampled_from(pairs))


@given(config_with_pair(), st.sampled_from([SUCCESS, FAILURE]))
@settings(max_examples=200, deadline=None)
def test_fusion_invariants(config_pair, outcome):
    config, (a, b) = config_pair
    after = config.fuse(a, b, outcome)
    assert after.vertex_count < config.vertex_count
    assert after.total_length % 2 == config.total_length % 2
    if outcome == SUCCESS:
        assert after.total_length == config.total_length
        assert after.chain_count == config.chain_count - 1
    else:
        assert after.total_length == config.total_length - 2


class TestEnumeration:
    def test_zero(self):
        assert list(enumerate_configurations(0)) == [Configuration()]

    def test_small_count(self):
        assert len(list(enumerate_configurations(4))) == 12

    @pytest.mark.parametrize("n", [10, 20, 30])
    def test_count_matches_partition_oracle(self, n):
        expected = sum(partition_count_oracle(n))
        assert sum(1 for _ in enumerate_configurations(n)) == expected

    def test_unique_and_ordered(self):
        seen = set()
        last_v = -1
        for config in enumerate_configurations(9):
            assert config not in seen
            seen.add(config)
            assert config.vertex_count >= last_v
            last_v = config.vertex_count
            assert config.total_length <= 9

    @pytest.mark.parametrize("max_part", range(1, 17))
    def test_blocks_come_in_the_reference_order(self, max_part):
        """One enumerator serves every block of a build and shares its
        suffixes between them; each block holds the reference recursion's
        partitions in its order, including the empty blocks of one chain
        longer than a razor cap and of more parts than edges."""
        block = _block_enumerator(max_part)
        for total in range(17):
            for parts in range(total + 2):
                assert block(total, parts) == reference_partitions_into(total, parts, max_part)
        if max_part < 16:
            assert block(max_part + 1, 1) == []

    @pytest.mark.parametrize("cap", [1, 3, 8, 12])
    def test_blocks_of_a_build_in_storage_order(self, cap):
        """A build asks for its blocks in storage order, with an edge bound
        above the cap (the razor model); each suffix list is dropped once
        the levels that can use it are passed."""
        block = _block_enumerator(cap, 12)
        for v, total in _blocks(12):
            assert block(total, v - total) == reference_partitions_into(total, v - total, cap)

    def test_dependencies_precede(self):
        order = {c: i for i, c in enumerate(enumerate_configurations(8))}
        for config, position in order.items():
            for a, b in config.fusion_pairs():
                for outcome in (SUCCESS, FAILURE):
                    assert order[config.fuse(a, b, outcome)] < position


class TestKeyGroups:
    """``_partition_ranker``'s ``groups()``: the table in key order, one
    group of keys with the same first item at a time."""

    @pytest.mark.parametrize("n", range(15))
    def test_every_configuration_once_in_key_order(self, n):
        rank, groups, size = _partition_ranker(n)
        keys, heads, largest = [], [], 0
        for group_keys, positions, vertices in groups():
            assert len(group_keys) == len(positions) == len(vertices) > 0
            head = group_keys[0]
            assert all(key.partition(",")[0] == head for key in group_keys)
            heads.append(head)
            largest = max(largest, len(group_keys))
            for key, position, vertex_count in zip(group_keys, positions, vertices):
                assert rank(parse_key(key).items) == (position, vertex_count), key
            keys.extend(group_keys)
        assert keys == sorted(set(keys))  # strictly ascending
        assert len(keys) == size == sum(partition_count_oracle(n))
        assert set(keys) == {canonical_key(config) for config in enumerate_configurations(n)}
        assert len(set(heads)) == len(heads)
        # the group 1^1 holds a chain of one edge in front of every
        # partition of at most n - 1 edges into parts of at least 2
        assert largest == (partition_count_oracle(n - 1)[-1] if n else 1)

    def test_group_sizes_at_28(self):
        _, groups, size = _partition_ranker(28)
        sizes = {keys[0]: len(keys) for keys, _, _ in groups()}
        assert sum(sizes.values()) == size == 18460
        assert max(sizes.values()) == sizes["1^1"] == 3010
        # a digit sorts before "^": the groups of 10 come before those of 1
        assert list(sizes)[:3] == ["", "10^1", "10^2"]


class TestCanonicalKey:
    def test_empty(self):
        assert canonical_key(Configuration()) == ""
        assert parse_key("") == Configuration()

    def test_text_form(self):
        config = Configuration.from_lengths([1, 1, 3])
        assert canonical_key(config) == "1^2,3^1"

    def test_same_multiset_same_key(self):
        assert canonical_key(Configuration.from_lengths([1, 1])) == canonical_key(epr(2))

    def test_distinct_multisets_distinct_keys(self):
        a = Configuration.from_lengths([2, 1])
        b = Configuration.single_chain(3)
        assert canonical_key(a) != canonical_key(b)

    def test_round_trip_over_small_space(self):
        for config in enumerate_configurations(12):
            assert parse_key(canonical_key(config)) == config

    @pytest.mark.parametrize("key", ["1^0", "2^1,1^1", "1^1,1^1", "x", "1", "1^2,", ",",
                                     "01^2", " 1^2", "1^+2", "1_0^1", "1^2^3"])
    def test_parse_rejects_what_canonical_key_never_gives(self, key):
        with pytest.raises(ValueError, match="not a canonical configuration key"):
            parse_key(key)


class TestIdentityConfiguration:
    def test_projection(self):
        ident = IdentityConfiguration((3, 1, 1))
        assert ident.to_configuration() == Configuration.from_lengths([1, 1, 3])
        assert ident.total_length == 5
        assert ident.vertex_count == 8

    def test_from_configuration_is_sorted(self):
        ident = IdentityConfiguration.from_configuration(Configuration.from_lengths([3, 1, 2]))
        assert ident.chains == (1, 2, 3)

    def test_fuse_at_success(self):
        ident = IdentityConfiguration((2, 3, 1))
        assert ident.fuse_at(0, 1, SUCCESS).chains == (5, 1)

    def test_fuse_at_failure_prunes_destroyed(self):
        ident = IdentityConfiguration((2, 1, 4))
        assert ident.fuse_at(1, 2, FAILURE).chains == (2, 3)
        assert ident.fuse_at(0, 1, FAILURE).chains == (1, 4)

    @pytest.mark.parametrize("chains", [(0,), (2, -1), (3, 0, 1)])
    def test_nonpositive_lengths_rejected(self, chains):
        with pytest.raises(ValueError, match="chain lengths must be positive"):
            IdentityConfiguration(chains)

    def test_compares_and_hashes_by_lineup(self):
        assert IdentityConfiguration((2, 1)) == IdentityConfiguration((2, 1))
        assert hash(IdentityConfiguration((2, 1))) == hash(IdentityConfiguration((2, 1)))
        assert IdentityConfiguration((2, 1)) != IdentityConfiguration((1, 2))
        assert IdentityConfiguration() == IdentityConfiguration(())
        assert IdentityConfiguration().chains == ()

    def test_fuse_at_rejects_bad_indices(self):
        ident = IdentityConfiguration((2, 1))
        with pytest.raises(InvalidFusionError):
            ident.fuse_at(0, 0, SUCCESS)
        with pytest.raises(InvalidFusionError):
            ident.fuse_at(0, 5, SUCCESS)


@given(st.lists(st.integers(1, 9), min_size=2, max_size=7), st.data())
@settings(max_examples=150, deadline=None)
def test_identity_projects_to_valid_configuration(lengths, data):
    ident = IdentityConfiguration(tuple(lengths))
    i = data.draw(st.integers(0, len(lengths) - 2))
    j = data.draw(st.integers(i + 1, len(lengths) - 1))
    outcome = data.draw(st.sampled_from([SUCCESS, FAILURE]))
    after = ident.fuse_at(i, j, outcome)
    projected = after.to_configuration()
    assert projected.total_length == after.total_length
    assert ident.to_configuration().fuse(lengths[i], lengths[j], outcome) == projected


def reference_fuse_at(chains, i, j, outcome):
    """The fusion rule on a list: the oracle for ``fuse_at``'s lineup."""
    i, j = min(i, j), max(i, j)
    out = list(chains)
    if outcome == SUCCESS:
        out[i] += out[j]
        del out[j]
    else:
        out[i] -= 1
        out[j] -= 1
        out = [k for k in out if k > 0]
    return tuple(out)


@given(st.lists(st.integers(1, 4), min_size=2, max_size=8), st.data())
@settings(max_examples=200, deadline=None)
def test_fuse_at_keeps_the_lineup_order(lengths, data):
    i, j = data.draw(st.lists(st.integers(0, len(lengths) - 1), min_size=2, max_size=2,
                              unique=True))
    outcome = data.draw(st.sampled_from([SUCCESS, FAILURE]))
    after = IdentityConfiguration(tuple(lengths)).fuse_at(i, j, outcome)
    assert after.chains == reference_fuse_at(lengths, i, j, outcome)


def reference_fuse(config, a, b, outcome):
    """The fusion rule on a counts dict, rebuilt through the checked
    constructor: the oracle for ``Configuration.fuse``."""
    counts = config.counts()
    counts[a] = counts.get(a, 0) - 1
    counts[b] = counts.get(b, 0) - 1
    if counts[a] < 0 or counts[b] < 0:
        return None
    if outcome == SUCCESS:
        counts[a + b] = counts.get(a + b, 0) + 1
    else:
        for k in (a, b):
            if k > 1:
                counts[k - 1] = counts.get(k - 1, 0) + 1
    return Configuration.from_counts(counts)


@given(configurations, st.integers(1, 9), st.integers(1, 9), st.sampled_from([SUCCESS, FAILURE]))
@settings(max_examples=400, deadline=None)
def test_fuse_equals_the_dict_rule(config, a, b, outcome):
    """Any length pair, present or not: the directly built result equals
    the checked rebuild, field for field, and a null fusion raises."""
    expected = reference_fuse(config, a, b, outcome)
    if expected is None:
        with pytest.raises(InvalidFusionError):
            config.fuse(a, b, outcome)
        return
    after = config.fuse(a, b, outcome)
    assert tuple(after) == tuple(expected)
    assert after.vertex_count == sum(n * (k + 1) for k, n in after.items)
    assert hash(after) == hash(expected)


@given(configurations, st.integers(1, 9), st.integers(-3, 3))
@settings(max_examples=400, deadline=None)
def test_add_equals_the_dict_rule(config, length, n):
    """Adding or removing chains at any length, held or not: the edited
    result equals the checked rebuild from a counts dict, field for field,
    and removing more chains than are held raises."""
    counts = config.counts()
    counts[length] = counts.get(length, 0) + n
    if counts[length] < 0:
        with pytest.raises(ValueError, match=f"^cannot remove {-n} chains of length {length}$"):
            config.add(length, n)
        return
    after = config.add(length, n)
    expected = Configuration.from_counts(counts)
    assert tuple(after) == tuple(expected)
    assert after.vertex_count == sum(count * (k + 1) for k, count in after.items)
    assert hash(after) == hash(expected)


MALFORMED = {
    "zero-length": lambda: Configuration.from_counts({0: 1}),
    "zero-length-among-others": lambda: Configuration.from_counts({2: 1, 0: 3}),
    "zero-count": lambda: Configuration(((1, 0),)),
    "zero-count-last": lambda: Configuration(((1, 2), (3, 0))),
    "unsorted": lambda: Configuration(((2, 1), (1, 1))),
    "repeated-length": lambda: Configuration(((2, 1), (2, 1))),
    "identity-zero-length": lambda: IdentityConfiguration((0,)),
    "removal-past-count": lambda: Configuration.from_lengths([1, 2]).add(1, -2),
    "added-zero-length": lambda: Configuration.from_lengths([1, 2]).add(0),
}


def assert_constructors_reject():
    """Every malformed input raises ValueError; uses no assert statement,
    so it also checks under -O."""
    for build in MALFORMED.values():
        with pytest.raises(ValueError):
            build()


class TestConstructorsCheck:
    """The public constructors keep their checks; only fusion skips them."""

    @pytest.mark.parametrize("build", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_input_is_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_malformed_input_is_rejected_under_python_O(self):
        env = dict(os.environ)
        package_root = str(Path(sys.modules[Configuration.__module__].__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        code = ("assert False, 'asserts must be stripped'\n"
                "import test_configuration\n"
                "test_configuration.assert_constructors_reject()")
        subprocess.run([sys.executable, "-O", "-c", code], cwd=Path(__file__).parent, env=env,
                       check=True, timeout=120)

    def test_the_vertex_count_is_derived_not_given(self):
        with pytest.raises(TypeError):
            Configuration(((1, 2),), 4)
        assert Configuration(((1, 2), (3, 1))).vertex_count == 8

    def test_an_identity_lineup_given_as_a_list_is_stored_as_a_tuple(self):
        ident = IdentityConfiguration([1, 2])
        assert ident.chains == (1, 2) and type(ident.chains) is tuple
        assert hash(ident) == hash(IdentityConfiguration((1, 2)))

    def test_items_given_as_lists_are_stored_as_tuples(self):
        config = Configuration([[1, 2]])
        assert config.items == ((1, 2),) and type(config.items[0]) is tuple
        assert config == Configuration.epr_pairs(2)
        assert config.fuse(1, 1, SUCCESS) == Configuration.single_chain(2)

    def test_anonymous_and_identity_views_differ(self):
        assert Configuration() != IdentityConfiguration()
        assert Configuration.epr_pairs(2) != IdentityConfiguration.epr_pairs(2)
        assert len({Configuration(), IdentityConfiguration()}) == 2

    def test_repr_names_the_items(self):
        assert repr(Configuration.from_lengths([1, 3])) == "Configuration(items=((1, 1), (3, 1)))"
        assert repr(Configuration()) == "Configuration(items=())"

    def test_actions_repr_as_they_are_written(self):
        # a fuse is unordered and shows its smaller length first
        assert repr(Fuse(3, 2)) == repr(Fuse(2, 3)) == "Fuse(2,3)"
        assert repr(STOP) == "Stop"

    def test_pickles_through_the_checked_constructor(self):
        config = Configuration.from_lengths([2, 2, 5])
        again = pickle.loads(pickle.dumps(config))
        assert again == config and again.vertex_count == config.vertex_count
