"""Chain configurations and the elementary fusion rule.

A linear cluster chain is fully characterized by its length, counted in
edges (an EPR pair is a chain of length 1). A *configuration* is the
multiset of chain lengths currently available. Two views are provided:

* :class:`Configuration` -- the anonymous picture: counts per length.
  This is the state of the exact dynamic program.
* :class:`IdentityConfiguration` -- the identity picture: an ordered
  list of chains, needed by strategies that address individual chains
  and remember them between steps.

A fusion attempt on chains of lengths ``a`` and ``b`` merges them into a
single chain of length ``a + b`` on success.  On failure each loses one
edge; a chain reduced to length 0 is destroyed and disappears from the
configuration.  Either way the number of vertices strictly decreases, so
every process terminates.  :func:`_fused` states this rule once; both
views, the optimal DP's count codes (:mod:`cluster_forge.exact`) and the
Monte Carlo pairing rounds (:mod:`cluster_forge.montecarlo`) call it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

SUCCESS = "S"
FAILURE = "F"

#: An event is a string over {"S", "F"}, one letter per attempted fusion.
Event = str


class InvalidFusionError(ValueError):
    """A fusion referenced chains that are not present (a null fusion)."""


@dataclass(frozen=True)
class Fuse:
    """Fuse a chain of length ``a`` with one of length ``b``.

    The pair is unordered: ``Fuse(3, 2) == Fuse(2, 3)``. In the identity
    picture the fields are chain indices instead of lengths.
    """

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)

    def __repr__(self) -> str:
        return f"Fuse({self.a},{self.b})"


@dataclass(frozen=True)
class Stop:
    """Do nothing. Only valid when at most one chain remains."""

    def __repr__(self) -> str:
        return "Stop"


STOP = Stop()

Action = Fuse | Stop


def _fused(a, b, won: bool):
    """The lengths of chains ``a`` and ``b`` after one fusion attempt, 0
    for a destroyed chain: the merged chain and 0 if ``won``, else each
    one edge shorter. Plain arithmetic, so it also runs on numpy arrays."""
    return (a + b, 0) if won else (a - 1, b - 1)


class _Counts(NamedTuple):
    items: tuple[tuple[int, int], ...]
    vertex_count: int  # a chain of length k has k + 1 vertices


# Builds a state from fields already known to be valid, skipping the checks
# of the public constructors: ``_new(Configuration, (items, vertex_count))``.
_new = tuple.__new__


class Configuration(_Counts):
    """Anonymous multiset of chain lengths.

    ``items`` holds ``(length, count)`` pairs, strictly increasing in
    length, with every count >= 1. The empty configuration (total
    annihilation) is ``Configuration()``.

    A two-field named tuple ``(items, vertex_count)``, so it compares and
    hashes in C and knows its vertex count without a sum: exact
    evaluation hashes every process state several times. The second
    field also keeps ``Configuration()`` unequal to the one-field
    ``IdentityConfiguration()``. The constructor checks ``items``;
    :meth:`fuse` builds its result directly, valid by construction.
    """

    __slots__ = ()

    def __new__(cls, items: tuple[tuple[int, int], ...] = ()) -> "Configuration":
        items = tuple(map(tuple, items))
        prev = vertices = 0
        for length, count in items:
            if length <= prev:
                raise ValueError(f"lengths must be strictly increasing: {items}")
            if count < 1:
                raise ValueError(f"counts must be positive: {items}")
            prev = length
            vertices += count * (length + 1)
        return _new(cls, (items, vertices))

    def __getnewargs__(self) -> tuple:
        return (self.items,)

    def __repr__(self) -> str:
        return f"Configuration(items={self.items!r})"

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "Configuration":
        return cls(tuple(sorted((k, n) for k, n in counts.items() if n > 0)))

    @classmethod
    def from_lengths(cls, lengths: Iterable[int]) -> "Configuration":
        counts: dict[int, int] = {}
        for k in lengths:
            if k > 0:
                counts[k] = counts.get(k, 0) + 1
        return cls.from_counts(counts)

    @classmethod
    def single_chain(cls, length: int) -> "Configuration":
        """The configuration holding exactly one chain of the given length."""
        return cls(((length, 1),))

    @classmethod
    def epr_pairs(cls, n: int) -> "Configuration":
        """n chains of length 1, the canonical starting configuration."""
        return cls(((1, n),)) if n else cls()

    @property
    def total_length(self) -> int:
        """Total number of edges."""
        return sum(k * n for k, n in self.items)

    @property
    def chain_count(self) -> int:
        return sum(n for _, n in self.items)

    @property
    def is_terminal(self) -> bool:
        """True when no further fusion is possible (at most one chain)."""
        return self.chain_count <= 1

    def count(self, length: int) -> int:
        for k, n in self.items:
            if k == length:
                return n
        return 0

    def lengths(self) -> tuple[int, ...]:
        """Distinct occupied lengths, ascending."""
        return tuple(k for k, _ in self.items)

    def counts(self) -> dict[int, int]:
        return dict(self.items)

    def add(self, length: int, n: int = 1) -> "Configuration":
        """Add ``n`` chains of ``length``, or remove them for a negative ``n``.

        Like :meth:`fuse`, the result is one edit of the sorted ``items`` at
        the bisected length: one pair changed, dropped or inserted.
        """
        items, vertices = self
        i = bisect_left(items, (length,))
        held = items[i][1] if i < len(items) and items[i][0] == length else 0
        count = held + n
        if count < 0:
            raise ValueError(f"cannot remove {abs(n)} chains of length {length}")
        if count and length < 1:
            raise ValueError(f"lengths must be positive: {length}")
        kept = ((length, count),) if count else ()
        return _new(Configuration,
                    (items[:i] + kept + items[i + (held > 0):], vertices + n * (length + 1)))

    def fusion_pairs(self) -> Iterator[tuple[int, int]]:
        """All feasible unordered length pairs (a, b) with a <= b."""
        for i, (k1, n1) in enumerate(self.items):
            if n1 >= 2:
                yield (k1, k1)
            for k2, _ in self.items[i + 1:]:
                yield (k1, k2)

    def fuse(self, a: int, b: int, outcome: str) -> "Configuration":
        """Apply one fusion attempt to chains of lengths ``a`` and ``b``.

        Raises :class:`InvalidFusionError` when the requested chains are
        not available (if ``a == b`` two such chains are required).

        The result is built directly, without the constructor's checks:
        each length is found by bisection in the sorted ``items``, so it
        stays sorted and positive by construction.
        """
        items, vertices = self
        out = list(items)
        for k in (a, b):  # take one chain of each length
            i = bisect_left(out, (k,))
            if i == len(out) or out[i][0] != k:
                raise InvalidFusionError(f"no chains of lengths ({a},{b}) in {self}")
            n = out[i][1]
            if n > 1:
                out[i] = (k, n - 1)
            else:
                del out[i]
        vertices -= a + b + 2
        for k in _fused(a, b, outcome == SUCCESS):
            if k:  # a chain of k >= 1 edges has k + 1 vertices
                vertices += k + 1
                i = bisect_left(out, (k,))
                if i < len(out) and out[i][0] == k:
                    out[i] = (k, out[i][1] + 1)
                else:
                    out.insert(i, (k, 1))
        return _new(Configuration, (tuple(out), vertices))

    def to_configuration(self) -> "Configuration":
        """The anonymous view, which a configuration already is."""
        return self

    def __str__(self) -> str:
        return canonical_key(self) or "(empty)"


class _Lineup(NamedTuple):
    chains: tuple[int, ...]


class IdentityConfiguration(_Lineup):
    """Ordered list of chain lengths (the identity picture).

    A one-field named tuple, so it compares and hashes like the plain
    ``(chains,)`` without a Python-level call: exact evaluation hashes
    every process state several times. The constructor checks that every
    length is positive; :meth:`fuse_at` builds its result directly."""

    __slots__ = ()

    def __new__(cls, chains: tuple[int, ...] = ()) -> "IdentityConfiguration":
        chains = tuple(chains)
        if chains and min(chains) < 1:
            raise ValueError(f"chain lengths must be positive: {chains}")
        return _new(cls, (chains,))

    @classmethod
    def from_configuration(cls, config: Configuration) -> "IdentityConfiguration":
        """Deterministic lineup: chains sorted ascending."""
        out: list[int] = []
        for k, n in config.items:
            out.extend([k] * n)
        return cls(tuple(out))

    @classmethod
    def epr_pairs(cls, n: int) -> "IdentityConfiguration":
        return cls((1,) * n)

    @property
    def total_length(self) -> int:
        return sum(self.chains)

    @property
    def vertex_count(self) -> int:
        return sum(self.chains) + len(self.chains)

    @property
    def chain_count(self) -> int:
        return len(self.chains)

    def to_configuration(self) -> Configuration:
        return Configuration.from_lengths(self.chains)

    def fuse_at(self, i: int, j: int, outcome: str) -> "IdentityConfiguration":
        """Fuse the chains at positions ``i`` and ``j``; destroyed chains
        are pruned, so surviving chains are renumbered. Every length of
        the result is positive by construction, so it skips the
        constructor's check."""
        c = self.chains
        n = len(c)
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise InvalidFusionError(f"bad chain indices ({i},{j}) for {n} chains")
        if i > j:
            i, j = j, i
        out = list(c)
        out[i], out[j] = _fused(c[i], c[j], outcome == SUCCESS)
        # a destroyed chain is deleted, j first so that i stays in place
        if not out[j]:
            del out[j]
        if not out[i]:
            del out[i]
        return _new(IdentityConfiguration, (tuple(out),))


def canonical_key(config: Configuration) -> str:
    """Injective text encoding: ``"1^2,3^1"``; the empty configuration
    encodes as the empty string. Used in persisted tables and CLI I/O."""
    return ",".join(f"{k}^{n}" for k, n in config.items)


def parse_key(key: str) -> Configuration:
    """The configuration whose :func:`canonical_key` is ``key``; ValueError
    for a malformed or non-canonical key."""
    try:
        items = []
        for part in key.split(",") if key else ():
            k, _, n = part.partition("^")
            items.append((int(k), int(n)))
        config = Configuration(tuple(items))
    except ValueError:
        config = None
    if config is None or canonical_key(config) != key:
        raise ValueError(f"'{key}' is not a canonical configuration key")
    return config


def _block_enumerator(max_part: int, max_total: int | None = None):
    """``block(total, parts)``: the integer partitions of ``total`` into
    exactly ``parts`` parts, each <= max_part, as sorted (part,
    multiplicity) tuples, in storage order (see :func:`_blocks`).

    Parts are chosen smallest first: each smallest part ascending, then
    its multiplicity ascending, so the tuples come out sorted by
    construction. A partition is ``((part, mult),) + suffix``, where the
    suffix is a partition of the rest into parts above ``part``. Every
    suffix list is built once, keyed by (total, parts, smallest part),
    and shared by every block and prefix that ends in it; the blocks
    themselves are not kept.

    A suffix list of r edges in c parts ends only partitions of at most
    ``max_total`` edges (``max_part`` by default) in at most 2 * max_total
    - r + c parts and edges together: the parts in front of it add at most
    max_total - r edges and no more parts than edges. So once ``block`` is
    asked for a block of more vertices (``total + parts``), as a build
    asks in storage order, the list is dropped; a later call for a smaller
    block builds it again."""
    n = max_part if max_total is None else max_total
    memo: dict[tuple[int, int, int], list[tuple[tuple[int, int], ...]]] = {}
    # expiry[v]: the memo keys whose lists serve no block above v vertices
    expiry: dict[int, list[tuple[int, int, int]]] = {}
    level = 0  # the most vertices of a block asked for so far

    def extend(total: int, parts: int, smallest: int) -> list[tuple[tuple[int, int], ...]]:
        out: list[tuple[tuple[int, int], ...]] = []
        # the smallest part is at most the mean
        for part in range(smallest, min(max_part, total // parts) + 1):
            rest, rest_parts = total, parts
            for mult in range(1, parts):
                rest -= part
                rest_parts -= 1
                # the other parts must fit in [part + 1, max_part]
                if rest_parts * (part + 1) <= rest <= rest_parts * max_part:
                    key = (rest, rest_parts, part + 1)
                    suffixes = memo.get(key)
                    if suffixes is None:
                        suffixes = memo[key] = extend(*key)
                        expiry.setdefault(2 * n - rest + rest_parts, []).append(key)
                    head = ((part, mult),)
                    out.extend([head + suffix for suffix in suffixes])
            if part * parts == total:  # all the parts are equal
                out.append(((part, parts),))
        return out

    def block(total: int, parts: int) -> list[tuple[tuple[int, int], ...]]:
        nonlocal level
        # drop the lists that serve no block of this many vertices or more
        for v in range(level, total + parts):
            for key in expiry.pop(v, ()):
                memo.pop(key, None)
        level = max(level, total + parts)
        if parts:
            return extend(total, parts, 1)
        return [] if total else [()]  # zero parts only sum to zero

    return block


def _blocks(max_total_length: int) -> Iterator[tuple[int, int]]:
    """``(vertex count, total length)`` of each block of configurations in
    storage order: vertex count ascending, then total length ascending.
    The block of V vertices and L edges holds the partitions of L into
    V - L parts, in the order :func:`_block_enumerator` gives them; no
    block is empty."""
    yield 0, 0  # the empty configuration
    for v in range(2, 2 * max_total_length + 1):
        # every chain has at least one edge, and there is at least one chain
        for total in range((v + 1) // 2, min(v - 1, max_total_length) + 1):
            yield v, total


def _exactly(n: int) -> list[list[int]]:
    """``exactly[c][r]``: the partitions of r into exactly c parts, for
    c, r <= n."""
    exactly = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(n)]
    for c in range(1, n + 1):
        for r in range(c, n + 1):
            exactly[c][r] = exactly[c - 1][r - 1] + exactly[c][r - c]
    return exactly


def _block_starts(max_total_length: int) -> Iterator[tuple[int, int, int, int]]:
    """``(vertex count, total length, start, stop)`` of each block of
    :func:`_blocks`, in storage order: positions ``start`` to ``stop - 1``
    hold the block's configurations, the partitions of L into V - L
    parts. The one account of where each block is stored; counted
    without enumerating the blocks."""
    exactly = _exactly(max_total_length)
    stop = 0
    for v, total in _blocks(max_total_length):
        start, stop = stop, stop + exactly[v - total][total]
        yield v, total, start, stop


def _partition_ranker(max_total_length: int):
    """``(rank, groups, size)`` for the ``size`` configurations of at most
    ``max_total_length`` edges, numbered by their position in
    :func:`enumerate_configurations`.

    ``rank(items)`` gives ``(position, vertex count)`` of the configuration
    with these ``(length, count)`` items and raises KeyError beyond
    ``max_total_length`` edges. ``groups()`` yields every configuration in
    the order of its canonical key, one *group* at a time: the
    configurations whose keys start with the same first item ``k^m``,
    which are contiguous in that order, or the empty configuration alone.
    A group is three lists in key order, ``(keys, positions, vertex
    counts)``; its first key is ``k^m`` itself.

    Neither builds a dictionary over configurations. A position is the
    last position of the configuration's block (t edges in c chains, see
    :func:`_block_starts`) less the partitions after it in the block, in the
    order of :func:`_block_enumerator`. Take an item (k, m) with (T', C')
    the edges and chains of it and every longer item, (T, C) those of the
    longer items alone, and r = T - C*k. Among the partitions that agree
    with this one below k, ``exactly[C'][r]`` have a next part above k
    (take k from each of the C' parts) and ``fewer[C][r]`` have more than
    m parts equal to k (the C' - j parts above k, for j > m copies, sum
    to r + (C' - j) * k). The terms of all items add up to the count.

    The groups of one shortest length k share their tails: every
    configuration whose lengths all exceed k, of at most n - k edges.
    ``groups()`` builds them once per k, with the terms of their items, by
    prepending shorter lengths, and sorts them by key; group ``k^m`` is
    the tails of at most n - k*m edges, in that order. So it holds at most
    the tails of k = 1, p(n - 1) configurations, and never the whole table.
    """
    n = max_total_length
    exactly = _exactly(n)
    # fewer[c][r]: partitions of r into fewer than c parts
    fewer = [[0] * (n + 1)]
    for c in range(1, n + 1):
        fewer.append([x + y for x, y in zip(fewer[-1], exactly[c - 1])])
    # last[c][t]: position of the last configuration of t edges in c chains
    last = [[0] * (n + 1) for _ in range(n + 1)]
    size = 0
    for v, total, _, size in _block_starts(n):
        last[v - total][total] = size - 1
    # texts[k][m] is "k^m", the canonical_key text of m chains of length k
    texts = [[]] + [[f"{k}^{m}" for m in range(n // k + 1)] for k in range(1, n + 1)]

    def rank(items) -> tuple[int, int]:
        total = chains = after = 0
        try:
            for k, m in reversed(items):
                rest = total - chains * k
                chains += m
                after += exactly[chains][rest] + fewer[chains - m][rest]
                total += k * m
            return last[chains][total] - after, total + chains
        except IndexError:
            raise KeyError(f"configuration '{Configuration(items)}' has more than {n} "
                           f"edges") from None

    def tails_above(k: int) -> list[tuple[str, int, int, int]]:
        """``(tail, edges, chains, terms)`` of every configuration whose
        lengths all exceed k, of at most n - k edges, sorted by tail: its
        key after a comma, or "" for the empty configuration."""
        room = n - k
        found = [("", 0, 0, 0)]
        # configurations to extend by shorter lengths, with their shortest
        stack = [("", 0, 0, room + 1, 0)]
        while stack:
            tail, total, chains, shortest, after = stack.pop()
            for j in range(k + 1, min(shortest, room - total + 1)):
                rest = total - chains * j
                base = after + fewer[chains][rest]
                for m in range(1, (room - total) // j + 1):
                    c = chains + m
                    t = total + j * m
                    here = base + exactly[c][rest]
                    text = "," + texts[j][m] + tail
                    found.append((text, t, c, here))
                    if j > k + 1:
                        stack.append((text, t, c, j, here))
        found.sort()
        return found

    def groups() -> Iterator[tuple[list[str], list[int], list[int]]]:
        yield [""], [0], [0]
        # a digit sorts before "^", so the groups of "10^m" come before "1^m"
        for k in sorted(range(1, n + 1), key=lambda k: f"{k}^"):
            tails, totals, chains, afters = zip(*tails_above(k))
            # the tails by edge count, in key order within each
            by_total = sorted(range(len(tails)), key=totals.__getitem__)
            for m in sorted(range(1, n // k + 1), key=str):
                room = n - k * m
                # start[t][c]: for a tail of t edges in c chains, the last
                # position of the block with (k, m) in front, less the
                # terms of (k, m)
                start = [[last[c + m][t + k * m] - exactly[c + m][t - c * k] - fewer[c][t - c * k]
                          for c in range(t // (k + 1) + 1)] for t in range(room + 1)]
                picked = sorted(by_total[:bisect_right(by_total, room, key=totals.__getitem__)])
                head, shift = texts[k][m], m * (k + 1)
                yield ([head + tails[i] for i in picked],
                       [start[totals[i]][chains[i]] - afters[i] for i in picked],
                       [totals[i] + chains[i] + shift for i in picked])

    return rank, groups, size


def enumerate_configurations(max_total_length: int) -> Iterator[Configuration]:
    """Yield every configuration with total_length <= the given bound,
    exactly once, in storage order (see :func:`_blocks`): non-decreasing
    vertex count, so the dependencies of the quality recursion always
    precede their dependents. :func:`_partition_ranker` gives each
    configuration's position in this order.

    Lazy by block: one block of partitions is built at a time, from
    suffixes shared between blocks."""
    block = _block_enumerator(max_total_length)
    for v, total in _blocks(max_total_length):
        for items in block(total, v - total):
            yield Configuration(items)
