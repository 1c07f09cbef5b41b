"""Exact expectation values and the globally optimal dynamic program.

Every answer for a :class:`fractions.Fraction` success probability is an
exact Fraction; pass a float success probability to get a floating-point
evaluation instead. The per-attempt success probability ``ps`` weights
the two branches of every fusion:

    value(C) = ps * value(C_success) + (1 - ps) * value(C_failure)

The optimal quality maximizes this recursion over all feasible fusion
pairs, anchored at value(single chain of length k) = k and value(empty)
= 0. Because every attempt strictly decreases the vertex count, the
recursion is well-founded and can be tabulated level by level.

One count-code optimiser, :func:`_optimize`, solves this recursion for
exact and float ``ps``: :func:`build_quality_table` with no cap on chain
length, and the razor model of :mod:`cluster_forge.bounds` with a merged
chain cut to R edges, which also minimises attempts in the same pass and
keeps only its values at the starts of m pairs.

* Integer scaling. With ``ps = p/q`` a configuration of V vertices holds
  ``I = value * q**V`` as a Python int. An outcome that removes ``drop``
  vertices weighs its successor by ``q**(drop - 1)``: success removes
  ``1 + cut`` (``cut`` edges lost to the cap, none for the table) and
  failure 2 to 4, so
  ``I(C) = p * q**cut * I(S) + (q - p) * q**(drop - 1) * I(F)``: no gcd
  inside the DP, and values of one level compare as plain ints. A float
  ``ps`` runs the same code with q = 1, which gives bit-identical floats
  since ``x * 1`` is exact.
* Count codes and pair rows. Configurations are keyed by the integer
  ``sum(count_k * w[k])`` with mixed-radix weights ``w[k] = prod(n // j +
  1 for 1 <= j < k)`` (:func:`_count_codes`): at most ``n // k`` chains
  have length k. One precomputed row per fusion pair (:func:`_pair_rows`)
  holds both code shifts, both branch factors, both drops and the action
  index, all taken from the fusion rule ``configuration._fused``, so the
  inner loop does no arithmetic on lengths.
* Level-lazy enumeration. Count vectors come from one
  ``configuration._block_enumerator`` per build, one block of vertex and
  edge count at a time, in the order of :func:`enumerate_configurations`.
  It builds each list of partition suffixes once, shares it between
  blocks, and drops it once the build passes the last vertex level that
  can use it. The DP keeps only as many levels as the deepest drop, four
  for the table, and a budget stops early.
* Rank-indexed, packed storage. Each entry of a table sits at its
  configuration's rank, its position in that order. Its scaled value is
  packed: for an exact ``ps = p/q``, in one ``bytes`` per vertex level at
  a width fixed by (N, q) before any entry is known (:class:`_PackedInts`,
  :func:`_level_limits`); for a float ``ps``, in one ``array('d')``. The
  table's DP keeps plain ints only in the dicts of its live levels and
  packs each level once it is done; the razor DP packs nothing. An
  entry's action is one index, in an ``array('H')``, into
  :func:`_table_actions`, the actions a table of at most N edges can
  hold: a function of N alone, as the packed layout is of (N, q), so a
  table stores no action list and a load accepts no other action text.
  The build makes no configuration object, key string or Fraction: a
  :class:`QualityTable` computes the rank from a count vector when asked
  (``configuration._partition_ranker``), and its quality, action and
  strategy read by rank. ``Fraction(I,
  q**V)`` is built only on demand, and canonical key strings only where a
  table is saved or loaded. The file holds the entries sorted by key, and
  :meth:`QualityTable.save` and :meth:`QualityTable.load` go through them
  in that order one group at a time: the keys that share a first item
  ``k^m``, at most p(n - 1) of them (3,010 of 18,460 at N=28). Neither
  holds a line, key or tuple per entry of the whole table.

The read side is scaled the same way. One expansion rule,
:func:`_expand`, decides at a state and steps on both outcomes through
the validity gate of :mod:`cluster_forge.strategies`; the event-tree
oracle and the Monte Carlo event tables call it directly. The memoized
sweep, :func:`_sweep` (under :func:`strategy_quality`, :func:`expected_attempts`,
:func:`strategy_quality_range` and ``validate_strategy_sweep``), walks a
strategy's event DAG with it, expands each state once and fills a memo
of ints ``value * q**V`` shared by the sweep's starts, with one
``Fraction(I, q**V)`` per answer and the same q = 1 float path. Its first
error is the strategy's first broken validity rule, so the validity
check is a float sweep whose values are dropped.

One store, :func:`cached_quality_table`, keeps the largest table read or
built per table directory (or none), type of ``ps`` and ``ps``; past it,
a request builds, or with a directory reads the smallest file there that
covers it, else saves there what a request without a directory gets.

The bulk builders (:func:`_sweep`, :func:`_optimize`,
:meth:`QualityTable.load` and :meth:`QualityTable.save`,
:func:`event_tree_oracle` and the Monte Carlo event tables' walks) run
with CPython's cyclic collector paused (:func:`_collector_paused`).
What they allocate, tuples, ints, Fractions and dicts, is acyclic and
freed by reference counting, yet a full collection would walk every
tracked object in the process; the collector's prior state, on or off,
is restored on return and on raise.
"""

from __future__ import annotations

import gc
import os
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, islice
from math import gcd, prod
from typing import Hashable, Iterator

from .configuration import (
    FAILURE,
    STOP,
    SUCCESS,
    Action,
    Configuration,
    Fuse,
    IdentityConfiguration,
    Stop,
    _block_enumerator,
    _block_starts,
    _blocks,
    _fused,
    _partition_ranker,
    enumerate_configurations,
)
from .strategies import StatefulStrategy, Strategy, _advance, _Broken, _decide

HALF = Fraction(1, 2)


class TableBudgetExceeded(RuntimeError):
    """Quality-table build ran past its entry budget."""

    def __init__(self, n: int, vertex_level: int, budget: int):
        super().__init__(
            f"table build for N={n} exceeded budget of {budget} entries "
            f"at vertex-count level {vertex_level}"
        )
        self.n = n
        self.vertex_level = vertex_level
        self.budget = budget


class CorruptTable(ValueError):
    """A table file that :meth:`QualityTable.load` cannot read, or, in a
    table directory, whose header disagrees with its name."""


def _check_ps(ps) -> None:
    if not 0 < ps <= 1:
        raise ValueError(f"success probability must be in (0, 1], got {ps}")


def _scaling(ps, vmax: int):
    """``(exact, p, scale, fail_factor)`` for the integer-scaled engines.

    With ``ps = p/q``, ``scale[v] = q**v`` for v <= vmax and
    ``fail_factor[drop] = (q - p) * q**(drop - 1)`` for a failure that
    removes ``drop`` (2 to 4) vertices. A float ps has p = ps, q = 1 and
    float scales, so the same code runs the float recursion bit for bit.
    """
    exact = isinstance(ps, Fraction)
    p, q = (ps.numerator, ps.denominator) if exact else (ps, 1)
    scale = [q ** v for v in range(vmax + 1)] if exact else [1.0] * (vmax + 1)
    fail_factor = [None, None] + [(q - p) * q ** (drop - 1) for drop in (2, 3, 4)]
    return exact, p, scale, fail_factor


@contextmanager
def _collector_paused():
    """Pause the cyclic collector and restore it on exit, also on raise; a
    no-op when it is already off, so calls nest. As a decorator,
    ``@_collector_paused()``, it covers the whole call: the builder's
    locals, such as a memo, are freed by reference counting before the
    collector resumes, so the collection that follows has nothing of
    theirs to walk. Never wrapped around a generator, whose suspension
    or abandonment would leave the collector off for its caller; no bulk
    builder is one."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _expand(strategy: Strategy | StatefulStrategy, state: Hashable, v: int):
    """The expansion rule every event-DAG walker shares: ``strategy``'s
    decision at ``state`` of ``v`` vertices, then its step on success
    and on failure, each through the validity gate of
    :mod:`cluster_forge.strategies`, in that order. None at a stop, else
    ``(success state, failure drop, failure state)``; a broken rule
    raises ``_Broken``."""
    action = _decide(strategy, state)
    if isinstance(action, Stop):
        return None
    succ, _ = _advance(strategy, state, action, SUCCESS, v)
    fail, drop = _advance(strategy, state, action, FAILURE, v)
    return succ, drop, fail


@_collector_paused()
def _sweep(strategy: Strategy | StatefulStrategy, starts, ps, attempts: bool = False) -> list:
    """Quality (or expected attempts) of ``strategy`` from each start, all
    sharing one memo of ``I = value * q**v`` at v vertices: at a stop the
    total length (quality) or 0 (attempts) times ``q**v``, else ``base +
    p * I(success) + (q - p) * q**(drop - 1) * I(failure)``, base
    ``q**v`` for attempts and 0 for quality.

    The exact walk of the event DAG: depth first, the failure child
    first, each state expanded once (:func:`_expand`) and valued in
    post-order. The first broken validity rule raises
    :class:`~cluster_forge.strategies.InvalidStrategy`, so a state in the
    memo has a clean subtree; the walk order decides which broken rule is
    reported. The memo is dropped on return and on raise, so a held
    error keeps only the starts and the failing path alive.
    """
    _check_ps(ps)
    states = [strategy.start(start) for start in starts]
    exact, p, scale, fail_factor = _scaling(ps, max((s.vertex_count for s in states), default=0))
    zero = 0 * scale[0]
    memo: dict = {}
    answers = []
    try:
        for root in states:
            # (state, its vertex count, its node once its successors are pushed)
            stack: list[tuple[Hashable, int, tuple | None]] = [(root, root.vertex_count, None)]
            while stack:
                state, v, node = stack.pop()
                if node is not None:
                    succ, drop, fail = node
                    base = scale[v] if attempts else zero
                    memo[state] = base + p * memo[succ] + fail_factor[drop] * memo[fail]
                    continue
                if state in memo:
                    continue
                node = _expand(strategy, state, v)
                if node is None:
                    memo[state] = zero if attempts else state.total_length * scale[v]
                    continue
                succ, drop, fail = node
                # a child already in the memo is skipped when popped, not
                # looked up here as well
                stack.append((state, v, node))
                stack.append((succ, v - 1, None))
                stack.append((fail, v - drop, None))
            answers.append(Fraction(memo[root], scale[root.vertex_count]) if exact else memo[root])
    except _Broken as exc:
        # the state's ancestors are the post-order entries left on the
        # stack; one whose success child still waits right above it was
        # left by failure, expanded first
        event = "".join(
            FAILURE if i + 1 < len(stack) and stack[i + 1][2] is None else SUCCESS
            for i, (_, _, node) in enumerate(stack) if node is not None)
        raise exc.invalid(strategy, root, event) from exc.__cause__
    finally:
        memo.clear()
    return answers


def strategy_quality(
    strategy: Strategy | StatefulStrategy,
    start: Configuration | IdentityConfiguration,
    ps=HALF,
):
    """Expected final total length of ``strategy`` run from ``start``.

    Exact (a Fraction) whenever ``ps`` is a Fraction.
    """
    return _sweep(strategy, [start], ps)[0]


def strategy_quality_range(strategy: Strategy | StatefulStrategy, ns, ps=HALF) -> dict:
    """``{n: strategy_quality(strategy, epr_pairs(n), ps)}`` for each n in
    ``ns``, computed with one memo shared by the whole sweep."""
    ns = list(ns)
    return dict(zip(ns, _sweep(strategy, [Configuration.epr_pairs(n) for n in ns], ps)))


def expected_attempts(
    strategy: Strategy | StatefulStrategy,
    start: Configuration | IdentityConfiguration,
    ps=HALF,
):
    """Expected number of fusion attempts of ``strategy`` from ``start``.

    Satisfies quality = total_length - 2 * (1 - ps) * attempts, since a
    failed attempt loses exactly two edges and a successful one none.
    """
    return _sweep(strategy, [start], ps, attempts=True)[0]


@cache
def _table_actions(n: int) -> tuple[Action, ...]:
    """Every action a table of at most ``n`` edges can hold, in the order
    of :func:`_optimize`'s pair rows: ``STOP``, then ``Fuse(a, b)`` for
    ``a <= b`` with ``a + b <= n``, by a and then b."""
    return (STOP, *(Fuse(a, b) for a in range(1, n // 2 + 1) for b in range(a, n - a + 1)))


def format_action(action: Action) -> str:
    """An action's text in a table file: ``a,b`` or ``stop``."""
    if isinstance(action, Fuse):
        return f"{action.a},{action.b}"
    return "stop"


def _level_limits(n: int, scale: list[int]) -> list[int]:
    """The largest scaled value at each vertex level V <= 2n of a table of
    at most ``n`` edges, with ``scale[V] = q**V`` for ``ps = p/q`` (from
    :func:`_scaling`), known before any value is: at most ``L * q**V`` for
    its ``L <= min(V - 1, n)`` edges, and 0 at V = 0."""
    return [max(min(v - 1, n), 0) * scale[v] for v in range(2 * n + 1)]


class _PackedInts:
    """A table's scaled values by storage position, packed and read-only:
    one ``bytes`` per vertex level V, in which every entry takes
    ``widths[V]`` bytes, little-endian. The widths follow from the table's
    N and the denominator q of ``ps = p/q`` alone, through each level's
    limit (:func:`_level_limits`), so a pickle carries ``(n, q, levels)``.

    :meth:`extend` packs the next level; a value wider than its level
    raises OverflowError from ``int.to_bytes``. :meth:`at` decodes one
    entry from its position and vertex count.
    """

    def __init__(self, n: int, q: int, levels=()):
        self.n, self.q = n, q
        _, _, scale, _ = _scaling(Fraction(1, q), 2 * n)
        # at least one byte, so a level's length over its width counts its entries
        self.widths = [max(1, (limit.bit_length() + 7) // 8) for limit in _level_limits(n, scale)]
        self.levels: list[bytes] = []
        # offsets[V]: the position of level V's first entry
        self.offsets = [0]
        for level in levels:
            self._add(bytes(level))

    def _add(self, level: bytes) -> None:
        self.offsets.append(self.offsets[-1] + len(level) // self.widths[len(self.levels)])
        self.levels.append(level)

    def extend(self, values) -> None:
        """Pack ``values``, the next vertex level's entries in storage order,
        a few thousand at a time, so that no bytes object per entry of the
        whole level is held at once."""
        width, values = self.widths[len(self.levels)], iter(values)
        chunks = iter(lambda: b"".join([value.to_bytes(width, "little")
                                        for value in islice(values, 4096)]), b"")
        self._add(b"".join(chunks))

    def at(self, position: int, vertices: int) -> int:
        """The entry at ``position``, a configuration of ``vertices`` vertices."""
        width = self.widths[vertices]
        start = (position - self.offsets[vertices]) * width
        return int.from_bytes(self.levels[vertices][start:start + width], "little")

    def __reduce__(self):
        return type(self), (self.n, self.q, self.levels)


class QualityTable:
    """Optimal quality and an optimal action for every configuration with
    at most ``n`` edges, stored by rank.

    Entry r belongs to the configuration at position r of
    :func:`enumerate_configurations`; :meth:`rank` computes r from the
    configuration's count vector with a table of restricted-partition
    counts (``configuration._partition_ranker``); the table holds no
    dictionary over entries. ``values`` holds the qualities by position.
    For ``ps = p/q`` it is a :class:`_PackedInts` of the scaled ints ``I =
    quality * q**V`` for a configuration of V vertices, one ``bytes`` per
    vertex level, read by position and V; for a float ``ps``, an
    ``array('d')`` of the qualities themselves, read by position. The action is ``actions[action_ids[r]]``, a
    small index into ``actions = _table_actions(n)``, the ``Fuse`` and
    ``STOP`` objects every table of ``n`` edges shares. :meth:`quality`
    decodes one value and builds ``Fraction(I, q**V)`` only when asked,
    and :meth:`as_strategy` decides by rank too: canonical key strings are
    made only where a table crosses the file boundary, by :meth:`save` and
    :meth:`load`.
    """

    def __init__(self, n: int, ps, values: _PackedInts | array, action_ids: array):
        self.n = n
        self.ps = ps
        self.values = values
        self.action_ids = action_ids
        self.actions = _table_actions(n)
        self._rank, self._groups, _ = _partition_ranker(n)
        # q**V per vertex count V for an exact ps; None for a float ps
        self._scale = _scaling(ps, 2 * n)[2] if isinstance(ps, Fraction) else None

    def __len__(self) -> int:
        return len(self.action_ids)

    def __reduce__(self):
        # the ranker's closures and the actions are rebuilt, not pickled
        return type(self), (self.n, self.ps, self.values, self.action_ids)

    def __contains__(self, config: Configuration) -> bool:
        return config.total_length <= self.n

    def rank(self, config: Configuration) -> int:
        """Storage position of ``config``; KeyError beyond ``n`` edges."""
        return self._rank(config.items)[0]

    def _scaled(self, position: int, vertices: int) -> tuple[int, int]:
        return self.values.at(position, vertices), self._scale[vertices]

    def _quality(self, position: int, vertices: int):
        if self._scale is None:
            return self.values[position]
        return Fraction(*self._scaled(position, vertices))

    def quality(self, config: Configuration):
        return self._quality(*self._rank(config.items))

    def scaled(self, config: Configuration) -> tuple[int, int]:
        """``(I, q**V)`` for ``config`` of V vertices: its stored scaled
        quality and the scale, unreduced, so that ``quality(config) ==
        Fraction(I, q**V)`` without a gcd. A float table raises TypeError."""
        if self._scale is None:
            raise TypeError("a float table holds no scaled values")
        return self._scaled(*self._rank(config.items))

    def action(self, config: Configuration) -> Action:
        return self.actions[self.action_ids[self._rank(config.items)[0]]]

    def items(self) -> Iterator[tuple[Configuration, Fraction, Action]]:
        """``(configuration, quality, action)`` in storage order."""
        actions, action_ids = self.actions, self.action_ids
        for position, config in enumerate(enumerate_configurations(self.n)):
            yield (config, self._quality(position, config.vertex_count),
                   actions[action_ids[position]])

    def as_strategy(self, name: str = "optimal") -> Strategy:
        """The table's optimal actions as a strategy, deciding by rank; a
        configuration beyond ``n`` edges raises KeyError."""
        return _TableStrategy(self, name)

    @_collector_paused()
    def save(self, path) -> None:
        """Header ``N=<n> ps=<num>/<den>`` then one sorted line per entry:
        ``key<TAB>num/den<TAB>a,b|stop``. Byte-reproducible. The keys come
        in order one group at a time (``configuration._partition_ranker``)
        and the lines are written 512 at a time as they are made, so no
        more than one group's keys and 512 lines are held at once; each
        value is decoded from the packed store as its line is made. Written to
        ``<path>.<pid>.part`` and renamed over ``path``, so ``path`` never
        holds a partial table; the temporary file does not outlive a failed
        write. A ``path`` that exists but is no regular file, such as
        ``/dev/null``, is written in place, since a rename would replace
        it."""
        if self._scale is None:
            raise TypeError("only exact-rational tables are persisted")
        in_place = os.path.exists(path) and not os.path.isfile(path)
        partial = path if in_place else f"{os.fspath(path)}.{os.getpid()}.part"
        try:
            with open(partial, "w", encoding="ascii") as fh:
                fh.write(f"N={self.n} ps={self.ps.numerator}/{self.ps.denominator}\n")
                # a few hundred lines a write: a write a line took a tenth of a save
                lines = self._lines()
                fh.writelines(iter(lambda: "".join(islice(lines, 512)), ""))
            if not in_place:
                os.replace(partial, path)
        except BaseException:
            if not in_place and os.path.exists(partial):
                os.remove(partial)
            raise

    def _lines(self) -> Iterator[str]:
        """The entry lines of :meth:`save`, each made as it is written. The
        groups come in key order, and a tab sorts before every key
        character, so the lines come out sorted."""
        texts = [format_action(action) for action in self.actions]
        action_ids, scale, from_bytes, divisor = self.action_ids, self._scale, int.from_bytes, gcd
        # the store's at(), inlined, with each level's first byte less its
        # first position times its width, so a line does one lookup fewer
        levels, widths = self.values.levels, self.values.widths
        shifts = [offset * width for offset, width in zip(self.values.offsets, widths)]
        for keys, positions, vertex_counts in self._groups():
            for key, position, vertices in zip(keys, positions, vertex_counts):
                width = widths[vertices]
                start = position * width - shifts[vertices]
                value = from_bytes(levels[vertices][start:start + width], "little")
                denominator = scale[vertices]
                common = divisor(value, denominator)
                yield (f"{key}\t{value // common}/{denominator // common}"
                       f"\t{texts[action_ids[position]]}\n")

    @classmethod
    @_collector_paused()
    def load(cls, path) -> "QualityTable":
        """Read a table written by :meth:`save`. Raises
        :class:`CorruptTable`, naming ``path``, unless the header and every
        line parse, each action text is that of an action a table of N
        edges can hold (:func:`_table_actions`), and the file holds every
        configuration of at most N edges exactly once, in key order, each
        with a value that is a multiple of ``1/q**V`` between 0 and
        ``min(V - 1, N)``, the most edges at V vertices.

        Reads in file order, in lockstep with the keys in key order one
        group at a time (``configuration._partition_ranker``): each line
        must hold the next key, and a line that holds another is reported
        with the key expected there. No map over the whole table is made."""
        # a byte that is not ASCII decodes to U+FFFD and fails as malformed
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            header = fh.readline()
            try:
                fields = dict(part.split("=", 1) for part in header.split())
                n = int(fields["N"])
                num, _, den = fields["ps"].partition("/")
                ps = Fraction(int(num), int(den))
                if n < 0 or not 0 < ps <= 1:
                    raise ValueError
            except (KeyError, ValueError, ZeroDivisionError):
                raise CorruptTable(f"{path}: malformed header {header!r}") from None
            _, key_groups, size = _partition_ranker(n)
            # (key, position, vertex count) of every configuration, in key order
            stream = chain.from_iterable(zip(*group) for group in key_groups())
            _, _, scale, _ = _scaling(ps, 2 * n)
            limits = _level_limits(n, scale)
            # the scaled values by position, in key order, packed level by
            # level once all are read: filling packed levels line by line
            # took a sixth longer at N=28
            values: list = [None] * size
            action_ids = array("H", bytes(2 * size))
            index_of = {format_action(action): index
                        for index, action in enumerate(_table_actions(n))}
            for number, line in enumerate(fh, 2):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    key, value, text = line.split("\t")
                    num, _, den = value.partition("/")
                    num, den = int(num), int(den)
                    index = index_of[text]
                except (KeyError, ValueError):
                    raise CorruptTable(f"{path}: line {number} is malformed: {line!r}") from None
                expected, position, vertices = next(stream, (None, 0, 0))
                if key != expected:
                    where = ("the file should end" if expected is None
                             else f"'{expected}' comes next in key order")
                    raise CorruptTable(f"{path}: line {number} holds '{key}' where {where}")
                if den < 1 or scale[vertices] % den:
                    raise CorruptTable(f"{path}: value {value} of '{key}' is not a multiple "
                                       f"of 1/{scale[vertices]}")
                scaled = num * (scale[vertices] // den)
                if not 0 <= scaled <= limits[vertices]:
                    raise CorruptTable(f"{path}: value {value} of '{key}' is outside [0, "
                                       f"{limits[vertices] // scale[vertices]}]")
                values[position] = scaled
                action_ids[position] = index
        absent, _, _ = next(stream, (None, 0, 0))
        if absent is not None:
            raise CorruptTable(f"{path}: the file ends before '{absent}'")
        counts = [0] * (2 * n + 1)
        for v, _, start, stop in _block_starts(n):
            counts[v] += stop - start
        packed = _PackedInts(n, ps.denominator)
        stop = 0
        for count in counts:
            start, stop = stop, stop + count
            packed.extend(values[start:stop])
        return cls(n, ps, packed, action_ids)


class _TableStrategy(Strategy):
    """:meth:`QualityTable.as_strategy`: each decision is the table's
    :meth:`~QualityTable.action`."""

    def __init__(self, table: QualityTable, name: str):
        self.table = table
        self.name = name

    def decide(self, config: Configuration) -> Action:
        return self.table.action(config)


def _count_codes(n: int, cap: int) -> list[int]:
    """The weights ``w`` of the integer count codes of configurations of at
    most ``n`` edges whose chains are at most ``cap`` long.

    A configuration with ``count_k`` chains of length k has code
    ``sum(count_k * w[k])`` with mixed-radix weights ``w[k] = prod(n // j
    + 1 for 1 <= j < k)`` and ``w[0] = 0``, so a destroyed chain adds
    nothing; at most ``n // k`` chains have length k, so the code is
    injective. Indexed by lengths up to ``cap``. :func:`_pair_rows` takes
    each fusion's code shifts and vertex drops from the fusion rule.
    """
    return [0] + [prod(n // j + 1 for j in range(1, k)) for k in range(1, cap + 1)]


def _pair_rows(n: int, cap: int, ps) -> tuple[list[int], list[list[tuple | None]]]:
    """``(w, rows)``: the weights of :func:`_count_codes` and the row of
    each fusion pair that :func:`_optimize` reads.

    ``rows[a][b]``, a <= b <= cap, is ``(success shift, p * q**cut,
    success drop, failure shift, failure factor, failure drop, action
    index)``, and None past the cap. Each outcome's chains are those of
    the fusion rule, ``configuration._fused``, with a merged chain longer
    than ``cap`` cut to ``cap`` (the razor model; with ``cap = n`` nothing
    is cut). The code shift is their weights less ``w[a] + w[b]``; the
    drop is the vertices of a and b less theirs, a chain of k >= 1 edges
    having k + 1. A success thus drops ``1 + cut`` vertices, and its factor
    is ``p * q**cut``; a failure's is ``fail_factor[drop]`` of
    :func:`_scaling`. The action index is the pair's position in
    ``_table_actions(n)``.
    """
    _, p, scale, fail_factor = _scaling(ps, n)
    w = _count_codes(n, cap)
    rows = [[None] * (cap + 1) for _ in range(cap + 1)]
    for index, fuse in enumerate(_table_actions(n)[1:], 1):
        a, b = fuse.a, fuse.b
        if b <= cap:
            row = []
            for won in (True, False):
                kept = [min(k, cap) for k in _fused(a, b, won)]
                drop = a + b + 2 - sum(k + 1 for k in kept if k)
                row += (sum(w[k] for k in kept) - w[a] - w[b],
                        p * scale[drop - 1] if won else fail_factor[drop], drop)
            rows[a][b] = (*row, index)
    return w, rows


@_collector_paused()
def _optimize(n: int, ps, cap: int, attempts: bool = False):
    """The count-code optimiser: :func:`build_quality_table` runs it with
    ``cap = n`` and :func:`cluster_forge.bounds.razor_quality` with ``cap =
    r``, where a success cuts a merged chain longer than ``cap`` to ``cap``.

    Works up through the configurations of at most ``n`` edges and chains
    of at most ``cap`` edges in storage order, so both successors of
    every fusion are known. Returns ``(values, action_ids, starts)``: a
    table's stores by position, the maximal scaled quality and the index
    into ``_table_actions(n)`` of the smallest maximizing pair, both empty
    with ``attempts``; and ``starts[m]``, the quality and (with
    ``attempts``, else None) the minimal expected attempts from the start
    of m pairs for m <= n, decoded: a Fraction for an exact ``ps``.

    Values and attempts live as plain ints (or floats) only in the dicts
    of the live levels. Without ``attempts`` each level is packed once the
    build moves past it, into a :class:`_PackedInts` for an exact ``ps``,
    or into an ``array('d')`` for a float one.
    """
    _check_ps(ps)
    exact, _, scale, _ = _scaling(ps, 2 * n)
    w, rows = _pair_rows(n, cap, ps)
    # keep as many levels as the deepest drop of a pair row
    depth = max((max(row[2], row[5]) for pairs in rows for row in pairs if row), default=0)
    zero, inf = 0 * scale[0], float("inf")
    values = _PackedInts(n, ps.denominator) if exact else array("d")
    action_ids = array("H")
    starts: list[tuple] = []
    # quality[v], spent[v]: {code: scaled quality or attempts} at v vertices,
    # None once no successor can reach them
    quality: list = [{} for _ in range(2 * n + 1)]
    spent: list = [{} for _ in range(2 * n + 1)]

    def pack(levels) -> None:
        if not attempts:
            for done in levels:
                values.extend(quality[done].values())

    partitions = _block_enumerator(cap, n)
    level = -1
    for v, total in _blocks(n):
        # under a cap a one-chain block may be empty; it then stores nothing
        block = partitions(total, v - total)
        if v != level:
            # the levels below v are done; level 1 holds no configuration
            pack(range(max(level, 0), v))
            level, base = v, scale[v]
            if v > depth:
                quality[v - depth - 1] = spent[v - depth - 1] = None
            here, there = quality[v], spent[v]
            # below[d], spent_below[d]: the levels d vertices down
            below, spent_below = quality[v::-1], spent[v::-1]
        stop = v - total <= 1  # the empty configuration or one chain
        for items in block:
            code = 0
            for k, count in items:
                code += count * w[k]
            # a stop keeps its length; -1 is below every value, inf above every cost
            best, action, least = (total * base, 0, zero) if stop else (-1, None, inf)
            for i, (a, count) in enumerate(items):
                row = rows[a]
                for b, _ in items[i if count >= 2 else i + 1:]:
                    s_shift, s_factor, s_drop, f_shift, f_factor, f_drop, index = row[b]
                    value = (s_factor * below[s_drop][code + s_shift]
                             + f_factor * below[f_drop][code + f_shift])
                    if value > best:
                        best, action = value, index
                    if attempts:
                        # the base comes first, as in the plain recursion
                        cost = (base + s_factor * spent_below[s_drop][code + s_shift]
                                + f_factor * spent_below[f_drop][code + f_shift])
                        if cost < least:
                            least = cost
            here[code] = best
            if attempts:
                there[code] = least
            else:
                action_ids.append(action)
        if v == 2 * total:  # the block of m = total pairs alone, 1^m
            starts.append((best, least))
    pack(range(level, 2 * n + 1))
    # the start of m pairs has 2m vertices
    decode = (lambda x, m: Fraction(x, scale[2 * m])) if exact else (lambda x, m: x)
    return values, action_ids, [
        (decode(best, m), decode(least, m) if attempts else None)
        for m, (best, least) in enumerate(starts)]


def build_quality_table(n: int, ps=HALF, max_entries: int | None = None) -> QualityTable:
    """Tabulate the optimal quality over every configuration with at most
    ``n`` edges: :func:`_optimize` with ``cap = n``, so no chain is cut.

    Among maximizing actions the lexicographically smallest length pair
    is stored, so tables are deterministic. Raises
    :class:`TableBudgetExceeded`, before any DP work, when the table has
    more than ``max_entries`` entries, naming the vertex-count level of
    the first entry past the budget.
    """
    if n < 0:
        raise ValueError(f"table size must be at least 0, got {n}")
    if max_entries is not None and max_entries < 0:
        raise ValueError(f"entry budget must be at least 0, got {max_entries}")
    if max_entries is not None:
        # checked before any DP work, after ps as in the DP: the level of
        # the first entry past the budget
        _check_ps(ps)
        for v, _, _, stop in _block_starts(n):
            if stop > max_entries:
                raise TableBudgetExceeded(n, v, max_entries)
    values, action_ids, _ = _optimize(n, ps, n)
    return QualityTable(n, ps, values, action_ids)


# The table store, by (table directory or None, type(ps), ps): the type keeps
# a float table from answering an exact request (0.5 == Fraction(1, 2)), the
# directory a table read from it from answering a call that names none. A
# directory is keyed by its real path, so each spelling of it shares a key.
_table_cache: dict[tuple[str | None, type, object], QualityTable] = {}


def cached_quality_table(n: int, ps=HALF, table_dir: str | None = None) -> QualityTable:
    """The store's table covering total length ``n``, else one built, or
    with ``table_dir`` (an exact ``ps`` only) read or saved there, and
    kept. A configuration's value and action do not depend on N. Paths
    in errors are joined to ``table_dir`` as given."""
    key = (None if table_dir is None else os.path.realpath(table_dir), type(ps), ps)
    table = _table_cache.get(key)
    if table is None or table.n < n:
        table = _table_cache[key] = (build_quality_table(n, ps) if table_dir is None
                                     else _directory_table(table_dir, n, ps))
    return table


def _directory_table(table_dir: str, n: int, ps: Fraction) -> QualityTable:
    """The smallest ``table-n<N>-ps<p>-<q>.tsv`` in ``table_dir`` covering
    n, else the store's table without a directory, which may be larger,
    saved there under its own N. A file that does not load, or whose
    header disagrees with its name, raises :class:`CorruptTable`."""
    if not isinstance(ps, Fraction):
        raise TypeError("only exact-rational tables are persisted")
    suffix = f"-ps{ps.numerator}-{ps.denominator}.tsv"
    candidates = []
    for name in os.listdir(table_dir):
        if name.startswith("table-n") and name.endswith(suffix):
            try:
                file_n = int(name[len("table-n"):].split("-")[0])
            except ValueError:
                continue
            if file_n >= n:
                candidates.append((file_n, name))
    if not candidates:
        table = cached_quality_table(n, ps)
        # the store may answer with a larger table; name the file by its size
        table.save(os.path.join(table_dir, f"table-n{table.n}{suffix}"))
        return table
    file_n, name = min(candidates)
    path = os.path.join(table_dir, name)
    table = QualityTable.load(path)
    if (table.n, table.ps) != (file_n, ps):
        raise CorruptTable(f"{path}: header says N={table.n} ps={table.ps}, "
                           f"the file name N={file_n} ps={ps}")
    return table


def clear_table_cache() -> None:
    _table_cache.clear()


def optimal_quality(config: Configuration, ps=HALF):
    """Best possible expected final total length from ``config``."""
    _check_ps(ps)
    return cached_quality_table(config.total_length, ps).quality(config)


def optimal_attempts(config: Configuration, ps=HALF):
    """Expected fusion attempts of the quality-optimal strategy.

    Uses the edge-loss identity quality = L - 2 (1 - ps) attempts, which
    pins down the attempt count whenever ps < 1.
    """
    _check_ps(ps)
    if ps == 1:
        raise ValueError("attempts are not determined by quality at ps = 1")
    return (config.total_length - optimal_quality(config, ps)) / (2 * (1 - ps))


@dataclass
class OracleResult:
    """Exhaustive event-tree statistics for one strategy and start."""

    distribution: dict[Configuration, Fraction]
    mean_length: Fraction
    expected_attempts: Fraction
    paths: int

    @property
    def total_probability(self) -> Fraction:
        return sum(self.distribution.values(), Fraction(0))


@_collector_paused()
def event_tree_oracle(
    strategy: Strategy | StatefulStrategy,
    start: Configuration | IdentityConfiguration,
    ps=HALF,
    max_total_length: int = 14,
) -> OracleResult:
    """Enumerate every event string explicitly, with no memoization.

    Ground truth for the memoized expectation code, at exponential cost;
    refuses starts longer than ``max_total_length`` edges. Each state
    passes the validity gate, so an invalid strategy raises
    :class:`~cluster_forge.strategies.InvalidStrategy` as the exact
    evaluation does.

    Exact in integers, for a float ``ps`` too (as the Fraction it is):
    with ``ps = p/q`` and D the deepest string, a string of d attempts
    and w successes weighs ``p**w * (q - p)**(d - w) * q**(D - d)``
    over ``q**D``. The leaves carry their success counts, the weights
    are summed as ints, and a Fraction is built once per field.
    """
    _check_ps(ps)
    total = start.total_length
    if total > max_total_length:
        raise ValueError(
            f"oracle is exhaustive; start has {total} > {max_total_length} edges"
        )
    ps = Fraction(ps)
    p, q = ps.numerator, ps.denominator
    # (final configuration, successes, attempts) per event string
    leaves: list[tuple[Configuration, int, int]] = []

    def walk(state, wins: int, event: str) -> None:
        # both children pass the validity gate before either is walked,
        # failure first, so a broken rule is met where the exact
        # evaluation meets it
        try:
            node = _expand(strategy, state, state.vertex_count)
        except _Broken as exc:
            raise exc.invalid(strategy, start, event) from exc.__cause__
        if node is None:
            leaves.append((state.to_configuration(), wins, len(event)))
            return
        succ, _, fail = node
        walk(fail, wins, event + FAILURE)
        walk(succ, wins + 1, event + SUCCESS)

    walk(strategy.start(start), 0, "")
    depth = max(d for _, _, d in leaves)
    wins_power = [p ** k for k in range(depth + 1)]
    losses_power = [(q - p) ** k for k in range(depth + 1)]
    scale = [q ** k for k in range(depth + 1)]
    weights: dict[Configuration, int] = {}
    attempts = 0
    for final, wins, d in leaves:
        weight = wins_power[wins] * losses_power[d - wins] * scale[depth - d]
        weights[final] = weights.get(final, 0) + weight
        attempts += weight * d
    return OracleResult(
        distribution={final: Fraction(weight, scale[depth]) for final, weight in weights.items()},
        mean_length=Fraction(sum(weight * final.total_length
                                 for final, weight in weights.items()), scale[depth]),
        expected_attempts=Fraction(attempts, scale[depth]),
        paths=len(leaves),
    )
