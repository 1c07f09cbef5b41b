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
chain cut to R edges, which also minimises attempts in the same pass.

* Integer scaling. With ``ps = p/q`` a configuration of V vertices holds
  ``I = value * q**V`` as a Python int. Success removes ``1 + cut``
  vertices (``cut`` edges lost to the cap, none for the table) and
  failure ``drop = 2 + [a == 1] + [b == 1]``, so
  ``I(C) = p * q**cut * I(S) + (q - p) * q**(drop - 1) * I(F)``: no gcd
  inside the DP, and values of one level compare as plain ints. A float
  ``ps`` runs the same code with q = 1, which gives bit-identical floats
  since ``x * 1`` is exact.
* Count codes and pair rows. Configurations are keyed by the integer
  ``sum(count_k * (n + 1)**k)`` (:func:`_count_codes`). One precomputed
  row per fusion pair holds both code shifts, both branch factors, both
  drops and the action index, so the inner loop does no arithmetic on
  lengths.
* Level-lazy enumeration. Count vectors come from one
  ``configuration._block_enumerator`` per build, one block of vertex and
  edge count at a time, in the order of :func:`enumerate_configurations`.
  It builds each list of partition suffixes once, shares it between
  blocks, and drops it once the build passes the last vertex level that
  can use it. The DP keeps only as many levels as the deepest drop, four
  for the table, and a budget stops early.
* Rank-indexed storage. Each configuration's entry sits at its rank,
  its position in that order, as one scaled value in a list and one
  index into a shared list of actions in an ``array('H')``. The build
  makes no configuration object, key string or Fraction: a
  :class:`QualityTable` computes the rank from a count vector when asked
  (``configuration._partition_ranker``), and its quality, action and
  strategy read by rank. ``Fraction(I, q**V)`` is built only on demand,
  and canonical key strings only where a table is saved or loaded. The
  file holds the entries sorted by key, and :meth:`QualityTable.save` and
  :meth:`QualityTable.load` go through them in that order one group at a
  time: the keys that share a first item ``k^m``, at most p(n - 1) of
  them (3,010 of 18,460 at N=28). Neither holds a line, key or tuple per
  entry of the whole table.

The read side is scaled the same way. One explorer, :func:`_explore`,
walks a strategy's event DAG through the validity gate of
:mod:`cluster_forge.strategies` and yields each new state once, in
post-order, to one of three consumers: :func:`_sweep` (under
:func:`strategy_quality`, :func:`expected_attempts` and
:func:`strategy_quality_range`) fills a memo of ints ``value * q**V``
shared by a sweep's starts, with one ``Fraction(I, q**V)`` per answer and
the same q = 1 float path; ``validate_strategy_sweep`` fills a set; a
Monte Carlo event table numbers the states.

One store, :func:`cached_quality_table`, keeps the largest table read or
built per table directory (or none), type of ``ps`` and ``ps``; past it,
a request builds, or with a directory reads the smallest file there that
covers it, else saves there what a request without a directory gets.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
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
    _partition_ranker,
    enumerate_configurations,
)
from .strategies import StatefulStrategy, Strategy, _advance, _Broken, _decide
from .strategies import format_action, parse_action

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


def _explore(strategy: Strategy | StatefulStrategy, root: Hashable, seen,
             budget: int | None = None):
    """The states of ``strategy``'s event DAG from the process state
    ``root`` that are not in ``seen``, each once, in post-order, as
    ``(state, vertices, node)``: ``node`` is None at a stop, else
    ``(success state, failure drop, failure state)``. The consumer puts
    each state into ``seen`` before it asks for the next.

    Each decided state passes the validity gate of
    :mod:`cluster_forge.strategies`; the first broken rule raises
    :class:`~cluster_forge.strategies.InvalidStrategy`, so a state in
    ``seen`` has a clean subtree. Depth first, the failure child first;
    that order decides which broken rule is reported. After ``budget``
    decisions it stops; the root comes last, so a cut exploration never
    yields it.
    """
    decided = 0
    # (state, its vertex count, its node once its successors are pushed)
    stack: list[tuple[Hashable, int, tuple | None]] = [(root, root.vertex_count, None)]
    try:
        while stack:
            state, v, node = stack.pop()
            if node is not None:
                yield state, v, node
                continue
            if state in seen:
                continue
            if decided == budget:
                return
            decided += 1
            action = _decide(strategy, state)
            if isinstance(action, Stop):
                yield state, v, None
                continue
            succ, _ = _advance(strategy, state, action, SUCCESS, v)
            fail, drop = _advance(strategy, state, action, FAILURE, v)
            # a child already seen is skipped when popped, so each state
            # is hashed once per parent, not twice
            stack.append((state, v, (succ, drop, fail)))
            stack.append((succ, v - 1, None))
            stack.append((fail, v - drop, None))
    except _Broken as exc:
        # the state's ancestors are the post-order entries left on the
        # stack; one whose success child still waits right above it was
        # left by failure, expanded first
        event = "".join(
            FAILURE if i + 1 < len(stack) and stack[i + 1][2] is None else SUCCESS
            for i, (_, _, node) in enumerate(stack) if node is not None)
        raise exc.invalid(strategy, root, event) from exc.__cause__


def _sweep(strategy: Strategy | StatefulStrategy, starts, ps, attempts: bool = False) -> list:
    """Quality (or expected attempts) of ``strategy`` from each start, all
    sharing one memo, dropped on return, of ``I = value * q**v`` at v
    vertices: at a stop the total length (quality) or 0 (attempts) times
    ``q**v``, else ``base + p * I(success) + (q - p) * q**(drop - 1) *
    I(failure)``, base ``q**v`` for attempts and 0 for quality."""
    _check_ps(ps)
    states = [strategy.start(start) for start in starts]
    exact, p, scale, fail_factor = _scaling(ps, max((s.vertex_count for s in states), default=0))
    zero = 0 * scale[0]
    memo: dict = {}
    answers = []
    for root in states:
        for state, v, node in _explore(strategy, root, memo):
            if node is None:
                memo[state] = zero if attempts else state.total_length * scale[v]
            else:
                succ, drop, fail = node
                base = scale[v] if attempts else zero
                memo[state] = base + p * memo[succ] + fail_factor[drop] * memo[fail]
        answers.append(Fraction(memo[root], scale[root.vertex_count]) if exact else memo[root])
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


class QualityTable:
    """Optimal quality and an optimal action for every configuration with
    at most ``n`` edges, stored by rank.

    Entry r belongs to the configuration at position r of
    :func:`enumerate_configurations`; :meth:`rank` computes r from the
    configuration's count vector with a table of restricted-partition
    counts (``configuration._partition_ranker``); the table holds no
    dictionary over entries. ``values[r]`` is the scaled int ``I = quality * q**V``
    for ``ps = p/q`` and a configuration of V vertices, or the quality
    itself for a float ``ps``. The action is ``actions[action_ids[r]]``,
    a small index into one shared list of ``Fuse``/``STOP`` objects.
    :meth:`quality` builds ``Fraction(I, q**V)`` only when asked, and
    :meth:`as_strategy` decides by rank too: canonical key strings are
    made only where a table crosses the file boundary, by :meth:`save`
    and :meth:`load`.
    """

    def __init__(self, n: int, ps, values: list, action_ids: array, actions: list[Action]):
        self.n = n
        self.ps = ps
        self.values = values
        self.action_ids = action_ids
        self.actions = actions
        self._rank, self._groups, _ = _partition_ranker(n)
        # q**V per vertex count V for an exact ps; None for a float ps
        self._scale = ([ps.denominator ** v for v in range(2 * n + 1)]
                       if isinstance(ps, Fraction) else None)

    def __len__(self) -> int:
        return len(self.values)

    def __reduce__(self):
        # the ranker's closures are rebuilt, not pickled
        return type(self), (self.n, self.ps, self.values, self.action_ids, self.actions)

    def __contains__(self, config: Configuration) -> bool:
        return config.total_length <= self.n

    def rank(self, config: Configuration) -> int:
        """Storage position of ``config``; KeyError beyond ``n`` edges."""
        return self._rank(config.items)[0]

    def _quality(self, position: int, vertices: int):
        value = self.values[position]
        return value if self._scale is None else Fraction(value, self._scale[vertices])

    def quality(self, config: Configuration):
        return self._quality(*self._rank(config.items))

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

    def save(self, path) -> None:
        """Header ``N=<n> ps=<num>/<den>`` then one sorted line per entry:
        ``key<TAB>num/den<TAB>a,b|stop``. Byte-reproducible. The keys come
        in order one group at a time (``configuration._partition_ranker``)
        and each line is written as it is made, so no more than one
        group's keys and no line list are held at once. Written to
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
                fh.writelines(self._lines())
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
        values, action_ids, scale = self.values, self.action_ids, self._scale
        for keys, positions, vertex_counts in self._groups():
            for key, position, vertices in zip(keys, positions, vertex_counts):
                value, denominator = values[position], scale[vertices]
                common = gcd(value, denominator)
                yield (f"{key}\t{value // common}/{denominator // common}"
                       f"\t{texts[action_ids[position]]}\n")

    @classmethod
    def load(cls, path) -> "QualityTable":
        """Read a table written by :meth:`save`. Raises ValueError, naming
        ``path``, unless the header and every line parse and the file
        holds every configuration of at most N edges exactly once, in key
        order, each with a value that is a multiple of ``1/q**V``.

        Reads in file order, in step with the keys in key order one group
        at a time (``configuration._partition_ranker``): each line holds
        the next key or, past missing ones, a later key. No map over the
        whole table is made."""
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
                raise ValueError(f"{path}: malformed header {header!r}") from None
            _, key_groups, size = _partition_ranker(n)
            # (key, position, vertex count) of every configuration, in key order
            stream = chain.from_iterable(zip(*group) for group in key_groups())
            read, skipped = 0, None
            scale = [ps.denominator ** v for v in range(2 * n + 1)]
            values: list = [None] * size
            action_ids = array("H", bytes(2 * size))
            # a table holds few distinct actions: parse each text once and
            # share the frozen action objects
            actions: list[Action] = []
            action_index: dict[str, int] = {}
            for number, line in enumerate(fh, 2):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    key, value, text = line.split("\t")
                    num, _, den = value.partition("/")
                    num, den = int(num), int(den)
                    index = action_index.get(text)
                    if index is None:
                        action = parse_action(text)
                except ValueError:
                    raise ValueError(f"{path}: line {number} is malformed: {line!r}") from None
                # the keys that sort below the line's are missing from the file
                for expected, position, vertices in stream:
                    if expected >= key:
                        break
                    if skipped is None:
                        skipped = expected
                else:
                    expected = None
                if expected != key:
                    raise ValueError(f"{path}: line {number}: '{key}' is repeated or not "
                                     f"the key of a configuration of at most N={n} edges, "
                                     f"or is out of order")
                read += 1
                if den < 1 or scale[vertices] % den:
                    raise ValueError(f"{path}: value {value} of '{key}' is not a multiple "
                                     f"of 1/{scale[vertices]}")
                values[position] = num * (scale[vertices] // den)
                if index is None:
                    index = action_index[text] = len(actions)
                    actions.append(action)
                action_ids[position] = index
        if read < size:
            if skipped is None:
                skipped = next(stream)[0]
            raise ValueError(f"{path}: {size - read} of the {size} entries for N={n} are "
                             f"missing, such as '{skipped}'")
        return cls(n, ps, values, action_ids, actions)


class _TableStrategy(Strategy):
    """:meth:`QualityTable.as_strategy`: each decision is the table's
    :meth:`~QualityTable.action`."""

    def __init__(self, table: QualityTable, name: str):
        self.table = table
        self.name = name

    def decide(self, config: Configuration) -> Action:
        return self.table.action(config)


def _count_codes(n: int, cap: int) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Integer count codes for configurations of at most ``n`` edges whose
    chains are at most ``cap`` long.

    A configuration with ``count_k`` chains of length k has code
    ``sum(count_k * w[k])`` with ``w[k] = (n + 1) ** k`` and ``w[0] = 0``;
    no count exceeds n, so the code is injective. Fusing lengths a <= b
    adds ``success[a][b] = w[min(a+b, cap)] - w[a] - w[b]`` to the code on
    success (a merged chain longer than ``cap`` is cut to ``cap``, as in
    the razor model; with ``cap = n`` nothing is cut) and
    ``failure[a][b] = w[a-1] - w[a] + w[b-1] - w[b]`` on failure.
    Returns ``(w, success, failure)``, indexed by lengths up to ``cap``.
    """
    w = [0] + [(n + 1) ** k for k in range(1, cap + 1)]
    success = [[w[min(a + b, cap)] - w[a] - w[b] for b in range(cap + 1)]
               for a in range(cap + 1)]
    failure = [[w[a - 1] - w[a] + w[b - 1] - w[b] if a and b else 0 for b in range(cap + 1)]
               for a in range(cap + 1)]
    return w, success, failure


def _optimize(n: int, ps, cap: int, attempts: bool = False):
    """The count-code optimiser: :func:`build_quality_table` runs it with
    ``cap = n`` and :func:`cluster_forge.bounds.razor_quality` with ``cap =
    r``, where a success cuts a merged chain longer than ``cap`` to ``cap``.

    Works up through the configurations of at most ``n`` edges and chains
    of at most ``cap`` edges in storage order, so both successors of
    every fusion are known. Returns ``(values, action_ids, actions,
    costs, starts)``: by position, the maximal scaled quality, the index
    into ``actions`` of the smallest maximizing pair, and, with
    ``attempts``, the minimal scaled expected attempts (else an empty
    list); and ``starts[m]``, the quality and (with ``attempts``, else
    None) the attempts from the start of m pairs for m <= n, decoded: a
    Fraction for an exact ``ps``.
    """
    _check_ps(ps)
    exact, p, scale, fail_factor = _scaling(ps, 2 * n)
    w, success, failure = _count_codes(n, cap)
    # rows[a][b], a <= b: (success shift, p * q**cut, success drop 1 + cut,
    # failure shift, failure factor, failure drop, action index), where the
    # cap cuts a + b - min(a + b, cap) edges from the merged chain
    actions: list[Action] = [STOP]
    rows: list[list] = [[]]
    for a in range(1, cap + 1):
        rows.append([None] * (cap + 1))
        for b in range(a, min(cap, n - a) + 1):
            cut, drop = a + b - min(a + b, cap), 2 + (a == 1) + (b == 1)
            rows[a][b] = (success[a][b], p * scale[cut], 1 + cut,
                          failure[a][b], fail_factor[drop], drop, len(actions))
            actions.append(Fuse(a, b))
    # keep as many levels as the deepest drop: 4 for a failure, 1 + cut
    # for a success, and the largest cut is min(2 cap, n) - cap
    depth = max(4, 1 + max(min(2 * cap, n) - cap, 0))
    zero, inf = 0 * scale[0], float("inf")
    values: list = []
    action_ids = array("H")
    costs: list = []
    starts: list[int] = []
    # quality[v], spent[v]: {code: scaled quality or attempts} at v vertices,
    # None once no successor can reach them
    quality: list = [{} for _ in range(2 * n + 1)]
    spent: list = [{} for _ in range(2 * n + 1)]
    partitions = _block_enumerator(cap, n)
    level = -1
    for v, total in _blocks(n):
        # under a cap a one-chain block may be empty; it then stores nothing
        block = partitions(total, v - total)
        if v != level:
            level, base = v, scale[v]
            if v > depth:
                quality[v - depth - 1] = spent[v - depth - 1] = None
            here, there = quality[v], spent[v]
            # below[d], spent_below[d]: the levels d vertices down
            below, spent_below = quality[v::-1], spent[v::-1]
        if v == 2 * total:  # the block of m = total pairs alone
            starts.append(len(values))
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
            values.append(best)
            action_ids.append(action)
            if attempts:
                there[code] = least
                costs.append(least)
    # the start of m pairs has 2m vertices
    decode = (lambda x, m: Fraction(x, scale[2 * m])) if exact else (lambda x, m: x)
    return values, action_ids, actions, costs, [
        (decode(values[i], m), decode(costs[i], m) if attempts else None)
        for m, i in enumerate(starts)]


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
    values, action_ids, actions, _, _ = _optimize(n, ps, n)
    return QualityTable(n, ps, values, action_ids, actions)


class CorruptTable(Exception):
    """A table file in a table directory that does not parse or whose
    header disagrees with its name."""


# The table store, by (table directory or None, type(ps), ps): the type keeps
# a float table from answering an exact request (0.5 == Fraction(1, 2)), the
# directory a table read from it from answering a call that names none.
_table_cache: dict[tuple[str | None, type, object], QualityTable] = {}


def cached_quality_table(n: int, ps=HALF, table_dir: str | None = None) -> QualityTable:
    """The store's table covering total length ``n``, else one built, or
    with ``table_dir`` (an exact ``ps`` only) read or saved there, and
    kept. A configuration's value and action do not depend on N."""
    key = (table_dir, type(ps), ps)
    table = _table_cache.get(key)
    if table is None or table.n < n:
        table = _table_cache[key] = (build_quality_table(n, ps) if table_dir is None
                                     else _directory_table(table_dir, n, ps))
    return table


def _directory_table(table_dir: str, n: int, ps: Fraction) -> QualityTable:
    """The smallest ``table-n<N>-ps<p>-<q>.tsv`` in ``table_dir`` covering
    n, else the store's table without a directory, which may be larger,
    saved there under its own N. A file that does not parse or whose
    header disagrees with its name raises :class:`CorruptTable`."""
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
    try:
        table = QualityTable.load(path)
    except ValueError as exc:
        raise CorruptTable(exc) from None
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
    """
    _check_ps(ps)
    total = start.total_length
    if total > max_total_length:
        raise ValueError(
            f"oracle is exhaustive; start has {total} > {max_total_length} edges"
        )
    ps = Fraction(ps)
    pf = 1 - ps
    # (final configuration, probability, attempts) per event string
    leaves: list[tuple[Configuration, Fraction, int]] = []

    def walk(state, prob: Fraction, event: str) -> None:
        # both children pass the validity gate before either is walked,
        # failure first, so a broken rule is met where the exact
        # evaluation meets it
        try:
            action = _decide(strategy, state)
            if isinstance(action, Stop):
                leaves.append((state.to_configuration(), prob, len(event)))
                return
            v = state.vertex_count
            succ, _ = _advance(strategy, state, action, SUCCESS, v)
            fail, _ = _advance(strategy, state, action, FAILURE, v)
        except _Broken as exc:
            raise exc.invalid(strategy, start, event) from exc.__cause__
        walk(fail, prob * pf, event + FAILURE)
        walk(succ, prob * ps, event + SUCCESS)

    walk(strategy.start(start), Fraction(1), "")
    distribution: dict[Configuration, Fraction] = {}
    for final, prob, _ in leaves:
        distribution[final] = distribution.get(final, Fraction(0)) + prob
    return OracleResult(
        distribution=distribution,
        mean_length=sum((prob * final.total_length for final, prob, _ in leaves), Fraction(0)),
        expected_attempts=sum((prob * depth for _, prob, depth in leaves), Fraction(0)),
        paths=len(leaves),
    )
