"""Control strategies: which chains to fuse next.

A valid strategy never references absent chains (no null fusions) and
stops exactly when at most one chain remains (no premature stops).

Strategies are written against one of two author interfaces:

* :class:`Strategy` decides from the anonymous configuration alone:
  ``decide(config)`` returns a :class:`Fuse` of two lengths or ``STOP``.
* :class:`StatefulStrategy` addresses individual chains and remembers
  them (insistent pairings, block structure): ``initial_memory(chains)``,
  ``decide(chains, memory)`` with a :class:`Fuse` of two chain indices,
  and ``next_memory(chains, memory, action, outcome, result)`` on
  identity configurations, with an explicit, hashable memory value.

Every walker (the exact evaluation, the event-tree oracle and the scalar
Monte Carlo player) runs both kinds through one process interface that
the two base classes provide:

* ``start(config)`` gives the process state at a start configuration,
* ``choose(state)`` the next action,
* ``step(state, action, outcome)`` the state after that action had
  outcome ``SUCCESS`` or ``FAILURE``, raising on a null fusion.

A stateless strategy's state is the :class:`Configuration` itself and
its step is :meth:`Configuration.fuse`. A stateful strategy's state is a
:class:`ProcessState`, the pair of identity chains and memory. Both are
named tuples, so they hash and compare in C, and expose
``chain_count``, ``vertex_count``, ``total_length`` and
``to_configuration()``, which is all a walker asks of a state. A step
builds its successor directly, without the constructors' checks: it is
valid by construction.

Validity has rules local to a state: ``choose`` decides, a decision is
a fusion or a stop, a stop leaves at most one chain, a fusion needs two
chains, a step does not raise, and each step removes the vertices the
fusion rule removes (exactly 1 on ``SUCCESS``, 2 to 4 on ``FAILURE``),
so every walk ends. A fusion of a pair the state lacks breaks one rule,
with one message at the decision's event, in both state kinds. Only
this module checks them, in a gate of two calls, ``_decide`` and
``_advance``, that raise ``_Broken``; ``exact._expand`` runs a decision
and both its steps through it. Three walkers turn ``_Broken`` into
:class:`InvalidStrategy` at their own event strings: the oracle, the
scalar Monte Carlo player and the memoized sweep ``exact._sweep`` of the
exact evaluation. :func:`validate_strategy_sweep` is that sweep at a
float ``ps``, its values dropped and its first error the answer; its
starts share one memo (``cluster-forge validate`` walks 508 states of
smallest-first for the 508 configurations up to 14 edges, not 12,340).
The Monte Carlo event tables give up instead, and leave the error to the
scalar player.
:class:`Modesty` and :class:`Greed` decide from the sorted ``items`` in O(1).
:class:`TwoStage` remembers its inner strategy's fusion per block offset
and lineup, since it depends on those alone. Its stage-one memory is
only where the running block starts and how many chains it holds, so
equal futures share one memo state and the memory update is a
subtraction.
"""

from __future__ import annotations

import numbers
from functools import cache
from typing import Hashable, Mapping, NamedTuple

from .configuration import (
    STOP,
    SUCCESS,
    Action,
    Configuration,
    Fuse,
    IdentityConfiguration,
    InvalidFusionError,
    Stop,
    _new,
    parse_key,
)

# Shared, immutable Fuse objects per index or length pair, so a decision
# seldom allocates one. Chains of at most n edges give at most n**2 pairs.
_fuse = cache(Fuse)


class Strategy:
    """Stateless decision rule on anonymous configurations."""

    name = "strategy"

    def decide(self, config: Configuration) -> Action:
        raise NotImplementedError

    def start(self, config: Configuration | IdentityConfiguration) -> Configuration:
        """The process state at ``config``: its anonymous configuration."""
        return config.to_configuration()

    def choose(self, state: Configuration) -> Action:
        return self.decide(state)

    def step(self, state: Configuration, action: Fuse, outcome: str) -> Configuration:
        return state.fuse(action.a, action.b, outcome)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class Greed(Strategy):
    """Always fuse the two largest available chains."""

    name = "greed"

    def decide(self, config: Configuration) -> Action:
        items = config.items
        if not items:
            return STOP
        a, count = items[-1]
        if count >= 2:
            return _fuse(a, a)
        if len(items) == 1:
            return STOP
        return _fuse(items[-2][0], a)


class Modesty(Strategy):
    """Always fuse the two smallest available chains."""

    name = "modesty"

    def decide(self, config: Configuration) -> Action:
        items = config.items
        if not items:
            return STOP
        a, count = items[0]
        if count >= 2:
            return _fuse(a, a)
        if len(items) == 1:
            return STOP
        return _fuse(a, items[1][0])


class LookupStrategy(Strategy):
    """Strategy given extensionally by a canonical-key -> action table.

    Each key is parsed once, here (:func:`parse_key`), so a decision is
    one dict lookup; a malformed or non-canonical key raises ValueError.
    """

    name = "lookup"

    def __init__(self, table: Mapping[str, Action], name: str = "lookup"):
        self.table = {parse_key(key): action for key, action in table.items()}
        self.name = name

    def decide(self, config: Configuration) -> Action:
        try:
            return self.table[config]
        except KeyError:
            raise KeyError(f"lookup table has no entry for configuration '{config}'") from None


class ProcessState(NamedTuple):
    """A stateful strategy's process state: identity chains and memory.

    Compares and hashes like the plain ``(chains, memory)`` pair. A step
    builds it with ``tuple.__new__``, skipping the Python-level
    ``__new__`` of a named tuple."""

    chains: IdentityConfiguration
    memory: Hashable

    @property
    def chain_count(self) -> int:
        return len(self.chains.chains)

    @property
    def vertex_count(self) -> int:
        return self.chains.vertex_count

    @property
    def total_length(self) -> int:
        return self.chains.total_length

    def to_configuration(self) -> Configuration:
        return self.chains.to_configuration()


class StatefulStrategy:
    """Decision rule on identity configurations with persistent memory.

    Memory values must be hashable and are advanced functionally, so the
    exact engine can memoize on (chains, memory) and simulations can
    replay deterministically. ``Fuse`` actions carry chain indices here.
    """

    name = "stateful"

    def initial_memory(self, chains: IdentityConfiguration) -> Hashable:
        raise NotImplementedError

    def decide(self, chains: IdentityConfiguration, memory: Hashable) -> Action:
        raise NotImplementedError

    def next_memory(
        self,
        chains: IdentityConfiguration,
        memory: Hashable,
        action: Fuse,
        outcome: str,
        result: IdentityConfiguration,
    ) -> Hashable:
        raise NotImplementedError

    def start(self, config: Configuration | IdentityConfiguration) -> ProcessState:
        """The process state at ``config``; an anonymous start is lined up
        ascending."""
        if isinstance(config, Configuration):
            config = IdentityConfiguration.from_configuration(config)
        return ProcessState(config, self.initial_memory(config))

    def choose(self, state: ProcessState) -> Action:
        return self.decide(state.chains, state.memory)

    def step(self, state: ProcessState, action: Fuse, outcome: str) -> ProcessState:
        chains, memory = state
        result = chains.fuse_at(action.a, action.b, outcome)
        return _new(ProcessState,
                    (result, self.next_memory(chains, memory, action, outcome, result)))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class IdentityAdapter(StatefulStrategy):
    """Run a stateless strategy in the identity picture.

    Ties among chains of the decided lengths go to the lowest indices,
    so event trees are reproducible.
    """

    def __init__(self, inner: Strategy):
        self.inner = inner
        self.name = inner.name

    def initial_memory(self, chains: IdentityConfiguration) -> Hashable:
        return None

    def decide(self, chains: IdentityConfiguration, memory: Hashable) -> Action:
        action = self.inner.decide(chains.to_configuration())
        if not isinstance(action, Fuse):
            return action
        return _lowest_indices(chains.chains, action.a, action.b)

    def next_memory(self, chains, memory, action, outcome, result) -> Hashable:
        return None


def _lowest_indices(chains: tuple[int, ...], a: int, b: int, offset: int = 0) -> Fuse:
    """Lowest chain indices realizing the length pair (a, b). A pair the
    chains lack raises :class:`InvalidFusionError` with the text
    :meth:`Configuration.fuse` gives it."""
    try:
        i = chains.index(a)
        j = chains.index(a, i + 1) if b == a else chains.index(b)
    except ValueError:
        raise InvalidFusionError(f"no chains of lengths ({a},{b}) in "
                                 f"{Configuration.from_lengths(chains)}") from None
    return Fuse(offset + i, offset + j)


class TwoStage(StatefulStrategy):
    """Block stage followed by rounds of insistent pairwise fusion.

    Stage one partitions the chain lineup into consecutive blocks of
    ``block_size`` chains (a final short block is allowed) and runs the
    inner strategy, a stateless one (a :class:`StatefulStrategy` raises
    ValueError), to completion inside each block; no fusion ever
    crosses a block boundary. Stage two repeatedly pairs the surviving
    chains (1st with 2nd, 3rd with 4th, ...) and fuses each pair
    insistently: after a failure that both partners survive, the same
    pair is retried. Once every pair of a round is resolved, survivors
    are renumbered in order and a new round starts, until at most one
    chain remains.

    With ``block_size=8`` and the smallest-first inner strategy this is
    the feed-forward-minimizing strategy whose yield grows linearly in
    the input size.

    The memory is ``("blocks", offset, size)`` in stage one: the running
    block starts at chain ``offset`` and holds ``size >= 2`` chains, the
    chains before it are finished blocks of at most one chain each, and
    those after it are untouched. A step lowers ``size`` by the chains it
    removed; below two, the next block starts at ``offset + size``. The
    future depends on that alone, so two paths that leave the same lineup
    and running block meet in one process state (``static`` walks 2,023
    states to validate the 508 configurations up to 14 edges, and 165,266
    for the quality sweep over 1 to 48 pairs). In stage two the memory is
    ``("pairs", pos)``, with ``pos`` the chains already resolved this
    round.
    """

    def __init__(self, block_size: int = 8, inner: Strategy | None = None, name: str | None = None):
        if not isinstance(block_size, numbers.Integral):
            raise ValueError(f"block_size must be an integer, got {block_size!r}")
        if block_size < 2:
            raise ValueError("block_size must be at least 2")
        if isinstance(inner, StatefulStrategy):
            raise ValueError(f"inner strategy {inner.name} is stateful; a block runs a "
                             "stateless one")
        self.block_size = block_size
        self.inner = inner if inner is not None else Modesty()
        self.name = name if name is not None else f"two-stage-{block_size}-{self.inner.name}"
        # The inner strategy is a fixed rule of the block's configuration,
        # so its Fuse is remembered per (offset, block lineup); the dict
        # holds one entry per pair reached.
        self._block_fuses: dict[tuple[int, tuple[int, ...]], Fuse] = {}

    def initial_memory(self, chains: IdentityConfiguration) -> Hashable:
        return self._block_at(0, chains.chain_count)

    def _block_at(self, offset: int, chain_count: int) -> Hashable:
        """The memory whose running block starts at chain ``offset`` of
        ``chain_count``; only the last block can be short, so stage two
        starts once it holds fewer than two chains."""
        size = min(self.block_size, chain_count - offset)
        return ("blocks", offset, size) if size >= 2 else _ROUND_START

    def decide(self, chains: IdentityConfiguration, memory: Hashable) -> Action:
        lineup = chains.chains
        if len(lineup) <= 1:
            return STOP
        if memory[0] != "blocks":
            pos = memory[1]
            return _fuse(pos, pos + 1)
        _, offset, size = memory
        # the decision depends on the block's lineup and offset alone
        key = (offset, lineup[offset:offset + size])
        fuse = self._block_fuses.get(key)
        if fuse is None:
            fuse = self._block_fuses[key] = self._block_fuse(*key)
        return fuse

    def _block_fuse(self, offset: int, block: tuple[int, ...]) -> Fuse:
        """The inner strategy's fusion inside ``block``, whose first chain
        is at ``offset``."""
        action = self.inner.decide(Configuration.from_lengths(block))
        if not isinstance(action, Fuse):
            raise ValueError(f"{self.name}: inner strategy {self.inner.name} returned "
                             f"{action!r} inside the block {block}")
        return _lowest_indices(block, action.a, action.b, offset)

    def blocks(self, config: Configuration) -> list[Configuration]:
        """The stage-one blocks of ``config``'s ascending lineup, in order."""
        lineup = IdentityConfiguration.from_configuration(config).chains
        size = self.block_size
        return [Configuration.from_lengths(lineup[i:i + size]) for i in range(0, len(lineup), size)]

    def next_memory(self, chains, memory, action, outcome, result) -> Hashable:
        """One step's memory update from the chains it removed: the
        running block loses them in stage one. In stage two the pair is
        resolved when one chain went (a merge, or one partner destroyed),
        retried when none did, and replaced by the next pair, which slides
        into ``pos``, when both did."""
        removed = len(chains.chains) - len(result.chains)
        if memory[0] == "blocks":
            _, offset, size = memory
            size -= removed
            if size >= 2:
                return ("blocks", offset, size)
            return self._block_at(offset + size, len(result.chains))
        pos = memory[1] + (removed == 1)
        if pos >= len(result.chains) - 1:
            pos = 0  # round over; survivors renumbered in order
        return ("pairs", pos)


_ROUND_START = ("pairs", 0)


GREED = Greed()
MODESTY = Modesty()
STATIC = TwoStage(block_size=8, inner=MODESTY, name="static")

BUILTIN_STRATEGIES: dict[str, Strategy | StatefulStrategy] = {
    "greed": GREED,
    "modesty": MODESTY,
    "static": STATIC,
}


class InvalidStrategy(ValueError):
    """``message`` names the validity rule a strategy broke at the state
    that the outcome string ``event`` reaches from ``start``."""

    def __init__(self, name: str, start, event: str, message: str):
        super().__init__(f"invalid strategy {name}: {message} at '{event}' from '{start}'")
        self.name, self.start, self.event, self.message = name, start, event, message

    def __reduce__(self):  # so that it crosses a process pool
        return type(self), (self.name, self.start, self.event, self.message)


def _bad_drop(drop: int) -> str:
    return (f"a step removed {drop} vertices; the fusion rule removes 1 on success, "
            "2 to 4 on failure")


class _Broken(Exception):
    """The validity rule ``message`` broken at a state, or with ``outcome``
    at its step; the gate raises it and its walker catches it."""

    def __init__(self, message: str, outcome: str = ""):
        super().__init__(message)
        self.message, self.outcome = message, outcome

    def invalid(self, strategy, start, event: str) -> InvalidStrategy:
        """The public error at the state ``event`` reaches from ``start``."""
        return InvalidStrategy(strategy.name, start.to_configuration(), event + self.outcome,
                               self.message)


def _decide(strategy: Strategy | StatefulStrategy, state) -> Action:
    """``strategy``'s action at ``state``, once it obeys the rules of a
    decision: ``choose`` raises neither KeyError nor ValueError, its
    action is a fusion or a stop, a stop leaves at most one chain, and a
    fusion has two chains to fuse.

    An :class:`InvalidFusionError` from ``choose`` is a pair the chains
    lack, as when :class:`IdentityAdapter` maps its inner strategy's
    lengths to indices: it breaks the rule that a plain state's step
    breaks for the same pair (:func:`_advance`), or, on one chain or
    none, the rule against fusing there that a plain state's decision
    breaks first."""
    try:
        action = strategy.choose(state)
    except KeyError as exc:
        raise _Broken(f"no decision available: {exc}") from exc
    except InvalidFusionError as exc:
        if state.chain_count <= 1:
            raise _Broken("fusion attempted on a terminal configuration") from exc
        raise _Broken(f"null fusion: {exc}") from exc
    except ValueError as exc:
        raise _Broken(f"invalid decision: {exc}") from exc
    chains = state.chain_count
    if isinstance(action, Stop):
        if chains > 1:
            raise _Broken(f"premature stop with {chains} chains")
    elif not isinstance(action, Fuse):
        raise _Broken(f"invalid decision: {action!r} is neither a fusion nor a stop")
    elif chains <= 1:
        raise _Broken("fusion attempted on a terminal configuration")
    return action


def _advance(strategy: Strategy | StatefulStrategy, state, action: Fuse, outcome: str,
             vertices: int):
    """``(after, drop)``: the state after ``action`` had ``outcome`` at
    ``state`` of ``vertices`` vertices, and the vertices it removed, once
    the step raises neither ValueError nor IndexError (a null fusion) and
    removes 1 vertex on success, 2 to 4 on failure. An
    :class:`InvalidFusionError`, chains the action names but the state
    lacks (a length pair it does not hold, or chain indices out of range
    or equal), is the decision's fault whatever the outcome, so it is
    reported at the decision's event."""
    try:
        after = strategy.step(state, action, outcome)
    except InvalidFusionError as exc:
        raise _Broken(f"null fusion: {exc}") from exc
    except (ValueError, IndexError) as exc:
        raise _Broken(f"null fusion: {exc}", outcome) from exc
    drop = vertices - after.vertex_count
    if not (drop == 1 if outcome == SUCCESS else 2 <= drop <= 4):
        raise _Broken(_bad_drop(drop), outcome)
    return after, drop


def validate_strategy(strategy: Strategy | StatefulStrategy,
                      start: Configuration) -> InvalidStrategy | None:
    """Walk the event tree from ``start`` and check validity: a one-start
    :func:`validate_strategy_sweep`."""
    return validate_strategy_sweep(strategy, [start])


def validate_strategy_sweep(strategy: Strategy | StatefulStrategy,
                            starts) -> InvalidStrategy | None:
    """Check validity from each start in turn: one float sweep of the
    exact evaluation (``exact._sweep``), its values dropped. Returns the
    :class:`InvalidStrategy` of the first start that breaks a rule, or
    None. A state in the sweep's shared memo obeyed every rule, and so
    did each state below it, so each start's error has the start, event
    and message of its own :func:`validate_strategy` call."""
    from .exact import _sweep  # exact imports this module

    try:
        _sweep(strategy, starts, 0.5)
    except InvalidStrategy as exc:
        return exc
    return None
