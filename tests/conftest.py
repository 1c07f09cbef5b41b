"""Fixtures shared by the tests of the builders that pause the cyclic
collector (``exact._collector_paused``), a plain walk of a strategy's
event DAG, and the exact final-length distribution pushed through it."""

import contextlib
import gc
import os
import sys

import pytest

import cluster_forge
from cluster_forge.exact import _expand

PACKAGE_DIR = os.path.dirname(cluster_forge.__file__) + os.sep


@pytest.fixture
def gc_collections():
    """A context manager whose block runs with the collector on, from a
    fresh ``gc.collect()``, and which yields the generations of the
    collections run while code of the ``cluster_forge`` package was on
    the stack. A builder that left the collector on would run a
    generation-0 collection every 700 net allocations of tracked
    objects. Not counted is the collection that may run as a pause ends:
    it runs in :mod:`contextlib`, right after the collector is switched
    back on, when the builder's work is done."""
    @contextlib.contextmanager
    def record():
        assert gc.isenabled(), "a collection can only be seen with the collector on"
        gc.collect()
        generations: list[int] = []

        def callback(phase, info):
            if phase != "start":
                return
            frame = sys._getframe(1)
            if frame.f_code.co_filename == contextlib.__file__:
                return
            while frame is not None:
                if frame.f_code.co_filename.startswith(PACKAGE_DIR):
                    generations.append(info["generation"])
                    return
                frame = frame.f_back

        gc.callbacks.append(callback)
        try:
            yield generations
        finally:
            gc.callbacks.remove(callback)

    return record


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector_state(request):
    """The collector is switched on or off for the test, and switched back
    to how it was afterwards; the fixture's value is the state set."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def event_dag(strategy, root) -> set:
    """Every state of ``strategy``'s event DAG from the process state
    ``root``: a plain depth-first walk with ``exact._expand``, whose
    broken validity rule raises ``strategies._Broken``."""
    dag = {root}
    stack = [root]
    while stack:
        state = stack.pop()
        node = _expand(strategy, state, state.vertex_count)
        if node is None:
            continue
        succ, _, fail = node
        for child in (succ, fail):
            if child not in dag:
                dag.add(child)
                stack.append(child)
    return dag


def final_length_distribution(strategy, root, ps) -> dict:
    """The exact probability of each final total length of ``strategy``
    from the process state ``root`` at success probability ``ps``. The
    states of :func:`event_dag` are taken in decreasing vertex count, an
    order in which each state comes after every state that steps to it,
    since every step removes a vertex; each pushes its probability mass
    to its two children, or at a stop adds it to its total length."""
    mass = {root: 1}
    lengths: dict = {}
    for state in sorted(event_dag(strategy, root), key=lambda state: -state.vertex_count):
        weight = mass.pop(state, 0)
        node = _expand(strategy, state, state.vertex_count)
        if node is None:
            lengths[state.total_length] = lengths.get(state.total_length, 0) + weight
            continue
        succ, _, fail = node
        mass[succ] = mass.get(succ, 0) + weight * ps
        mass[fail] = mass.get(fail, 0) + weight * (1 - ps)
    return {length: weight for length, weight in lengths.items() if weight}
