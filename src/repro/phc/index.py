"""PHC-Index — the precomputed core-time index the baseline relies on.

The index of [36] stores, for each vertex, coreness and anchor start
time ``ts``, the *core time*: the smallest end time ``te`` such that
the vertex's coreness in ``G_[ts,te]`` reaches ``k``. Vertex ``v``
then belongs to the historical k-core of ``[ts, te]`` iff
``core_time(v, ts) <= te``.

We build the index for the queried ``k`` and every anchor
``ts in [Ts, Te]`` with one unpruned run of the row-sweep kernel
(:func:`repro.core.tcd.sweep`): the chain advances across anchors and
each row sweeps ``te`` from ``Te`` down, so the last ``te`` at which a
vertex is still in the core is exactly its core time. Restricting
construction to the query's ``k`` and range strictly *favours* the
baseline relative to the paper's full offline index — documented in
DESIGN.md. A Spark-parallel builder over anchors lives in
``repro.sparkdist.phc``.
"""
from __future__ import annotations

from typing import Sequence

from ..core.records import QueryStats
from ..core.tcd import sweep, window_tel
from ..core.tcd import tcd_operation  # noqa: F401  perfbench/tracing.py patches it here
from ..core.tel import TEL

Edge = tuple[int, int, int]

# index type: anchor ts -> {vertex -> core time}
PHCIndex = dict[int, dict[int, int]]


def _core_times(graph: TEL, k: int, anchors: range, Te: int) -> PHCIndex:
    """Core times for every anchor row in ``anchors``; consumes ``graph``."""
    index: PHCIndex = {ts: {} for ts in anchors}
    for ts, te, core in sweep(graph, k, anchors, Te, QueryStats(), prune=False):
        index[ts].update(dict.fromkeys(core.deg, te))
    return index


def core_times_for_anchor(
    graph: TEL, k: int, ts: int, Te: int
) -> dict[int, int]:
    """Core time of every vertex for anchor ``ts`` (absent = never in
    the k-core within ``[ts, Te]``). One decremental row sweep; consumes
    ``graph`` (callers pass a fresh TEL)."""
    return _core_times(graph, k, range(ts, ts + 1), Te)[ts]


def build_phc_index(
    edges: Sequence[Edge], k: int, Ts: int, Te: int
) -> PHCIndex:
    """Core times for every anchor ``ts in [Ts, Te]`` at coreness ``k``.

    Only the ``[Ts, Te]`` window of ``edges`` is built (edge ids stay
    positions); one sweep then covers every anchor row (this is the
    offline precomputation whose cost the paper's Figure 7 excludes
    from baseline response time).
    """
    us, vs, tts = tuple(map(list, zip(*edges))) or ([], [], [])
    return _core_times(window_tel(us, vs, tts, Ts, Te), k, range(Ts, Te + 1), Te)
