"""PHC-Index — the precomputed core-time index the baseline relies on.

The index of [36] stores, for each vertex, coreness and anchor start
time ``ts``, the *core time*: the smallest end time ``te`` such that
the vertex's coreness in ``G_[ts,te]`` reaches ``k``. Vertex ``v``
then belongs to the historical k-core of ``[ts, te]`` iff
``core_time(v, ts) <= te``.

We build the index for the queried ``k`` and every anchor
``ts in [Ts, Te]`` by running one decremental TEL row sweep per anchor
(sweeping ``te`` from ``Te`` down; the step at which a vertex drops out
of the core is exactly its core time). Restricting construction to the
query's ``k`` and range strictly *favours* the baseline relative to the
paper's full offline index — documented in DESIGN.md. A Spark-parallel
builder over anchors lives in ``repro.sparkdist.phc``.
"""
from __future__ import annotations

from typing import Sequence

from ..core.tcd import tcd_operation, window_tel
from ..core.tel import TEL

Edge = tuple[int, int, int]

# index type: anchor ts -> {vertex -> core time}
PHCIndex = dict[int, dict[int, int]]


def core_times_for_anchor(
    graph: TEL, k: int, ts: int, Te: int
) -> dict[int, int]:
    """Core time of every vertex for anchor ``ts`` (absent = never in
    the k-core within ``[ts, Te]``). One decremental row sweep."""
    row = graph.copy()
    tcd_operation(row, k, ts, Te)
    ct: dict[int, int] = {}
    # Vertices present at [ts, te] have core time <= te; the final value
    # is the last te at which they were still present.
    prev = set(row.deg)
    for v in prev:
        ct[v] = Te
    for te in range(Te - 1, ts - 1, -1):
        if row.is_empty():
            break
        tcd_operation(row, k, ts, te)
        cur = set(row.deg)
        for v in cur:
            ct[v] = te
        prev = cur
    return ct


def build_phc_index(
    edges: Sequence[Edge], k: int, Ts: int, Te: int
) -> PHCIndex:
    """Core times for every anchor ``ts in [Ts, Te]`` at coreness ``k``.

    Only the ``[Ts, Te]`` window of ``edges`` is built (edge ids stay
    positions); each anchor then runs an independent row sweep (this is
    the offline precomputation whose cost the paper's Figure 7 excludes
    from baseline response time).
    """
    us, vs, tts = tuple(map(list, zip(*edges))) or ([], [], [])
    base = window_tel(us, vs, tts, Ts, Te)
    index: PHCIndex = {}
    for ts in range(Ts, Te + 1):
        index[ts] = core_times_for_anchor(base, k, ts, Te)
    return index
