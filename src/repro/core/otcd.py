"""OTCD — TCD optimized with Tightest-Time-Interval pruning (paper §4).

The schedule of a TCQ instance is the triangular table of subintervals
``[ts, te]`` with ``Ts <= ts <= te <= Te`` (paper Figure 4), traversed
row-major: ``ts`` ascending, ``te`` descending within a row. Whenever a
core is induced, its TTI ``[ts', te']`` triggers up to three pruning
rules (Algorithm 3):

* **PoR** (``te' < te``): cells ``[ts, te-1] .. [ts, te']`` in the
  current row induce the same core (Lemma 2).
* **PoU** (``ts' > ts``): rows ``r in [ts+1, ts']`` share their cores
  with row ``ts`` for every column ``<= te`` (Lemmas 3-4), so cells
  ``[r, te] .. [r, r]`` are skipped.
* **PoL** (``ts' > ts`` and ``te' < te``): in rows ``r in [ts'+1, te']``
  the cells ``[r, te] .. [r, te'+1]`` equal the later cell ``[r, te']``
  (Lemma 5).

The traversal and the rules live in :func:`repro.core.tcd.sweep`, the
kernel TCD shares: pruned cells are kept per row as an
:class:`~repro.core.tcd.IntervalSet`, the sweep jumps straight to the
next unpruned column, and TCD's ability to jump across multiple columns
at once (Theorem 1) keeps the decremental chain valid. This module runs
it with pruning on and keeps one core per TTI (Equivalence, Property 2).
"""
from __future__ import annotations

from .records import CoreRecord, QueryResult, QueryStats
from .tcd import _collect, _within_span, sweep
from .tcd import tcd_operation  # noqa: F401  perfbench/tracing.py patches it here
from .tel import TEL


def otcd_query(
    graph: TEL,
    k: int,
    Ts: int,
    Te: int,
    *,
    materialize: bool = False,
    min_strength: int = 1,
    max_span: int | None = None,
    signatures: bool = True,
) -> QueryResult:
    """Answer TCQ(G, k, [Ts, Te]) with the optimized TCD algorithm.

    Returns every distinct temporal k-core exactly once (keyed by TTI)
    plus pruning statistics. ``graph`` is left untouched.
    ``signatures=False`` skips the O(|core|) edge-set signature per
    collected core (use for large full-span scans; TTIs still identify
    cores uniquely by Property 2).
    """
    span = Te - Ts + 1
    stats = QueryStats(cells_total=span * (span + 1) // 2)
    by_tti: dict[tuple[int, int], CoreRecord | None] = {}
    for ts, te, core in sweep(
        graph.copy(), k, range(Ts, Te + 1), Te, stats,
        prune=True, min_strength=min_strength,
    ):
        tti = core.get_tti()
        if tti not in by_tti:
            rec = _collect(core, ts, te, materialize=materialize, signatures=signatures)
            # None: seen, but filtered out by the span constraint.
            by_tti[tti] = rec if _within_span(rec, max_span) else None
    res = QueryResult(cores=[r for r in by_tti.values() if r is not None], stats=stats)
    stats.cores_collected = len(res.cores)
    return res
