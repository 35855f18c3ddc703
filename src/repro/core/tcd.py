"""TCD — Temporal Core Decomposition (paper §3, Algorithms 2 and 4) and
the one row-sweep kernel every TCQ algorithm here runs on.

``tcd_operation`` mutates a TEL in place: *truncation* drops timeline
nodes outside ``[ts, te]`` from both ends, then *decomposition* peels
vertices with fewer than ``k`` distinct neighbours. By Theorem 1 it may
be applied to any temporal k-core whose interval contains ``[ts, te]``,
which is what makes the decremental row sweep of Algorithm 2 correct.
Such an instance is a k-core already, so decomposition peels from the
TEL's sub-``k`` worklist and scans every degree only for an instance
not yet known to be a core at ``k`` (a fresh window, or a larger ``k``).

``window_tel`` cuts ``TEL(G_[ts,te])`` out of the time-sorted dataset
arrays by bisection, so a query costs its window, not the dataset.

``sweep`` is the one row-sweep kernel: the schedule of subintervals
row-major (``ts`` ascending, ``te`` descending) with the paper's two
instances (§5.2), a row-start chain and one row copy, and the TTI
pruning of Algorithm 3 when asked. ``tcd_query`` (Algorithm 2),
``otcd_query``, ``row_sweep_distinct`` (the Spark per-anchor task) and
the PHC-Index build all consume it.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from typing import Iterator

from .records import CoreRecord, QueryResult, QueryStats
from .tel import TEL


def tcd_operation(
    tel: TEL,
    k: int,
    ts: int,
    te: int,
    *,
    min_strength: int = 1,
) -> TEL:
    """Induce ``T^k_[ts,te]`` in place from the graph held by ``tel``.

    ``min_strength`` implements the link-strength extension (paper
    §6.2): a vertex pair counts as adjacent only while it retains at
    least that many parallel edges; pairs that fall below the bound
    lose all their remaining edges. ``min_strength=1`` is plain TCQ.
    """
    # -- truncation: walk the timeline from the head up to ts ...
    t = tel.head_t
    while t is not None and t < ts:
        bucket = tel.tl[t]
        for e in list(bucket):
            tel.del_edge(e, from_tl=False)
        bucket.clear()
        nxt = tel.next_t.get(t)
        tel._del_tl_node(t)
        t = nxt
    # ... and from the tail down to te.
    t = tel.tail_t
    while t is not None and t > te:
        bucket = tel.tl[t]
        for e in list(bucket):
            tel.del_edge(e, from_tl=False)
        bucket.clear()
        prv = tel.prev_t.get(t)
        tel._del_tl_node(t)
        t = prv

    if min_strength > 1:
        _enforce_strength(tel, min_strength)

    # -- decomposition: peel vertices with degree < k from the worklist.
    deg, low = tel.deg, tel.low
    if k > tel.kcore:
        low[:] = [v for v, d in deg.items() if d < k]
    tel.kcore = k
    while low:
        v = low.pop()
        if deg.get(v, k) >= k:
            continue  # still >= k, or gone already
        for e in tel.incident_edges(v):
            if e in tel.alive:
                tel.del_edge(e)
        if min_strength > 1:
            _enforce_strength(tel, min_strength)
    return tel


def _enforce_strength(tel: TEL, min_strength: int) -> None:
    """Drop every vertex pair whose parallel-edge count sank below the
    link-strength bound, cascading until no weak pair remains."""
    while True:
        weak = [
            (a, b)
            for a, c in tel.nbr.items()
            for b, m in c.items()
            if m < min_strength and a < b
        ]
        if not weak:
            return
        for a, b in weak:
            for e in list(tel.sl.get(a, ())) + list(tel.dl.get(a, ())):
                if e in tel.alive and (
                    (tel.edge_u[e] == a and tel.edge_v[e] == b)
                    or (tel.edge_u[e] == b and tel.edge_v[e] == a)
                ):
                    tel.del_edge(e)


def window_tel(
    edge_u: list[int],
    edge_v: list[int],
    edge_t: list[int],
    ts: int,
    te: int,
) -> TEL:
    """``TEL(G_[ts,te])`` built directly from the full edge arrays,
    keeping *global* edge ids so signatures stay comparable across
    algorithms (paper §5.2: queries start from a truncated copy of
    TEL(G); building only the window is the same object for less work).

    On a time-sorted ``edge_t`` list (as ``generate_pdf`` and
    ``edge_arrays`` give) the window is the id range found by bisection;
    anything else falls back to a scan. Sortedness is checked on every
    call, at C speed, because the list may have been changed since.
    """
    if sorted(edge_t) == edge_t:
        eids = range(bisect_left(edge_t, ts), bisect_right(edge_t, te))
    else:
        eids = [e for e, t in enumerate(edge_t) if ts <= t <= te]
    return TEL(edge_u, edge_v, edge_t, eids=eids)


class IntervalSet:
    """Sorted disjoint integer intervals with merge-on-add: the pruned
    cells of one schedule row.

    Rows hold only a handful of intervals in practice, so list + bisect
    is both simple and fast enough.
    """

    __slots__ = ("_iv",)

    def __init__(self) -> None:
        self._iv: list[tuple[int, int]] = []

    def add(self, lo: int, hi: int) -> int:
        """Cover ``[lo, hi]``; return how many integers were newly covered."""
        if lo > hi:
            return 0
        iv = self._iv
        i = bisect_left(iv, (lo, -1))
        # Step back if the previous interval overlaps/abuts lo.
        if i > 0 and iv[i - 1][1] >= lo - 1:
            i -= 1
        new_lo, new_hi = lo, hi
        newly = hi - lo + 1
        j = i
        while j < len(iv) and iv[j][0] <= new_hi + 1:
            a, b = iv[j]
            overlap = min(b, hi) - max(a, lo) + 1
            if overlap > 0:
                newly -= overlap
            new_lo = min(new_lo, a)
            new_hi = max(new_hi, b)
            j += 1
        iv[i:j] = [(new_lo, new_hi)]
        return newly

    def covers(self, x: int) -> bool:
        iv = self._iv
        i = bisect_left(iv, (x + 1, -1)) - 1
        return i >= 0 and iv[i][0] <= x <= iv[i][1]

    def next_uncovered_leq(self, x: int, floor: int) -> int | None:
        """Largest ``c <= x`` with ``c >= floor`` not covered, else None."""
        c = x
        iv = self._iv
        while c >= floor:
            i = bisect_left(iv, (c + 1, -1)) - 1
            if i >= 0 and iv[i][0] <= c <= iv[i][1]:
                c = iv[i][0] - 1
            else:
                return c
        return None

    def count_uncovered(self, lo: int, hi: int) -> int:
        """How many integers in ``[lo, hi]`` are not covered."""
        if lo > hi:
            return 0
        total = hi - lo + 1
        for a, b in self._iv:
            overlap = min(b, hi) - max(a, lo) + 1
            if overlap > 0:
                total -= overlap
        return total

    def intervals(self) -> list[tuple[int, int]]:
        return list(self._iv)


def _apply_pruning(
    ts: int,
    te: int,
    tti: tuple[int, int],
    pruned: dict[int, IntervalSet],
    stats: QueryStats,
    last: int,
) -> None:
    """Algorithm 3 on the trigger cell ``[ts, te]`` with TTI ``tti``;
    rows past the last anchor row ``last`` are never marked."""
    ts_p, te_p = tti
    if te_p < te:  # Rule 1: PoR — cells [ts, te-1] .. [ts, te'].
        stats.por_triggers += 1
        stats.por_pruned += pruned[ts].add(te_p, te - 1)
    if ts_p > ts:  # Rule 2: PoU — rows ts+1..ts', columns te .. r.
        stats.pou_triggers += 1
        n = 0
        for r in range(ts + 1, min(ts_p, last) + 1):
            n += pruned[r].add(r, te)
        stats.pou_pruned += n
    if ts_p > ts and te_p < te:  # Rule 3: PoL — rows ts'+1..te', cols te'+1..te.
        stats.pol_triggers += 1
        n = 0
        for r in range(ts_p + 1, min(te_p, last) + 1):
            n += pruned[r].add(te_p + 1, te)
        stats.pol_pruned += n


def sweep(
    graph: TEL,
    k: int,
    anchors: range,
    Te: int,
    stats: QueryStats,
    *,
    prune: bool,
    min_strength: int = 1,
) -> Iterator[tuple[int, int, TEL]]:
    """Yield ``(ts, te, core)`` for every evaluated cell of the anchor
    rows ``anchors`` whose core ``T^k_[ts,te]`` is non-empty, in
    schedule order.

    ``graph`` becomes the row-start chain and is consumed: it must hold
    a temporal k-core, or the TEL of a window, containing
    ``[anchors[0], Te]`` (Theorem 1). ``core`` is the live row instance,
    to be read before the generator resumes. With ``prune``, PoR, PoU
    and PoL skip cells (PoU and PoL only mark rows inside ``anchors``);
    without it every cell down to the row's first empty one is
    evaluated. Work is counted into ``stats``.
    """
    if k < 1 or min_strength < 1:
        raise ValueError(f"need k >= 1 and min_strength >= 1, got {k}, {min_strength}")
    if not anchors or anchors[-1] > Te:
        raise ValueError(f"need Ts <= Te, got anchors {anchors} and Te {Te}")
    pruned: dict[int, IntervalSet] = defaultdict(IntervalSet)
    for ts in anchors:
        prow = pruned[ts]
        te = prow.next_uncovered_leq(Te, ts)
        if te is None:
            continue  # row fully pruned
        # Advance the chain to [ts, Te] (jumps over pruned rows).
        tcd_operation(graph, k, ts, Te, min_strength=min_strength)
        stats.cells_evaluated += 1
        if graph.is_empty():
            return  # T^k_[ts,Te] empty ⇒ all remaining rows empty too
        stats.rows_started += 1
        row = graph.copy()
        while te is not None:
            if te < Te:  # at Te the row already is the chain's core
                tcd_operation(row, k, ts, te, min_strength=min_strength)
                stats.cells_evaluated += 1
                if row.is_empty():
                    if prune:
                        stats.empty_skipped += prow.count_uncovered(ts, te - 1)
                    break
            yield ts, te, row
            if prune:
                _apply_pruning(ts, te, row.get_tti(), pruned, stats, anchors[-1])
            te = prow.next_uncovered_leq(te - 1, ts)


def row_sweep_distinct(
    tel: TEL, k: int, ts: int, Te: int
) -> list[tuple[int, int, int, int, int]]:
    """One anchor row of the schedule with PoR jumping: emit one record
    ``(te, tti_s, tti_e, n_vertices, n_edges)`` per distinct core in row
    ``ts``. Consumes ``tel`` (callers pass a fresh TEL). This is the
    per-task kernel of the distributed TCQ (rows are independent by
    Theorem 1; cross-row duplicates are removed by a distinct-by-TTI
    reduction, correct by Property 2).
    """
    return [
        (te, *core.get_tti(), core.n_vertices(), core.n_edges)
        for _, te, core in sweep(tel, k, range(ts, ts + 1), Te, QueryStats(), prune=True)
    ]


def _collect(
    tel: TEL, ts: int, te: int, *, materialize: bool, signatures: bool = True
) -> CoreRecord:
    # Signatures/edge lists copy O(|core|) per collected core — exact
    # identities for tests and result export. Large scans (Table 6's
    # full-span query collects tens of thousands of cores) disable them
    # and rely on TTI identity (Property 2).
    tti = tel.get_tti()
    assert tti is not None
    return CoreRecord(
        ts=ts,
        te=te,
        tti=tti,
        n_vertices=tel.n_vertices(),
        n_edges=tel.n_edges,
        signature=tel.signature() if signatures else frozenset(),
        edges=tuple(tel.edges()) if materialize else None,
    )


def _within_span(rec: CoreRecord, max_span: int | None) -> bool:
    """Time-span extension (§6.2): is the core's TTI at most ``max_span``
    ticks long (``None``: no bound)?"""
    return max_span is None or rec.tti[1] - rec.tti[0] + 1 <= max_span


def tcd_query(
    graph: TEL,
    k: int,
    Ts: int,
    Te: int,
    *,
    materialize: bool = False,
    min_strength: int = 1,
    max_span: int | None = None,
) -> QueryResult:
    """Algorithm 2: answer TCQ(G, k, [Ts, Te]) with plain TCD, keeping a
    core when its edge set has not been seen before.

    ``graph`` is not modified (the sweep works on copies, mirroring the
    paper's "copy of TEL(G_[Ts,Te])"). ``max_span`` filters results by
    TTI span (time-span extension, §6.2) without affecting enumeration.
    """
    span = Te - Ts + 1
    res = QueryResult(stats=QueryStats(cells_total=span * (span + 1) // 2))
    seen: set[frozenset[int]] = set()
    for ts, te, core in sweep(
        graph.copy(), k, range(Ts, Te + 1), Te, res.stats,
        prune=False, min_strength=min_strength,
    ):
        sig = core.signature()
        if sig not in seen:
            seen.add(sig)
            rec = _collect(core, ts, te, materialize=materialize)
            if _within_span(rec, max_span):
                res.cores.append(rec)
    res.stats.cores_collected = len(res.cores)
    return res
