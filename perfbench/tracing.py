"""Per-layer spans recorded from outside the program.

The tracer wraps public functions of ``repro`` at the names callers look
them up by (a function imported by name into another module is wrapped
in that module too), keeps every span in memory and derives per-layer
busy time, self time and counters from them at the end. Nothing under
``src/`` knows about it; ``install`` returns a callable that restores
every wrapped name.

A span is ``(name, parent, alg, t0, t1)``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``alg`` the nearest enclosing
algorithm span (``otcd.query``, ``tcd.tcd_query``, ``phc.build``,
``phc.iphc``), so counters can be attributed to the query that caused
them.
"""
from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter
from typing import Callable

ALGORITHMS = ("otcd.query", "tcd.tcd_query", "phc.build", "phc.iphc")


class Tracer:
    """In-memory span store plus counters keyed by metric name."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.peak_edges = 0
        self._stack: list[int] = []
        self._alg: list[str] = [""]

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        self._alg.append(name if name in ALGORITHMS else self._alg[-1])
        return sid

    def end(self, sid: int, name: str, t0: float) -> None:
        t1 = perf_counter()
        self._stack.pop()
        alg = self._alg.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (name, parent, alg, t0, t1)

    def see_edges(self, n: int) -> None:
        if n > self.peak_edges:
            self.peak_edges = n

    # -- derived views -----------------------------------------------------

    def closed(self) -> list[tuple]:
        return [s for s in self.spans if s is not None]

    def by_name(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "busy_s", "self_s"}}`` over all closed spans."""
        spans = self.closed()
        child = [0.0] * len(self.spans)
        for s in spans:
            if s[1] >= 0:
                child[s[1]] += s[4] - s[3]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for i, s in enumerate(self.spans):
            if s is None:
                continue
            d = out[s[0]]
            d["calls"] += 1
            d["busy_s"] += s[4] - s[3]
            d["self_s"] += s[4] - s[3] - child[i]
        return out

    def count_under(self, name: str, algs: tuple[str, ...]) -> int:
        """Spans called ``name`` whose nearest algorithm span is in ``algs``."""
        return sum(1 for s in self.closed() if s[0] == name and s[2] in algs)

    def self_total(self) -> float:
        """Sum of every span's self time (equals the top-level spans'
        total duration when spans nest properly)."""
        return sum(d["self_s"] for d in self.by_name().values())


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the program's layer boundaries; return the undo callable."""
    from repro.core import otcd, tcd
    from repro.core.tel import TEL
    from repro.phc import baseline, index
    from repro.sparkdist import decomposition, tcq

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, wrapper) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def spanned(name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.begin(name)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(sid, name, t0)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    c = tracer.counters

    def after_window(args, tel) -> None:
        c["tcd.window_tel.edges_scanned"] += len(args[2])
        c["tcd.window_tel.edges_kept"] += tel.n_edges
        tracer.see_edges(tel.n_edges)

    def after_query(prefix: str):
        def after(args, res) -> None:
            s = res.stats
            c[f"{prefix}.cells_total"] += s.cells_total
            c[f"{prefix}.cells_evaluated"] += s.cells_evaluated
            c[f"{prefix}.rows_started"] += s.rows_started
            c[f"{prefix}.pruned"] += s.pruned_total()
            c[f"{prefix}.cores"] += len(res.cores)

        return after

    def after_phc(args, idx) -> None:
        c["phc.anchors"] += len(idx)
        c["phc.index_entries"] += sum(len(ct) for ct in idx.values())

    # TEL.del_edge is deliberately not wrapped (tens of millions of calls
    # on a long scan); deleted edges are derived from n_edges deltas.
    op = tcd.tcd_operation

    @functools.wraps(op)
    def tcd_op(tel, *args, **kwargs):
        before = tel.n_edges
        sid = tracer.begin("tcd.op")
        t0 = perf_counter()
        try:
            return op(tel, *args, **kwargs)
        finally:
            tracer.end(sid, "tcd.op", t0)
            c["tcd.op.edges_deleted"] += before - tel.n_edges

    for mod in (tcd, otcd, index):
        patch(mod, "tcd_operation", tcd_op)

    init, copy = TEL.__init__, TEL.copy
    in_copy = [False]

    @functools.wraps(init)
    def tel_init(self, *args, **kwargs):
        # A copy's rebuild belongs to the copy span, not to tel.build.
        if in_copy[0]:
            init(self, *args, **kwargs)
            return
        sid = tracer.begin("tel.build")
        t0 = perf_counter()
        try:
            init(self, *args, **kwargs)
        finally:
            tracer.end(sid, "tel.build", t0)
        tracer.see_edges(self.n_edges)

    @functools.wraps(copy)
    def tel_copy(self):
        sid = tracer.begin("tel.copy")
        t0 = perf_counter()
        in_copy[0] = True
        try:
            out = copy(self)
        finally:
            in_copy[0] = False
            tracer.end(sid, "tel.copy", t0)
        c["tel.copy.edges"] += out.n_edges
        tracer.see_edges(out.n_edges)
        return out

    patch(TEL, "__init__", tel_init)
    patch(TEL, "copy", tel_copy)

    patch(tcd, "window_tel", spanned("tcd.window_tel", tcd.window_tel, after_window))
    patch(otcd, "otcd_query", spanned("otcd.query", otcd.otcd_query, after_query("otcd")))
    patch(tcd, "tcd_query", spanned("tcd.tcd_query", tcd.tcd_query, after_query("tcd.tcd_query")))
    patch(index, "build_phc_index", spanned("phc.build", index.build_phc_index, after_phc))
    patch(baseline, "iphc_query", spanned("phc.iphc", baseline.iphc_query, after_query("phc.iphc")))
    patch(tcq, "temporal_kcore_df", spanned("sparkdist.peel", tcq.temporal_kcore_df))
    patch(tcq, "distributed_tcq_pdf", spanned("sparkdist.tcq", tcq.distributed_tcq_pdf))
    patch(decomposition, "degrees", spanned("sparkdist.degrees", decomposition.degrees))

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo
