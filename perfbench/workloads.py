"""The three benchmark workloads.

Each workload builds its inputs from public ``repro`` functions and a
seed, runs fixed *passes* (the same list of queries, in the same order,
every pass) and checks every output outside the timed region. Calls
into the program go through module attributes (``tcd.window_tel``,
``otcd.otcd_query`` ...) so the tracer's wrappers see them.

A pass returns a list of ``(latency_s, output)``, one per query, in the
same order on every pass, so run.py can take each query's fastest
repetition.
"""
from __future__ import annotations

import dataclasses
import gc
import os
import shlex
import statistics
import subprocess
from bisect import bisect_left, bisect_right
from time import perf_counter

import pandas as pd
from repro.core import otcd, tcd
from repro.core.tel import TEL
from repro.datasets.temporal import DATASETS, burst_schedule, generate_pdf
from repro.experiments.queries import QuerySpec, selected_queries
from repro.phc import baseline, index
from repro.sparkdist import tcq

# The query plan of repro.experiments.queries.selected_queries, restated
# so the windows can be rebuilt for a reseeded spec through the public
# burst_schedule; at the default seeds the result is checked against
# selected_queries itself.
QUERY_PLAN = [
    ("collegemsg", 2, 3),
    ("email-eu", 3, 2),
    ("mathoverflow", 2, 1),
    ("stackoverflow", 2, 1),
]

# Table 3 result counts at the default seeds (EXPERIMENTS.md).
TABLE3_COUNTS = [28, 26, 35, 28, 29, 51, 35, 42, 35, 56] + [15] * 10


def spec_for(name: str, sf: float, seed: int | None):
    spec = DATASETS[name].scaled(sf)
    return spec if seed is None else dataclasses.replace(spec, seed=seed)


def _centred(qid: int, spec, name: str, k: int, span_days: int, center: int) -> QuerySpec:
    span = max(4, span_days * spec.ticks_per_day)
    Ts = max(1, center - span // 2)
    Te = min(spec.n_ticks, Ts + span - 1)
    Ts = max(1, Te - span + 1)
    return QuerySpec(qid=qid, dataset=name, Ts=Ts, Te=Te, k=k)


def select_queries(specs: dict) -> list[QuerySpec]:
    """Five windows per dataset on evenly spaced bursts, as selected_queries."""
    out: list[QuerySpec] = []
    for name, k, span_days in QUERY_PLAN:
        sched = burst_schedule(specs[name])
        sched = sched[sched["edges"] > 0].reset_index(drop=True)
        n = len(sched)
        for i in range(5):
            center = int(sched.iloc[min(i * max(1, n // 5), n - 1)]["center"])
            out.append(_centred(len(out) + 1, specs[name], name, k, span_days, center))
    return out


def median_queries(specs: dict, arrays: dict) -> list[QuerySpec]:
    """One Figure 7 window (same k and span) per dataset: of the windows
    centred on its bursts, the one holding the median number of edges.
    A query's cost follows the edges in its window, and the largest
    bursts are a few heavy draws, so picking by position (queries 1, 6,
    11 and 16) spread pass time 26-35% across seeds."""
    out: list[QuerySpec] = []
    for name, k, span_days in QUERY_PLAN:
        t = arrays[name][2]  # generate_pdf sorts by t
        sched = burst_schedule(specs[name])
        windows = sorted(
            (
                _centred(0, specs[name], name, k, span_days, int(c))
                for c in sched.loc[sched["edges"] > 0, "center"]
            ),
            key=lambda q: (bisect_right(t, q.Te) - bisect_left(t, q.Ts), q.Ts),
        )
        q = windows[len(windows) // 2]
        out.append(dataclasses.replace(q, qid=len(out) + 1))
    return out


class Workload:
    """Datasets at one scale, loaded several times in setup."""

    datasets: tuple[str, ...] = ()
    sf = 1.0
    spark_master = "none"
    # setup_s is the median over the repeats: at least min_setup_repeats,
    # more while they have taken under setup_budget_s (at most 25).
    min_setup_repeats = 5
    setup_budget_s = 2.0
    warmup_passes = 1  # checked but not timed

    def __init__(self, seed: int | None, tmp_dir: str) -> None:
        self.tmp_dir = tmp_dir
        self.specs = {n: spec_for(n, self.sf, seed) for n in self.datasets}
        self.default_seed = all(
            s.seed == DATASETS[n].seed for n, s in self.specs.items()
        )
        self.arrays: dict[str, tuple[list[int], list[int], list[int]]] = {}
        self.edges: dict[str, list[tuple[int, int, int]]] = {}
        self.errors: list[str] = []

    def setup(self) -> dict[str, float]:
        """Generate and cache every dataset; return per-layer set-up
        times (each the median over the repeats) and ``setup_s``."""
        runs: list[dict[str, float]] = []
        t0 = perf_counter()
        while len(runs) < self.min_setup_repeats or (
            perf_counter() - t0 < self.setup_budget_s and len(runs) < 25
        ):
            gc.collect()
            runs.append(self._load())
        out = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
        out["setup_s"] = statistics.median(sum(r.values()) for r in runs)
        self.array_lengths = {n: tuple(map(len, a)) for n, a in self.arrays.items()}
        return out

    def _load(self) -> dict[str, float]:
        # Drop the previous repeat's copy first, so peak RSS holds one.
        self.arrays.clear()
        self.edges.clear()
        gen = arr = 0.0
        for name, spec in self.specs.items():
            t0 = perf_counter()
            pdf = generate_pdf(spec)
            t1 = perf_counter()
            self.arrays[name] = (pdf["u"].tolist(), pdf["v"].tolist(), pdf["t"].tolist())
            self._cache(name)
            arr += perf_counter() - t1
            gen += t1 - t0
        return {"datasets.generate_s": gen, "datasets.edge_arrays_s": arr}

    def _cache(self, name: str) -> None:
        """Hook for workloads that cache more driver-side input per dataset."""

    def reference(self) -> None:
        """Untimed expected outputs for the checks."""

    def run_pass(self, tracer) -> list[tuple[float, object]]:
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        """``None`` if op ``i`` of a pass returned the right output."""
        raise NotImplementedError

    def n_cores(self, i: int, out) -> int:
        """Distinct cores op ``i``'s output ``out`` holds."""
        return len(out.cores)

    def arrays_unchanged(self) -> bool:
        """The cached arrays are shared by every query; a query that
        appended to them would change every later one."""
        return self.array_lengths == {
            n: tuple(map(len, a)) for n, a in self.arrays.items()
        }

    def close(self) -> None:
        pass


class Fig7Queries(Workload):
    """The 20 Table 3 queries end to end: window_tel + otcd_query."""

    datasets = ("collegemsg", "email-eu", "mathoverflow", "stackoverflow")

    def reference(self) -> None:
        self.queries = select_queries(self.specs)
        if self.default_seed and self.queries != selected_queries(sf=self.sf):
            self.errors.append("query selection differs from selected_queries")
        self.expected = []
        for q in self.queries:
            tel = tcd.window_tel(*self.arrays[q.dataset], q.Ts, q.Te)
            self.expected.append(tcd.tcd_query(tel, q.k, q.Ts, q.Te).ttis())

    def run_pass(self, tracer):
        ops = []
        for q in self.queries:
            t0 = perf_counter()
            tel = tcd.window_tel(*self.arrays[q.dataset], q.Ts, q.Te)
            res = otcd.otcd_query(tel, q.k, q.Ts, q.Te)
            ops.append((perf_counter() - t0, res))
        return ops

    def check(self, i, res):
        if res.ttis() != self.expected[i]:
            return f"q{i + 1}: OTCD TTIs differ from TCD"
        if self.default_seed and len(res.cores) != TABLE3_COUNTS[i]:
            return f"q{i + 1}: {len(res.cores)} cores, Table 3 has {TABLE3_COUNTS[i]}"
        return None


class Fig7Baselines(Workload):
    """tcd_query, build_phc_index and iphc_query at sf=0.1 on the
    median_queries windows, each checked against OTCD. Each of the three
    calls is timed as an operation of its own, so the shorter ones get
    their own fastest repetition."""

    datasets = ("collegemsg", "email-eu", "mathoverflow", "stackoverflow")
    sf = 0.1
    STEPS = ("TCD", "PHC build", "iPHC")

    def _cache(self, name):
        # The full edge list build_phc_index and iphc_query take (ids =
        # positions), cached like repro.experiments.tables.query_edges.
        self.edges[name] = list(zip(*self.arrays[name]))

    def reference(self) -> None:
        self.queries = median_queries(self.specs, self.arrays)
        self.expected = [
            otcd.otcd_query(
                tcd.window_tel(*self.arrays[q.dataset], q.Ts, q.Te), q.k, q.Ts, q.Te
            ).keys()
            for q in self.queries
        ]

    def run_pass(self, tracer):
        ops = []
        for q in self.queries:
            edges = self.edges[q.dataset]
            t0 = perf_counter()
            tel = tcd.window_tel(*self.arrays[q.dataset], q.Ts, q.Te)
            res_t = tcd.tcd_query(tel, q.k, q.Ts, q.Te)
            t1 = perf_counter()
            idx = index.build_phc_index(edges, q.k, q.Ts, q.Te)
            t2 = perf_counter()
            res_b = baseline.iphc_query(edges, idx, q.k, q.Ts, q.Te)
            t3 = perf_counter()
            ops += [(t1 - t0, res_t), (t2 - t1, idx), (t3 - t2, res_b)]
        return ops

    def n_cores(self, i, out):
        # Count each window's cores once, from its TCD result.
        return len(out.cores) if i % 3 == 0 else 0

    def check(self, i, out):
        q = self.queries[i // 3]
        step = self.STEPS[i % 3]
        if step == "PHC build":
            if sorted(out) != list(range(q.Ts, q.Te + 1)):
                return f"q{q.qid}: PHC index does not hold every anchor"
        elif out.keys() != self.expected[i // 3]:
            return f"q{q.qid}: {step} differs from OTCD"
        return None


class SparkTcq(Workload):
    """distributed_tcq_pdf on cached DataFrames for the median_queries
    windows at sf=0.1; TTIs must equal the driver OTCD's. The first pass after
    start-up pays for the Python worker launch and the JVM's JIT
    compilation (it ran ~40% slower than the third) and is not timed."""

    datasets = ("collegemsg", "email-eu", "mathoverflow", "stackoverflow")
    sf = 0.1
    min_setup_repeats = 3  # each repeat also caches four DataFrames (~1-2 s)
    setup_budget_s = 0.0
    CORES = 2
    SHUFFLE_PARTITIONS = 8

    def __init__(self, seed, tmp_dir):
        super().__init__(seed, tmp_dir)
        self.spark = None
        self.frames: dict = {}
        self.spark_master = f"local[{min(self.CORES, os.cpu_count() or 1)}]"

    def setup(self):
        t0 = perf_counter()
        self.spark = start_spark(self.spark_master, self.SHUFFLE_PARTITIONS, self.tmp_dir)
        session_s = perf_counter() - t0
        out = super().setup()
        out["setup_s"] += session_s
        return out

    def _load(self):
        out = super()._load()
        t0 = perf_counter()
        for name, (u, v, t) in self.arrays.items():
            old = self.frames.get(name)
            if old is not None:
                old.unpersist(blocking=True)
            df = self.spark.createDataFrame(pd.DataFrame({"u": u, "v": v, "t": t}))
            df = df.cache()
            df.count()
            self.frames[name] = df
        out["datasets.generate_spark_s"] = perf_counter() - t0
        return out

    def reference(self):
        """Driver OTCD TTIs, plus the work the Spark path does per query
        recomputed on the driver: the size of T^k_[Ts,Te] it peels to
        and the rows its per-anchor row sweeps emit before distinct."""
        self.queries = median_queries(self.specs, self.arrays)
        self.expected, self.core_edges, self.rows_emitted = [], [], []
        for q in self.queries:
            u, v, t = self.arrays[q.dataset]
            tel = tcd.window_tel(u, v, t, q.Ts, q.Te)
            self.expected.append(otcd.otcd_query(tel, q.k, q.Ts, q.Te).ttis())
            tcd.tcd_operation(tel, q.k, q.Ts, q.Te)
            self.core_edges.append(tel.n_edges)
            alive = sorted(tel.alive)
            core = ([u[e] for e in alive], [v[e] for e in alive], [t[e] for e in alive])
            self.rows_emitted.append(sum(
                len(tcd.row_sweep_distinct(TEL(*core), q.k, ts, q.Te))
                for ts in range(q.Ts, q.Te + 1)
            ))

    def run_pass(self, tracer):
        sc = self.spark.sparkContext
        ops = []
        for i, q in enumerate(self.queries):
            if tracer is not None:
                group = f"perfbench-{len(tracer.spans)}"
                sc.setJobGroup(group, group)
            t0 = perf_counter()
            pdf = tcq.distributed_tcq_pdf(self.spark, self.frames[q.dataset], q.k, q.Ts, q.Te)
            ops.append((perf_counter() - t0, set(zip(pdf["tti_s"], pdf["tti_e"]))))
            if tracer is not None:
                c = tracer.counters
                c["sparkdist.anchors"] += q.Te - q.Ts + 1
                c["sparkdist.core_edges"] += self.core_edges[i]
                c["sparkdist.rows_emitted"] += self.rows_emitted[i]
                c["sparkdist.cores"] += len(pdf)
                jobs, tasks = job_group_counts(sc, group)
                c["sparkdist.jobs"] += jobs
                c["sparkdist.tasks"] += tasks
        return ops

    def n_cores(self, i, ttis):
        return len(ttis)

    def check(self, i, ttis):
        if ttis != self.expected[i]:
            return f"q{self.queries[i].qid}: distributed TTIs differ from OTCD"
        return None

    def close(self):
        if self.spark is not None:
            stop_spark(self.spark)
            self.spark = None


def start_spark(master: str, partitions: int, tmp_dir: str):
    """A local SparkSession whose JVM and Python workers see ``src`` and
    keep their scratch files in ``tmp_dir``. The JVM is launched here, so
    its options are set in the environment first."""
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master", master,
        "--driver-memory", "1g",
        "--driver-java-options",
        shlex.quote(f"-XX:-UsePerfData -Djava.io.tmpdir={tmp_dir}"),
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(partitions))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.local.dir", tmp_dir)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and with it the Python
    workers it started) to exit."""
    sc = spark.sparkContext
    gateway = sc._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def job_group_counts(sc, group: str) -> tuple[int, int]:
    """Jobs and tasks Spark ran for one job group."""
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    tasks = 0
    for jid in jobs:
        info = tracker.getJobInfo(jid)
        for sid in info.stageIds if info else ():
            stage = tracker.getStageInfo(sid)
            if stage is not None:
                tasks += stage.numTasks
    return len(jobs), tasks


WORKLOADS = {
    "fig7-queries": Fig7Queries,
    "fig7-baselines": Fig7Baselines,
    "spark-tcq": SparkTcq,
}
