"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig7-queries [--seed N]
                             [--seconds S] [--trace 0|1]

A workload runs its warm-up passes, then whole passes as a closed loop
from one process until ``--seconds`` of timed passes have accumulated.
Every query is timed at its fastest repetition in the run. It checks
every output and prints the metrics named in BENCHMARK.json, one per
line, then one JSON line ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run spends half its time untraced and half traced and reports the
per-layer ones (see README.md). ``--seed`` reseeds every dataset; without
it each dataset keeps its own seed and the pinned outputs are checked too.
The full record (environment, every metric, check failures) goes to
``perfbench/results/``. Exits 1 if any check fails. ``--workload all``
runs every workload, each in its own process.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MIN_PASSES = 3  # timed passes per run, whatever --seconds says


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def git_sha() -> str:
    """HEAD's commit, read from .git without running git ("unknown" in a
    plain checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    """sha256 over the program's sources, to tell versions apart where
    there is no git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, master: str) -> dict:
    mem = "unknown"
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem = line.split(":", 1)[1].strip()
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "mem_total": mem,
        "python": platform.python_version(),
        "pyspark": importlib.metadata.version("pyspark"),
        "seed": "dataset default" if args.seed is None else args.seed,
        "spark_master": master,
    }


def measure(wl, seconds: float, warm: int, tracer=None) -> dict:
    """``warm`` untimed passes, then whole passes until ``seconds`` of
    timed pass time (at least ``MIN_PASSES``). Checks run between
    passes, outside the timed region and with tracing off."""
    passes: list[dict] = []
    attempted = failed = 0
    errors: list[str] = []
    while warm > 0 or len(passes) < MIN_PASSES or sum(p["wall"] for p in passes) < seconds:
        gc.collect()  # no pass pays for the garbage of the one before
        undo = tracing.install(tracer) if tracer is not None else None
        sid = tracer.begin("bench.pass") if tracer is not None else None
        t0 = perf_counter()
        try:
            ops = wl.run_pass(tracer)
        except Exception as exc:  # a failed pass is reported, not raised
            errors.append(f"pass raised {type(exc).__name__}: {exc}")
            attempted += 1
            failed += 1
            break
        finally:
            wall = perf_counter() - t0
            if tracer is not None:
                tracer.end(sid, "bench.pass", t0)
                undo()
        if warm > 0:
            warm -= 1
        else:
            passes.append({"wall": wall, "lat": [lat for lat, _ in ops],
                           "cores": sum(wl.n_cores(i, out) for i, (_, out) in enumerate(ops))})
        for i, (_, out) in enumerate(ops):
            attempted += 1
            err = wl.check(i, out)
            if err is not None:
                failed += 1
                errors.append(err)
        del ops
    return {"passes": passes, "attempted": attempted, "failed": failed, "errors": errors}


def best_latencies(m: dict) -> list[float]:
    """Each query's fastest repetition over the run's timed passes.

    Other tenants of a shared host only ever add time, in stretches of
    seconds: a fixed 30 ms loop on a shared 4-vCPU VM took 20-40 ms,
    and the medians of its 8-second windows spread 15% (IQR over
    median). A query repeated in every pass has its fastest repetition
    in the quietest stretch of the run, whichever that is."""
    if not m["passes"]:
        return []
    return [min(lat) for lat in zip(*(p["lat"] for p in m["passes"]))]


def end_to_end(setup: dict, m: dict) -> dict:
    best = best_latencies(m)
    wall = sum(best)
    return {
        "setup_s": setup["setup_s"],
        "queries_per_s": len(best) / wall if wall else 0.0,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
    }


def reset_peak_rss() -> None:
    """Start the RSS high-water mark afresh (Linux 4.0 and later), so
    ``peak_rss_mb`` covers the cached inputs plus the queries' own
    memory, not the set-up repeats."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """RSS high-water mark since ``reset_peak_rss`` (the process's, where
    that could not be reset)."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def query_p50_ms(m: dict) -> float:
    """Median over the pass's queries of their fastest repetition."""
    best = best_latencies(m)
    return 1000 * statistics.median(best) if best else 0.0


def cores_per_s(m: dict) -> float:
    """Distinct cores a pass returns per second of ``wall_s``."""
    wall = sum(best_latencies(m))
    return m["passes"][0]["cores"] / wall if wall else 0.0


def p90(lat: list[float]) -> dict | None:
    """p90 latency, only when at least ten samples lie beyond it."""
    if len(lat) < 2:
        return None
    cut = statistics.quantiles(lat, n=10)[8]
    beyond = sum(1 for x in lat if x > cut)
    if beyond < 10:
        return None
    return {"value": 1000 * cut, "unit": "ms", "samples": len(lat), "beyond": beyond}


def per_layer(setup: dict, tracer, traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of the traced passes, per pass."""
    passes = len(traced["passes"]) or 1
    spans = tracer.by_name()
    c = tracer.counters

    def calls(name):
        return spans[name]["calls"] / passes

    def busy(name):
        return 1000 * spans[name]["busy_s"] / passes

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "datasets.generate_s": setup.get("datasets.generate_s", 0.0),
        "datasets.edge_arrays_s": setup.get("datasets.edge_arrays_s", 0.0),
        "datasets.generate_spark_s": setup.get("datasets.generate_spark_s", 0.0),
        "tcd.window_tel.calls": calls("tcd.window_tel"),
        "tcd.window_tel.busy_ms": busy("tcd.window_tel"),
        "tcd.window_tel.edges_scanned": c["tcd.window_tel.edges_scanned"] / passes,
        "tcd.window_tel.edges_kept": c["tcd.window_tel.edges_kept"] / passes,
        "tcd.window_tel.keep_ratio": ratio(
            c["tcd.window_tel.edges_kept"], c["tcd.window_tel.edges_scanned"]),
        "tel.build.calls": calls("tel.build"),
        "tel.build.busy_ms": busy("tel.build"),
        "tel.copy.calls": calls("tel.copy"),
        "tel.copy.busy_ms": busy("tel.copy"),
        "tel.copy.edges": c["tel.copy.edges"] / passes,
        "tel.peak_edges": tracer.peak_edges,
        "tcd.op.calls": calls("tcd.op"),
        "tcd.op.busy_ms": busy("tcd.op"),
        "tcd.op.edges_deleted": c["tcd.op.edges_deleted"] / passes,
        "tcd.op.edges_deleted_per_call": ratio(
            c["tcd.op.edges_deleted"], spans["tcd.op"]["calls"]),
        "otcd.query.calls": calls("otcd.query"),
        "otcd.query.busy_ms": busy("otcd.query"),
        "otcd.query.self_ms": 1000 * spans["otcd.query"]["self_s"] / passes,
        "otcd.cells_total": c["otcd.cells_total"] / passes,
        "otcd.cells_evaluated": c["otcd.cells_evaluated"] / passes,
        "otcd.rows_started": c["otcd.rows_started"] / passes,
        "otcd.eval_ratio": ratio(c["otcd.cells_evaluated"], c["otcd.cells_total"]),
        "otcd.pruned_pct": 100 * ratio(c["otcd.pruned"], c["otcd.cells_total"]),
        "otcd.cores_per_eval": ratio(c["otcd.cores"], c["otcd.cells_evaluated"]),
        "phc.build.calls": calls("phc.build"),
        "phc.build.busy_ms": busy("phc.build"),
        "phc.anchors": c["phc.anchors"] / passes,
        "phc.index_entries": c["phc.index_entries"] / passes,
        "phc.iphc.busy_ms": busy("phc.iphc"),
        "phc.iphc.cells_evaluated": c["phc.iphc.cells_evaluated"] / passes,
        "tcd.tcd_query.busy_ms": busy("tcd.tcd_query"),
        "tcd.tcd_query.cells_evaluated": c["tcd.tcd_query.cells_evaluated"] / passes,
        "sparkdist.peel.busy_ms": busy("sparkdist.peel"),
        "sparkdist.peel.iterations": calls("sparkdist.degrees"),
        "sparkdist.core_edges": c["sparkdist.core_edges"] / passes,
        "sparkdist.fanout.busy_ms": busy("sparkdist.tcq") - busy("sparkdist.peel"),
        "sparkdist.anchors": c["sparkdist.anchors"] / passes,
        "sparkdist.jobs": c["sparkdist.jobs"] / passes,
        "sparkdist.tasks": c["sparkdist.tasks"] / passes,
        "sparkdist.rows_emitted": c["sparkdist.rows_emitted"] / passes,
        "sparkdist.distinct_ratio": ratio(c["sparkdist.cores"], c["sparkdist.rows_emitted"]),
        "trace.overhead_pct": 100 * (
            sum(best_latencies(traced)) / sum(best_latencies(untraced)) - 1
        ) if traced["passes"] and untraced["passes"] else 0.0,
    }


def trace_checks(tracer, traced: dict, bound: float) -> list[str]:
    """Counter consistency of the traced passes."""
    c = tracer.counters
    sweeps = ("otcd.query", "tcd.tcd_query")
    errors = []
    ops = tracer.count_under("tcd.op", sweeps)
    cells = c["otcd.cells_evaluated"] + c["tcd.tcd_query.cells_evaluated"]
    if ops != cells:
        errors.append(f"trace: {ops} tcd.op calls under OTCD/TCD but {cells:.0f} cells evaluated")
    copies = tracer.count_under("tel.copy", sweeps)
    queries = sum(1 for s in tracer.closed() if s[0] in sweeps)
    rows = c["otcd.rows_started"] + c["tcd.tcd_query.rows_started"] + queries
    if copies != rows:
        errors.append(f"trace: {copies} TEL copies under OTCD/TCD but {rows:.0f} rows_started + 1")
    wall = sum(p["wall"] for p in traced["passes"])
    self_total = tracer.self_total()
    if wall and abs(self_total - wall) > bound * wall:
        errors.append(f"trace: self times sum to {self_total:.4f} s, traced wall {wall:.4f} s")
    return errors


def run_all(args, names: list[str]) -> int:
    """Every workload in its own process (peak RSS is per process), one
    after the other; the last line sums the counts and prefixes each
    metric with its workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        total["correct"] &= result["correct"] and proc.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main() -> int:
    args = parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    RESULTS.mkdir(exist_ok=True)
    tmp = RESULTS / f"tmp-{os.getpid()}"
    tmp.mkdir()
    os.environ["TMPDIR"] = str(tmp)

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, str(tmp))
    try:
        setup = wl.setup()
        wl.reference()
        # The imported modules and the cached inputs live for the whole
        # run; frozen, the collector no longer rescans them on every
        # full collection inside a query.
        gc.collect()
        gc.freeze()
        reset_peak_rss()
        if args.trace:
            untraced = measure(wl, args.seconds / 2, wl.warmup_passes)
            tracer = tracing.Tracer()
            traced = measure(wl, args.seconds / 2, 0, tracer)
            runs = [untraced, traced]
        else:
            runs = [measure(wl, args.seconds, wl.warmup_passes)]
    finally:
        wl.close()
        shutil.rmtree(tmp, ignore_errors=True)

    # Run-level checks count as failed operations too.
    extra = list(wl.errors)
    if not wl.arrays_unchanged():
        extra.append("cached edge arrays changed length during the run")
    wall_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")
    if args.trace:
        extra += trace_checks(tracer, traced, wall_bound)
        values = per_layer(setup, tracer, traced, untraced)
        declared = spec["per_layer"]
    else:
        values = end_to_end(setup, runs[0])
        declared = spec["end_to_end"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs) + len(extra)
    errors = list(dict.fromkeys([e for r in runs for e in r["errors"]] + extra))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args, wl.spark_master),
        "pass_walls_s": [[p["wall"] for p in r["passes"]] for r in runs],
        "latencies_s": [[p["lat"] for p in r["passes"]] for r in runs],
        "fail_ratio": failed / max(attempted, 1),
        "cores_per_s": cores_per_s(runs[0]),
        "query_p50_ms": query_p50_ms(runs[0]),
        "query_p90_ms": p90([x for p in runs[0]["passes"] for x in p["lat"]]),
        "errors": errors,
        "metrics": metrics,
    }
    stem = f"{args.workload}.seed-{args.seed if args.seed is not None else 'default'}.trace-{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as f:
            for s in tracer.closed():
                f.write(json.dumps({"name": s[0], "parent": s[1], "alg": s[2],
                                    "t0": s[3], "t1": s[4]}) + "\n")

    def show(name, value, unit, note=""):
        print(f"{args.workload:15s} {name:32s} {value:14.4f} {unit}{note}")

    for name, m in metrics.items():
        show(name, m["value"], m["unit"])
    if not args.trace:
        show("query_p50_ms", record["query_p50_ms"], "ms")
        show("cores_per_s", record["cores_per_s"], "cores/s")
        q = record["query_p90_ms"]
        if q is not None:
            show("query_p90_ms", q["value"], "ms",
                 f"  ({q['samples']} samples, {q['beyond']} beyond)")
    show("fail_ratio", record["fail_ratio"], "failed/attempted")
    for e in errors:
        print(f"{args.workload:15s} CHECK FAILED: {e}")
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
