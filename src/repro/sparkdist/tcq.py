"""Distributed TCQ — the paper's query scaled out with Spark.

Strategy (DESIGN.md §2, "Layering decision"):

1. The heavy initial induction ``T^k_[Ts,Te]`` runs as a distributed
   Catalyst peeling loop (:func:`repro.sparkdist.decomposition.peel`).
   The paper observes (§7.2) that graphs with billions of edges need
   "the distributed memory cluster like Spark" exactly for this working
   set; after this step the core is orders of magnitude smaller.
2. The surviving core edges are broadcast; the anchor rows of the
   subinterval schedule fan out as one ``applyInPandas`` task per
   anchor. Each task rebuilds a TEL from the broadcast arrays and runs
   the driver's row-sweep kernel (:func:`repro.core.tcd.sweep`, the
   one TCD, OTCD and the PHC build use) over its single row, where the
   pruning rules reduce to PoR jumping
   (:func:`repro.core.tcd.row_sweep_distinct`). Rows are independent by
   Theorem 1 (each row's start core is induced directly from
   ``T^k_[Ts,Te]``).
3. Cross-row duplicates (what PoU/PoL prune on a single machine) are
   removed by a distinct-by-TTI aggregation, correct by TTI Equivalence
   (Property 2).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .decomposition import temporal_kcore_df

RESULT_SCHEMA = (
    "ts long, te long, tti_s long, tti_e long, n_vertices long, n_edges long"
)


def distributed_tcq(
    spark: SparkSession, edges: DataFrame, k: int, Ts: int, Te: int
) -> DataFrame:
    """All distinct temporal k-cores of ``[Ts, Te]`` as a DataFrame
    ``(tti_s, tti_e, n_vertices, n_edges, first_ts, first_te)`` where
    ``first_ts/first_te`` is the schedule-order-first subinterval that
    induces the core (matching the driver OTCD's reporting).
    """
    core0 = temporal_kcore_df(edges, k, Ts, Te).toPandas()
    if core0.empty:
        return spark.createDataFrame(
            [], "tti_s long, tti_e long, n_vertices long, n_edges long, "
                "first_ts long, first_te long",
        )
    bc = spark.sparkContext.broadcast(
        (
            core0["u"].tolist(),
            core0["v"].tolist(),
            core0["t"].tolist(),
            k,
            Te,
        )
    )

    def sweep(pdf: pd.DataFrame) -> pd.DataFrame:
        # One anchor row of the schedule per task (import inside the
        # task: executors deserialise this closure without the module).
        from repro.core.tcd import row_sweep_distinct
        from repro.core.tel import TEL

        us, vs, tts, kk, te_max = bc.value
        ts = int(pdf["ts"].iloc[0])
        tel = TEL(us, vs, tts)
        rows = row_sweep_distinct(tel, kk, ts, te_max)
        return pd.DataFrame(
            [(ts, te, a, b, nv, ne) for (te, a, b, nv, ne) in rows],
            columns=["ts", "te", "tti_s", "tti_e", "n_vertices", "n_edges"],
        )

    anchors = spark.range(Ts, Te + 1).withColumnRenamed("id", "ts")
    per_row = anchors.groupBy("ts").applyInPandas(sweep, RESULT_SCHEMA)
    # Distinct-by-TTI; a TTI uniquely identifies the core (Property 2),
    # so min over (ts, -te) reproduces schedule order (row-major with te
    # descending means the first inducer has the smallest ts, then the
    # largest te).
    return (
        per_row.groupBy("tti_s", "tti_e")
        .agg(
            F.first("n_vertices").alias("n_vertices"),
            F.first("n_edges").alias("n_edges"),
            F.min(F.struct(F.col("ts"), (-F.col("te")).alias("neg_te")))
            .alias("first_cell"),
        )
        .select(
            "tti_s",
            "tti_e",
            "n_vertices",
            "n_edges",
            F.col("first_cell.ts").alias("first_ts"),
            (-F.col("first_cell.neg_te")).alias("first_te"),
        )
    )


def distributed_tcq_pdf(
    spark: SparkSession, edges: DataFrame, k: int, Ts: int, Te: int
) -> pd.DataFrame:
    """:func:`distributed_tcq` collected and canonically sorted."""
    pdf = distributed_tcq(spark, edges, k, Ts, Te).toPandas()
    return pdf.sort_values(["tti_s", "tti_e"]).reset_index(drop=True)
