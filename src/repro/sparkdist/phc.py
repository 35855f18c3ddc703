"""Spark-parallel PHC-Index construction.

The index build (one decremental row sweep per anchor ``ts``) is
embarrassingly parallel over anchors; this module fans the anchors out
as ``applyInPandas`` tasks over a broadcast of the projected window and
returns the index as a DataFrame ``(ts, vtx, core_time)`` — the
distributed equivalent of :func:`repro.phc.index.build_phc_index`. Each
task runs the driver's row-sweep kernel (:func:`repro.core.tcd.sweep`)
over its one anchor row, through
:func:`repro.phc.index.core_times_for_anchor`.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .graph_io import projected

INDEX_SCHEMA = "ts long, vtx long, core_time long"


def build_phc_index_df(
    spark: SparkSession, edges: DataFrame, k: int, Ts: int, Te: int
) -> DataFrame:
    """Core time of every vertex for every anchor in ``[Ts, Te]``."""
    window = projected(edges, Ts, Te).toPandas()
    bc = spark.sparkContext.broadcast(
        (window["u"].tolist(), window["v"].tolist(), window["t"].tolist(), k, Te)
    )

    def anchor_core_times(pdf: pd.DataFrame) -> pd.DataFrame:
        from repro.core.tel import TEL
        from repro.phc.index import core_times_for_anchor

        us, vs, tts, kk, te_max = bc.value
        ts = int(pdf["ts"].iloc[0])
        ct = core_times_for_anchor(TEL(us, vs, tts), kk, ts, te_max)
        return pd.DataFrame(
            [(ts, v, t) for v, t in sorted(ct.items())],
            columns=["ts", "vtx", "core_time"],
        )

    anchors = spark.range(Ts, Te + 1).withColumnRenamed("id", "ts")
    return anchors.groupBy("ts").applyInPandas(anchor_core_times, INDEX_SCHEMA)


def collect_index(index_df: DataFrame) -> dict[int, dict[int, int]]:
    """Materialise the DataFrame index into the dict form consumed by
    :func:`repro.phc.baseline.iphc_query`."""
    out: dict[int, dict[int, int]] = {}
    for row in index_df.collect():
        out.setdefault(row["ts"], {})[row["vtx"]] = row["core_time"]
    return out
