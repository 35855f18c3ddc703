"""The paper's primary contribution: TEL, TCD, OTCD and TTI pruning."""
from .otcd import otcd_query
from .records import CoreRecord, QueryResult, QueryStats
from .tcd import (
    IntervalSet,
    row_sweep_distinct,
    sweep,
    tcd_operation,
    tcd_query,
    window_tel,
)
from .tel import TEL

__all__ = [
    "TEL",
    "CoreRecord",
    "QueryResult",
    "QueryStats",
    "IntervalSet",
    "sweep",
    "tcd_operation",
    "tcd_query",
    "otcd_query",
    "row_sweep_distinct",
    "window_tel",
]
