"""Query workload generation and accuracy measurement."""

from repro.workloads.queries import (
    QueryBatch,
    generate_queries,
    label_queries,
)
from repro.workloads.mixed import (
    Op,
    generate_mixed_workload,
    workload_mix,
)
from repro.workloads.precision import accuracy, confusion_counts

__all__ = [
    "Op",
    "QueryBatch",
    "accuracy",
    "confusion_counts",
    "generate_mixed_workload",
    "generate_queries",
    "label_queries",
    "workload_mix",
]
