"""Comparison systems: SimplePIM-style library and ring/tree
topologies."""

from .simplepim import (
    SIMPLEPIM_SUPPORTED,
    UPMEM_SDK_SUPPORTED,
    baseline_plan,
    capability_table,
)
from .topologies import ring_allreduce_plan, tree_allreduce_plan

__all__ = [
    "baseline_plan", "capability_table",
    "SIMPLEPIM_SUPPORTED", "UPMEM_SDK_SUPPORTED",
    "ring_allreduce_plan", "tree_allreduce_plan",
]
