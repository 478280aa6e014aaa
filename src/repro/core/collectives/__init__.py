"""Collective communication plans, steps, and configurations."""

from .config import ABLATION_LADDER, BASELINE, FULL, PR_IM, PR_ONLY, OptConfig
from .plan import CommPlan, ExecContext, Step
from .program import CommProgram, ProgramOp, compile_plan
from .schedule import Schedule
from .planner import (
    ALL_PRIMITIVES,
    AR_SCRATCH,
    GATHER_SCRATCH,
    REDUCE_SCRATCH,
    build_plan,
    plan_allgather,
    plan_allreduce,
    plan_alltoall,
    plan_broadcast,
    plan_gather,
    plan_reduce,
    plan_reduce_scatter,
    plan_scatter,
)

__all__ = [
    "OptConfig", "BASELINE", "PR_ONLY", "PR_IM", "FULL", "ABLATION_LADDER",
    "CommPlan", "ExecContext", "Step",
    "CommProgram", "ProgramOp", "compile_plan",
    "Schedule",
    "ALL_PRIMITIVES", "AR_SCRATCH", "GATHER_SCRATCH", "REDUCE_SCRATCH",
    "build_plan",
    "plan_alltoall", "plan_allgather", "plan_reduce_scatter",
    "plan_allreduce", "plan_gather", "plan_scatter", "plan_reduce",
    "plan_broadcast",
]
