"""Fault-injection chaos/soak harness for the concurrent serving stack.

The regression net for the serving tier's failure paths: seeded,
deterministic faults (:mod:`repro.chaos.faults`) injected under live
threaded and networked workloads (:mod:`repro.chaos.runner`) while
invariants -- bit identity against the scalar oracle, cache counter
laws, single-flight insert-once, net-server accounting, typed-failure
discipline -- are checked throughout
(:mod:`repro.chaos.invariants`).

Entry points: ``repro chaos`` on the CLI, :func:`run_chaos` from code,
:func:`repro.perf.serving_bench.run_serving_soak` for the bench-flavored
multi-device sweep.
"""

from repro.chaos.faults import (
    FAULT_KINDS,
    WRITE_FAULT_KINDS,
    FaultPlan,
    FaultyStore,
)
from repro.chaos.invariants import InvariantChecker
from repro.chaos.runner import CHAOS_SCHEMA, ChaosReport, run_chaos

__all__ = [
    "FAULT_KINDS",
    "WRITE_FAULT_KINDS",
    "FaultPlan",
    "FaultyStore",
    "InvariantChecker",
    "CHAOS_SCHEMA",
    "ChaosReport",
    "run_chaos",
]
