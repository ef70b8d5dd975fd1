"""Robustness layer: preemption and deterministic fault injection.

Two independent pieces that together make long sweeps preemptible and
recoverable:

* :mod:`repro.robustness.interrupt` — a SIGTERM/SIGINT-safe cooperative
  interrupt flag the engine polls alongside its budget checks, plus a
  context manager that installs and restores the signal handlers. A
  preempted run ends UNKNOWN with its partial stats; a sweep's JSONL
  results file keeps every finished run, so a rerun skips them.
* :mod:`repro.robustness.faults` — a seeded, deterministic fault-injection
  plan (worker crashes, hangs, torn JSONL appends, worker OOMs, stuck
  family workers) threaded through the parallel harness and the serve
  daemon so every recovery path is exercised end-to-end in tests and CI.
"""

from repro.robustness.faults import FaultPlan, InjectedFault
from repro.robustness.interrupt import InterruptFlag, global_flag, handling_signals

__all__ = [
    "FaultPlan",
    "InjectedFault",
    "InterruptFlag",
    "global_flag",
    "handling_signals",
]
