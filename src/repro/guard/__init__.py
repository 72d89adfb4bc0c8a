"""repro.guard — resource governance: budgets, backpressure, shutdown.

The resilience stack (``repro.resilience``, ``repro.recovery``,
``repro.parallel``) defends against *logical* faults — corrupted
coherence state, crashed workers. This package defends against
*resource* failures, the other way long campaigns die:

* **Budgets and timeouts** (:mod:`~repro.guard.budget`,
  :mod:`~repro.guard.watchdog`): a declarative :class:`RunBudget`
  (wall clock, peak RSS, artifact-disk bytes) sampled cooperatively
  from the simulation loops by the one run watchdog, which also
  enforces the harness ``--timeout``; a blown budget raises a structured
  :class:`~repro.errors.BudgetExceeded` that flows through the
  existing keep-going/journal semantics, and near-miss pressure is
  published as the ``stats.guard`` degraded-mode provenance section.
* **Backpressure** (:mod:`~repro.guard.backpressure`): the sweep
  executor adaptively shrinks its effective worker count when
  aggregate worker RSS or disk headroom crosses a high-water mark,
  restoring it when pressure clears; every decision is recorded in the
  sweep summary.
* **Disk quotas** (:mod:`~repro.guard.quota`): preflight warnings,
  ``REPRO_DISK_QUOTA`` retention pruning, and skip-on-overflow so a
  full artifact directory degrades a run instead of crashing it.
* **Graceful shutdown** (:mod:`~repro.guard.shutdown`): SIGINT/SIGTERM
  become :class:`~repro.errors.ShutdownRequested`; the CLI prints a
  ``--resume`` hint and exits :data:`EXIT_INTERRUPTED`.
* **Soak harness** (:mod:`~repro.guard.soak`, ``python -m repro
  soak``): the chaos harness — small sweeps under injected resource
  pressure, protocol faults and worker kills, asserting the recovery
  invariants end to end.

See ``docs/resilience.md`` (Resource governance) for the operator
guide.
"""

from repro.guard.backpressure import (
    PressureMonitor,
    PressurePolicy,
    ThrottleEvent,
    pressure_from_env,
)
from repro.guard.budget import RunBudget, budget_from_env
from repro.guard.quota import (
    DEFAULT_MIN_FREE_MB,
    dir_usage_bytes,
    disk_quota_mb,
    free_mb,
    make_room,
    preflight,
    prune_matching,
)
from repro.guard.shutdown import (
    EXIT_INTERRUPTED,
    graceful_scope,
    resume_hint,
)
from repro.guard.watchdog import (
    Watchdog,
    active_watchdog,
    check_watchdog,
    guard_scope,
    process_rss_mb,
)

__all__ = [
    "DEFAULT_MIN_FREE_MB",
    "EXIT_INTERRUPTED",
    "PressureMonitor",
    "PressurePolicy",
    "RunBudget",
    "ThrottleEvent",
    "Watchdog",
    "active_watchdog",
    "budget_from_env",
    "check_watchdog",
    "dir_usage_bytes",
    "disk_quota_mb",
    "free_mb",
    "graceful_scope",
    "guard_scope",
    "make_room",
    "preflight",
    "pressure_from_env",
    "process_rss_mb",
    "prune_matching",
    "resume_hint",
]
