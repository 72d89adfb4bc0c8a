"""Declarative resource budgets for simulation runs.

A :class:`RunBudget` states how much wall clock, process RSS, and
artifact-disk space a run is allowed to consume. The budget itself is
inert data; enforcement is split by resource:

* wall clock and RSS are sampled cooperatively by the
  :mod:`repro.guard.watchdog` from inside the simulation loops, raising
  :class:`~repro.errors.BudgetExceeded` within one check stride of the
  limit being crossed;
* artifact-disk bytes are enforced at write time by
  :mod:`repro.guard.quota` (retention pruning, skip-on-overflow), so a
  full artifact directory degrades the run instead of crashing it.

Budgets come from the environment (``REPRO_BUDGET_WALL`` seconds,
``REPRO_BUDGET_RSS`` megabytes, ``REPRO_DISK_QUOTA`` megabytes);
invalid values warn on stderr and are ignored — never a silent
misconfiguration.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class RunBudget:
    """Resource limits for one run (``None`` = unlimited).

    The harness timeout
    (:class:`~repro.analysis.runner.HarnessPolicy.timeout_s`) is armed
    as a ``RunBudget`` with only ``wall_s``, on a watchdog scope marked
    as a timeout. The two differ in intent and error type: the timeout
    asks "has this run hung?" and raises
    :class:`~repro.errors.RunTimeoutError`, the budget asks "is this run
    worth its resources?" and raises
    :class:`~repro.errors.BudgetExceeded`, which degraded-mode
    provenance tracks separately from timeouts.
    """

    #: Wall-clock seconds the run may take.
    wall_s: "float | None" = None
    #: Peak resident-set size in megabytes the process may reach.
    rss_mb: "float | None" = None
    #: Artifact-directory quota in megabytes (cache, traces, journals).
    disk_mb: "float | None" = None

    def __post_init__(self) -> None:
        for name in ("wall_s", "rss_mb", "disk_mb"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive (or None)")

    @property
    def armed(self) -> bool:
        """True when at least one watchdog-sampled limit is set."""
        return self.wall_s is not None or self.rss_mb is not None

    @property
    def empty(self) -> bool:
        """True when no limit of any kind is set."""
        return not self.armed and self.disk_mb is None

    def describe(self) -> "dict[str, float]":
        """The set limits as a plain dict (for ``stats.guard``)."""
        described: "dict[str, float]" = {}
        if self.wall_s is not None:
            described["wall_s"] = self.wall_s
        if self.rss_mb is not None:
            described["rss_mb"] = self.rss_mb
        if self.disk_mb is not None:
            described["disk_mb"] = self.disk_mb
        return described


def _parse_positive(name: str, unit: str) -> "float | None":
    """Parse one positive-number env var; warn loudly when invalid."""
    raw = os.environ.get(name, "").strip()
    if not raw or raw.lower() in ("off", "none", "no", "false"):
        return None
    try:
        value = float(raw)
    except ValueError:
        value = -1.0
    if value <= 0:
        print(
            f"repro: ignoring invalid {name}={raw!r} (expected a positive "
            f"number of {unit}); this budget is DISABLED",
            file=sys.stderr,
        )
        return None
    return value


def budget_from_env() -> RunBudget:
    """The :class:`RunBudget` declared by the budget environment knobs.

    ``REPRO_BUDGET_WALL`` is seconds, ``REPRO_BUDGET_RSS`` and
    ``REPRO_DISK_QUOTA`` are megabytes. Unset (or explicitly ``off``)
    leaves that resource unlimited.
    """
    return RunBudget(
        wall_s=_parse_positive("REPRO_BUDGET_WALL", "seconds"),
        rss_mb=_parse_positive("REPRO_BUDGET_RSS", "megabytes"),
        disk_mb=_parse_positive("REPRO_DISK_QUOTA", "megabytes"),
    )
