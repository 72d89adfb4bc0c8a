"""Sampling run watchdog: the one cooperative wall-clock and RSS guard.

:func:`guard_scope` arms a :class:`Watchdog` for its ``with`` body, and
every long loop (both trace-engine lanes, the stream generator, and
``repro diff``'s monitored loop) calls :func:`check_watchdog` every
:data:`CHECK_STRIDE` iterations. No signals and no threads: the limits
work on every platform, in any thread, and inside process-pool workers
(``SIGALRM`` would not survive there), and an unarmed check costs one
global read. Code that never reaches a check (a hung C extension, an
arbitrary ``sleep``) cannot be interrupted; for the simulator that is
no restriction, since all run time is spent in those loops.

A watchdog guards one of two things:

* a :class:`~repro.guard.budget.RunBudget` (wall clock, peak RSS),
  which asks "is this run worth its resources?". Crossing a limit
  raises :class:`~repro.errors.BudgetExceeded`; crossing
  :data:`PRESSURE_FRACTION` of it records a *pressure event*, which
  :meth:`Watchdog.publish` turns into the ``stats.guard`` degraded-mode
  provenance section, published only when non-empty so unpressured
  runs stay bit-identical to unguarded ones;
* the harness timeout (``timeout=True``, armed by
  :func:`~repro.analysis.runner.run_app_guarded`), which asks "has this
  run hung?". Expiry raises :class:`~repro.errors.RunTimeoutError` and
  nothing else is recorded, so a timed run dumps the same statistics
  as an untimed one.

Scopes nest, and a check samples every armed scope, so the earliest
wall expiry wins whichever scope set it: a ``--timeout`` and a
``REPRO_BUDGET_WALL`` budget on the same run are both enforced.

Each check compares wall clock against the limit every time (one
``monotonic()`` call) and samples RSS at most every
:data:`RSS_SAMPLE_INTERVAL_S` seconds (reading ``/proc/self/status``
is three orders of magnitude costlier than a clock read).
"""

from __future__ import annotations

import contextlib
import os
import time

from repro.errors import BudgetExceeded, RunTimeoutError
from repro.guard.budget import RunBudget

#: How many loop iterations pass between two :func:`check_watchdog`
#: calls. At the simulator's typical tens of thousands of accesses per
#: second this bounds the detection latency to well under a second.
CHECK_STRIDE = 1024

#: Minimum wall-clock seconds between two RSS samples.
RSS_SAMPLE_INTERVAL_S = 0.25

#: Fraction of a budget at which a (non-fatal) pressure event is
#: recorded for degraded-mode provenance.
PRESSURE_FRACTION = 0.8


def process_rss_mb(pid: "int | str" = "self") -> "float | None":
    """Current resident-set size of ``pid`` in megabytes.

    Reads ``/proc/<pid>/status`` (Linux); falls back to
    ``resource.getrusage`` peak RSS for the own process elsewhere.
    Returns None when neither source is available (the watchdog then
    skips RSS enforcement rather than guessing).
    """
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    if pid in ("self", os.getpid()):
        try:
            import resource

            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # ru_maxrss is KB on Linux, bytes on macOS.
            if os.uname().sysname == "Darwin":  # pragma: no cover
                return peak_kb / (1024.0 * 1024.0)
            return peak_kb / 1024.0
        except Exception:  # pragma: no cover - platform without resource
            pass
    return None


class Watchdog:
    """Samples wall clock and RSS against one :class:`RunBudget`.

    With ``timeout`` the budget's ``wall_s`` is the harness timeout: it
    raises :class:`RunTimeoutError` and records no pressure. ``parent``
    is the enclosing scope's watchdog, sampled first by each check.
    """

    def __init__(
        self,
        budget: RunBudget,
        now: "float | None" = None,
        *,
        timeout: bool = False,
        parent: "Watchdog | None" = None,
    ) -> None:
        self.budget = budget
        self.timeout = timeout
        self.parent = parent
        self.started = time.monotonic() if now is None else now
        self.checks = 0
        self.rss_samples = 0
        self.rss_peak_mb = 0.0
        #: Pressure events: (resource, observed, limit) tuples recorded
        #: when a sample crossed PRESSURE_FRACTION of its budget.
        self.pressure_events: "list[tuple[str, float, float]]" = []
        self._next_rss_sample = self.started
        self._pressured: "set[str]" = set()

    # ------------------------------------------------------------------

    def _pressure(self, resource: str, observed: float, limit: float) -> None:
        self.pressure_events.append((resource, observed, limit))
        self._pressured.add(resource)

    def check(self) -> None:
        """One cooperative sample of every armed scope.

        Raises :class:`BudgetExceeded`, or :class:`RunTimeoutError` for
        an expired harness timeout.
        """
        if self.parent is not None:
            self.parent.check()
        self.checks += 1
        now = time.monotonic()
        budget = self.budget
        if budget.wall_s is not None:
            elapsed = now - self.started
            if elapsed > budget.wall_s:
                if self.timeout:
                    raise RunTimeoutError(
                        f"run exceeded {budget.wall_s:g}s wall-clock limit"
                    )
                raise BudgetExceeded(
                    f"run exceeded its {budget.wall_s:g}s wall-clock budget "
                    f"(elapsed {elapsed:.1f}s)",
                    resource="wall",
                    observed=elapsed,
                    limit=budget.wall_s,
                )
            if (
                elapsed > budget.wall_s * PRESSURE_FRACTION
                and not self.timeout
                and "wall" not in self._pressured
            ):
                self._pressure("wall", elapsed, budget.wall_s)
        if budget.rss_mb is not None and now >= self._next_rss_sample:
            self._next_rss_sample = now + RSS_SAMPLE_INTERVAL_S
            rss = process_rss_mb()
            if rss is None:
                return
            self.rss_samples += 1
            if rss > self.rss_peak_mb:
                self.rss_peak_mb = rss
            if rss > budget.rss_mb:
                raise BudgetExceeded(
                    f"run exceeded its {budget.rss_mb:g} MB RSS budget "
                    f"(observed {rss:.1f} MB)",
                    resource="rss",
                    observed=rss,
                    limit=budget.rss_mb,
                )
            if (
                rss > budget.rss_mb * PRESSURE_FRACTION
                and "rss" not in self._pressured
            ):
                self._pressure("rss", rss, budget.rss_mb)

    # ------------------------------------------------------------------

    def publish(self, stats) -> None:
        """Attach degraded-mode provenance to ``stats.guard``.

        Published **only** when at least one pressure event was
        recorded: a guarded run that never came near its budgets dumps
        statistics bit-identical to an unguarded run, so degraded
        numbers can never be silently mixed with clean ones.
        """
        if not self.pressure_events:
            return
        stats.guard = {
            "budget": self.budget.describe(),
            "pressure_events": [
                {
                    "resource": resource,
                    "observed": round(observed, 3),
                    "limit": limit,
                }
                for resource, observed, limit in self.pressure_events
            ],
            "rss_peak_mb": round(self.rss_peak_mb, 3),
            "checks": self.checks,
        }


#: The innermost armed watchdog consulted by :func:`check_watchdog`;
#: one per process.
_ACTIVE: "Watchdog | None" = None


@contextlib.contextmanager
def guard_scope(budget: "RunBudget | None", *, timeout: bool = False):
    """Arm a :class:`Watchdog` over ``budget`` for the ``with`` body.

    A None or unarmed budget (no wall/RSS limit) arms nothing and
    yields None; :func:`check_watchdog` stays a single global read.
    ``timeout`` makes the wall limit the harness timeout (see the
    module docstring). Scopes restore the previous watchdog on exit and
    each check samples every enclosing scope too, so nested limits are
    all enforced and the earliest expiry trips first.
    """
    global _ACTIVE
    if budget is None or not budget.armed:
        yield None
        return
    previous = _ACTIVE
    watchdog = Watchdog(budget, timeout=timeout, parent=previous)
    _ACTIVE = watchdog
    try:
        yield watchdog
    finally:
        _ACTIVE = previous


def check_watchdog() -> None:
    """Sample the armed watchdogs, if any (the stride-site hook)."""
    if _ACTIVE is not None:
        _ACTIVE.check()


def active_watchdog() -> "Watchdog | None":
    """The currently armed watchdog (tests and provenance hooks)."""
    return _ACTIVE
