"""Chaos and soak harness (``python -m repro soak``).

The unit tests pin each guard and recovery mechanism in isolation with
monkeypatched pressure; this harness exercises them *together*, the way
a long overnight sweep on a loaded machine would: randomized small
sweeps run under injected trouble — starvation wall-clock budgets, tiny
disk quotas, RSS budgets, mid-sweep SIGTERM, corrupted directory
entries, a killed pool worker — and after every round the harness
asserts the recovery invariants documented in ``docs/resilience.md``:

* **no crash** — a pressured sweep completes degraded (keep-going
  failures, skipped cache writes, throttled jobs, a respawned pool) or
  exits with the resumable
  :data:`~repro.guard.shutdown.EXIT_INTERRUPTED` code; it never dies
  with a raw traceback;
* **self-healing** — an injected directory corruption is repaired in
  place under every scheme, without escalation;
* **no litter** — no stray ``*.tmp`` files survive in any artifact
  directory, whatever the pressure did;
* **no contamination** — after the pressure is lifted, recomputing the
  same points in a fresh cache produces statistics bit-identical to an
  unpressured baseline (pressure may cost work, never correctness);
* **resumability** — a sweep interrupted mid-flight leaves a loadable
  journal, and ``resume=True`` recomputes only the missing points.

Rounds are seeded (``--seed``) so a failing soak reproduces exactly;
``--quick`` is the CI configuration: every scenario once, in order, at
the smallest scale.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import random
import sys
import tempfile
import time
from pathlib import Path

#: Scenarios a round can draw (``interrupt`` and ``worker_kill`` need
#: fork).
SCENARIOS = (
    "wall_budget",
    "disk_quota",
    "rss_throttle",
    "interrupt",
    "recovery",
    "worker_kill",
)

#: Environment keys every round starts from a clean slate on.
_PRESSURE_KEYS = (
    "REPRO_BUDGET_WALL",
    "REPRO_BUDGET_RSS",
    "REPRO_DISK_QUOTA",
    "REPRO_CACHE_DIR",
    "REPRO_CACHE",
    "REPRO_TRACE",
    "REPRO_METRICS",
    "REPRO_JOBS",
    "REPRO_AUDIT",
    "REPRO_FAULTS",
    "REPRO_FAULT_SEED",
    "REPRO_RECOVERY",
)


@contextlib.contextmanager
def _scoped_env(overrides: "dict[str, str | None]"):
    """Apply ``overrides`` (None deletes) and restore on exit."""
    saved = {key: os.environ.get(key) for key in overrides}
    try:
        for key, value in overrides.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _round_points(rng: "random.Random", quick: bool):
    """A small randomized sweep: 2-3 apps, two tiny-directory schemes."""
    from repro.analysis.runner import RunScale
    from repro.parallel.points import SweepPoint
    from repro.workloads.profiles import APPLICATIONS

    scale = RunScale(
        num_cores=8,
        total_accesses=2_000 if quick else 4_000,
        seed=rng.randrange(1, 1 << 16),
        l1_kb=8,
        l2_kb=32,
        spill_window=64,
    )
    apps = rng.sample(sorted(APPLICATIONS), 2 if quick else 3)
    schemes = [scale.tiny_spec(1 / 32), scale.tiny_spec(1 / 64, spill=True)]
    return [
        SweepPoint(app=app, scheme=scheme, scale=scale)
        for app in apps
        for scheme in schemes
    ]


def _run_points(points, cache_dir: Path, *, resume: bool = False,
                jobs: int = 1):
    """One sweep of ``points`` journaled under ``cache_dir``."""
    from repro.analysis.runner import HarnessPolicy
    from repro.parallel.executor import run_sweep
    from repro.parallel.journal import SweepJournal

    journal = SweepJournal(cache_dir / SweepJournal.FILENAME)
    policy = HarnessPolicy(keep_going=True)
    with _scoped_env({"REPRO_CACHE_DIR": str(cache_dir), "REPRO_CACHE": "on"}):
        return run_sweep(
            points, jobs=jobs, policy=policy, journal=journal, resume=resume
        )


def _baseline_dumps(points, sandbox: Path) -> "list[dict]":
    """Unpressured reference statistics for ``points`` (fresh cache)."""
    report = _run_points(points, sandbox / "baseline")
    return [result.stats.dump() for result in report.results]


def _find_litter(root: Path) -> "list[str]":
    """Stray temp files anywhere under ``root`` (should always be [])."""
    return sorted(
        str(path) for path in root.rglob("*.tmp") if path.is_file()
    )


# ----------------------------------------------------------------------
# Scenarios — each returns a list of invariant-violation strings
# ----------------------------------------------------------------------

def _check_recovery(points, sandbox: Path, baseline: "list[dict]",
                    label: str) -> "list[str]":
    """Pressure lifted: a fresh-cache recompute must match the baseline."""
    report = _run_points(points, sandbox / f"{label}-recovered")
    problems = []
    if report.failures:
        problems.append(
            f"{label}: recovery sweep still failing: {report.failures[0]}"
        )
    if any(result.stats.guard for result in report.results):
        problems.append(f"{label}: a clean run published stats.guard")
    dumps = [result.stats.dump() for result in report.results]
    if dumps != baseline:
        problems.append(
            f"{label}: post-pressure statistics diverge from the "
            f"unpressured baseline (contamination)"
        )
    return problems


def _budget_failures(points, cache_dir: Path, env: "dict[str, str]",
                     label: str, *, must_trip: bool) -> "list[str]":
    """Sweep ``points`` under budget ``env``: every failure must be a
    structured ``BudgetExceeded``; under ``must_trip`` every run fails."""
    with _scoped_env(env):
        report = _run_points(points, cache_dir)
    problems = [
        f"{label}: expected BudgetExceeded, got: {failure.error}"
        for failure in report.failures
        if "BudgetExceeded" not in failure.error
    ][:1]
    if must_trip and len(report.failures) != len(points):
        problems.append(
            f"{label}: {len(report.failures)} of {len(points)} runs "
            f"tripped {env} (watchdog dead?)"
        )
    return problems


def _scenario_wall_budget(points, sandbox, baseline, rng) -> "list[str]":
    """A starvation wall budget: runs must fail structurally, not crash."""
    problems = _budget_failures(
        points, sandbox / "wall-pressed", {"REPRO_BUDGET_WALL": "0.002"},
        "wall_budget", must_trip=True,
    )
    problems += _check_recovery(points, sandbox, baseline, "wall_budget")
    return problems


def _scenario_disk_quota(points, sandbox, baseline, rng) -> "list[str]":
    """A tiny artifact quota: writes degrade (prune/skip), never crash."""
    problems = []
    pressed = sandbox / "disk-pressed"
    with _scoped_env({"REPRO_DISK_QUOTA": "0.02"}):  # 20 KB: ~0-1 entries
        report = _run_points(points, pressed)
    if report.failures:
        problems.append(
            f"disk_quota: quota-pressed sweep failed: {report.failures[0]}"
        )
    quota_bytes = int(0.02 * 1024 * 1024)
    cached = list(pressed.glob("*.json"))
    used = sum(path.stat().st_size for path in cached)
    if used > quota_bytes:
        problems.append(
            f"disk_quota: cache dir holds {used} bytes of entries, over "
            f"the {quota_bytes}-byte quota"
        )
    problems += _check_recovery(points, sandbox, baseline, "disk_quota")
    return problems


def _scenario_rss_throttle(points, sandbox, baseline, rng) -> "list[str]":
    """RSS budgets: a ballast budget must trip, a straddling one degrades.

    A 16 MB budget is ballast (a bare interpreter sits far above it), so
    every run must fail as a structured ``BudgetExceeded``. A second
    budget is pinned just above the current interpreter RSS, so the run
    lands in the pressure window (recorded provenance) or trips the
    budget (structured failure) depending on the machine — both are
    acceptable degraded outcomes; a crash or contamination is not.
    """
    from repro.guard.watchdog import process_rss_mb

    rss = process_rss_mb()
    if rss is None:
        return []  # platform without RSS introspection: skip
    problems = _budget_failures(
        points, sandbox / "rss-ballast", {"REPRO_BUDGET_RSS": "16"},
        "rss_throttle", must_trip=True,
    )
    problems += _budget_failures(
        points, sandbox / "rss-pressed",
        {"REPRO_BUDGET_RSS": f"{rss * 1.05:.1f}"}, "rss_throttle",
        must_trip=False,
    )
    problems += _check_recovery(points, sandbox, baseline, "rss_throttle")
    return problems


def _interrupt_child(points, cache_dir: str) -> None:
    """Child body for the interrupt scenario (SIGTERMed by the parent)."""
    from repro.errors import ShutdownRequested
    from repro.guard.shutdown import EXIT_INTERRUPTED, graceful_scope

    try:
        with graceful_scope():
            _run_points(points, Path(cache_dir))
    except ShutdownRequested:
        os._exit(EXIT_INTERRUPTED)
    os._exit(0)


def _scenario_interrupt(points, sandbox, baseline, rng) -> "list[str]":
    """SIGTERM mid-sweep: distinct exit code, flushed journal, resume."""
    import multiprocessing
    import signal

    from repro.guard.shutdown import EXIT_INTERRUPTED
    from repro.parallel.journal import SweepJournal

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return []
    problems = []
    pressed = sandbox / "interrupted"
    journal_path = pressed / SweepJournal.FILENAME
    child = ctx.Process(target=_interrupt_child, args=(points, str(pressed)))
    child.start()
    # Interrupt as soon as the first point lands in the journal, so the
    # sweep is genuinely mid-flight (not before it started, not after
    # it finished).
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        if journal_path.exists() and journal_path.stat().st_size > 0:
            break
        if not child.is_alive():
            break
        time.sleep(0.02)
    if child.is_alive():
        os.kill(child.pid, signal.SIGTERM)
    child.join(timeout=60.0)
    if child.is_alive():  # pragma: no cover - hung child
        child.kill()
        child.join()
        return ["interrupt: child never exited after SIGTERM"]
    raced_to_completion = child.exitcode == 0
    if not raced_to_completion and child.exitcode != EXIT_INTERRUPTED:
        problems.append(
            f"interrupt: expected exit code {EXIT_INTERRUPTED} "
            f"(or 0 if the sweep won the race), got {child.exitcode}"
        )
    journaled = SweepJournal(journal_path).load()
    if not journaled:
        problems.append("interrupt: journal is empty after SIGTERM")
    resumed = _run_points(points, pressed, resume=True)
    if not raced_to_completion and resumed.resumed_points == 0:
        problems.append(
            "interrupt: --resume recomputed every point despite the journal"
        )
    if resumed.failures:
        problems.append(
            f"interrupt: resumed sweep failed: {resumed.failures[0]}"
        )
    dumps = [result.stats.dump() for result in resumed.results]
    if dumps != baseline:
        problems.append(
            "interrupt: resumed statistics diverge from the baseline"
        )
    return problems


def _scenario_recovery(points, sandbox, baseline, rng) -> "list[str]":
    """Every scheme repairs an injected directory corruption in place."""
    from repro.analysis.runner import run_app
    from repro.sim.config import InLLCSpec, MgdSpec, SparseSpec, StashSpec
    from repro.workloads.generator import generate_streams

    problems = []
    app, scale = points[0].app, points[0].scale
    streams = generate_streams(
        app, scale.make_config(points[0].scheme), scale.total_accesses,
        seed=scale.seed,
    )
    # Fire halfway through the accesses after the initialization pass:
    # there every block is first touched by one core, so MgD tracks it
    # at region grain and holds no block entry to corrupt.
    fire_at = sum(map(len, streams)) - scale.total_accesses // 2
    schemes = [
        SparseSpec(ratio=2.0),
        InLLCSpec(),
        scale.tiny_spec(1 / 32, spill=True),
        MgdSpec(ratio=1 / 32),
        StashSpec(ratio=1 / 32),
    ]
    with _scoped_env({
        "REPRO_FAULTS": f"corrupt_directory_entry@{fire_at}",
        "REPRO_FAULT_SEED": "11",
        "REPRO_RECOVERY": "repair",
        "REPRO_AUDIT": "256",
    }):
        for spec in schemes:
            label = f"recovery[{spec.name}]"
            try:
                result = run_app(app, spec, scale)
            except Exception as err:  # noqa: BLE001 - reported, not raised
                problems.append(f"{label}: {type(err).__name__}: {err}")
                continue
            recovery = result.stats.recovery
            if result.meta.get("injected_faults", 0) < 1:
                problems.append(f"{label}: no fault was injected")
            if result.meta.get("repairs", 0) < 1:
                problems.append(f"{label}: the fault was not repaired")
            if recovery.get("repairs", 0) < 1:
                problems.append(f"{label}: empty recovery stats: {recovery}")
            if recovery.get("escalations", 0):
                problems.append(f"{label}: recovery escalated: {recovery}")
    problems += _check_recovery(points, sandbox, baseline, "recovery")
    return problems


def _scenario_worker_kill(points, sandbox, baseline, rng) -> "list[str]":
    """A pool worker dies mid-sweep once: respawn, lose no point."""
    import multiprocessing

    from repro.analysis import runner

    if multiprocessing.get_start_method() != "fork":  # pragma: no cover
        return []  # workers must inherit the patched run_app
    marker = sandbox / "kill-once"
    marker.write_text("armed")
    victim = points[-1]
    real_run_app = runner.run_app

    def killing_run_app(app, scheme, scale=None, config=None):
        if (app, scheme) == (victim.app, victim.scheme):
            try:
                marker.unlink()  # only the first worker to get here dies
            except FileNotFoundError:
                pass
            else:
                os._exit(71)
        return real_run_app(app, scheme, scale, config)

    runner.run_app = killing_run_app
    try:
        report = _run_points(points, sandbox / "killed", jobs=2)
    finally:
        runner.run_app = real_run_app
    problems = []
    if report.pool_respawns < 1:
        problems.append("worker_kill: the killed worker did not break the pool")
    if report.failures:
        problems.append(f"worker_kill: sweep failed: {report.failures[0]}")
    dumps = [
        result.stats.dump()
        for result in report.results
        if result is not None and not result.meta.get("failed")
    ]
    if dumps != baseline:
        problems.append(
            "worker_kill: not every point healed to the baseline statistics"
        )
    return problems


_SCENARIO_FNS = {
    "wall_budget": _scenario_wall_budget,
    "disk_quota": _scenario_disk_quota,
    "rss_throttle": _scenario_rss_throttle,
    "interrupt": _scenario_interrupt,
    "recovery": _scenario_recovery,
    "worker_kill": _scenario_worker_kill,
}


def _round_plan(pool, rounds: int, quick: bool, rng: "random.Random"):
    """The scenario of each round: under ``quick`` every entry of
    ``pool`` once, in order; otherwise ``rounds`` seeded draws."""
    if quick:
        return list(pool)
    return [rng.choice(pool) for _ in range(max(1, rounds))]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro soak",
        description="Randomized chaos soak for the guard and recovery "
        "subsystems (budgets, quotas, throttling, graceful shutdown, "
        "fault repair, worker kills).",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=4,
        metavar="N",
        help="rounds to run (default 4; each draws one scenario; "
        "ignored under --quick)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="RNG seed for scenario/workload draws (default 0)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI configuration: every scenario once, in order, at the "
        "smallest scale",
    )
    parser.add_argument(
        "--scenario",
        choices=SCENARIOS,
        action="append",
        metavar="NAME",
        help="restrict rounds to these scenarios (repeatable; "
        "default: all of " + ", ".join(SCENARIOS) + ")",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        help="sandbox directory to keep (default: a temp dir, removed "
        "on success, kept and named on failure)",
    )
    return parser


def run_soak(args) -> int:
    rng = random.Random(args.seed)
    plan = _round_plan(args.scenario or SCENARIOS, args.rounds, args.quick, rng)
    rounds = len(plan)
    if args.out:
        root = Path(args.out)
        root.mkdir(parents=True, exist_ok=True)
        ephemeral = False
    else:
        root = Path(tempfile.mkdtemp(prefix="repro-soak-"))
        ephemeral = True
    clean_env = {key: None for key in _PRESSURE_KEYS}
    violations: "list[str]" = []
    try:
        with _scoped_env(clean_env):
            for round_no, scenario in enumerate(plan, start=1):
                sandbox = root / f"round{round_no:02d}-{scenario}"
                sandbox.mkdir(parents=True, exist_ok=True)
                points = _round_points(rng, args.quick)
                started = time.monotonic()
                baseline = _baseline_dumps(points, sandbox)
                problems = _SCENARIO_FNS[scenario](
                    points, sandbox, baseline, rng
                )
                problems += [
                    f"{scenario}: stray temp file left behind: {path}"
                    for path in _find_litter(sandbox)
                ]
                status = "ok" if not problems else "FAILED"
                print(
                    f"soak round {round_no}/{rounds}: {scenario} "
                    f"({len(points)} points, "
                    f"{time.monotonic() - started:.1f}s) {status}"
                )
                for problem in problems:
                    print(f"  {problem}", file=sys.stderr)
                violations += problems
    finally:
        if ephemeral and not violations:
            import shutil

            shutil.rmtree(root, ignore_errors=True)
        elif ephemeral:
            print(f"soak sandbox kept for inspection: {root}",
                  file=sys.stderr)
    if violations:
        print(
            f"soak: {len(violations)} invariant violation(s) across "
            f"{rounds} round(s)",
            file=sys.stderr,
        )
        return 1
    print(f"soak: {rounds} round(s), all recovery invariants held")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return run_soak(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
