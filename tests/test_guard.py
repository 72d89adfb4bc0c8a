"""Tests for resource governance (``repro.guard``) — ISSUE 10.

The acceptance bar: budget watchdogs trip mid-run with structured
errors, ENOSPC on any artifact writer degrades instead of crashing (and
leaves no ``*.tmp`` litter), SIGINT during a sweep flushes the journal
and ``--resume`` recomputes only the rest, and a guarded-but-idle run
stays bit-identical to an unguarded one.
"""

from __future__ import annotations

import errno
import io
import os
import signal
import time

import pytest

from repro.analysis import cache as result_cache
from repro.analysis.cache import cached_run, clear_failed_marks
from repro.analysis.runner import (
    HarnessPolicy,
    RunScale,
    run_app,
    run_app_guarded,
)
from repro.errors import (
    ArtifactWriteError,
    BudgetExceeded,
    RunTimeoutError,
    ShutdownRequested,
)
from repro.guard import (
    DEFAULT_MIN_FREE_MB,
    EXIT_INTERRUPTED,
    PressureMonitor,
    PressurePolicy,
    RunBudget,
    Watchdog,
    active_watchdog,
    budget_from_env,
    check_watchdog,
    graceful_scope,
    guard_scope,
    make_room,
    preflight,
    pressure_from_env,
    prune_matching,
    resume_hint,
)
from repro.parallel import SweepJournal, SweepPoint, run_sweep
from repro.parallel import executor as executor_module
from repro.sim.config import InLLCSpec, SparseSpec, TinySpec
from repro.sim.stats import SimStats
from repro.types import Access, AccessKind
from repro.workloads.capture import TraceWriter

SCALE = RunScale(num_cores=8, total_accesses=3000, spill_window=64)

SPEC = TinySpec(ratio=1 / 64, policy="gnru", spill_window=SCALE.spill_window)


def _points(scale=SCALE):
    """Three small, scheme-diverse sweep points."""
    return [
        SweepPoint("barnes", SparseSpec(ratio=2.0), scale),
        SweepPoint("ocean_cp", InLLCSpec(), scale),
        SweepPoint("barnes", SPEC, scale),
    ]


@pytest.fixture(autouse=True)
def isolated_guard(tmp_path, monkeypatch):
    """Isolated cache dir and a clean guard/budget environment."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_CACHE", "on")
    for name in (
        "REPRO_BUDGET_WALL",
        "REPRO_BUDGET_RSS",
        "REPRO_DISK_QUOTA",
        "REPRO_CACHE_BAD_KEEP",
        "REPRO_JOBS",
    ):
        monkeypatch.delenv(name, raising=False)
    clear_failed_marks()
    yield
    clear_failed_marks()


# ----------------------------------------------------------------------
# Budget declaration and parsing
# ----------------------------------------------------------------------

class TestBudgetParsing:
    def test_unset_is_empty(self):
        budget = budget_from_env()
        assert budget.empty
        assert not budget.armed
        assert budget.describe() == {}

    def test_valid_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUDGET_WALL", "120")
        monkeypatch.setenv("REPRO_BUDGET_RSS", "512")
        monkeypatch.setenv("REPRO_DISK_QUOTA", "64")
        budget = budget_from_env()
        assert budget.armed
        assert budget.describe() == {
            "wall_s": 120.0, "rss_mb": 512.0, "disk_mb": 64.0,
        }

    def test_invalid_warns_and_disables(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BUDGET_WALL", "a lot")
        monkeypatch.setenv("REPRO_BUDGET_RSS", "-4")
        budget = budget_from_env()
        assert budget.empty
        err = capsys.readouterr().err
        assert "REPRO_BUDGET_WALL" in err
        assert "REPRO_BUDGET_RSS" in err
        assert "DISABLED" in err

    def test_off_is_silently_unlimited(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BUDGET_WALL", "off")
        assert budget_from_env().wall_s is None
        assert capsys.readouterr().err == ""

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            RunBudget(wall_s=0)
        with pytest.raises(ValueError):
            RunBudget(rss_mb=-1)

    def test_disk_only_budget_is_not_watchdog_armed(self):
        budget = RunBudget(disk_mb=64)
        assert not budget.armed
        assert not budget.empty


# ----------------------------------------------------------------------
# Watchdog sampling, trips, and pressure provenance
# ----------------------------------------------------------------------

class TestWatchdog:
    def test_wall_trip(self):
        watchdog = Watchdog(RunBudget(wall_s=1.0), now=time.monotonic() - 2.0)
        with pytest.raises(BudgetExceeded) as excinfo:
            watchdog.check()
        assert excinfo.value.resource == "wall"
        assert excinfo.value.observed > excinfo.value.limit == 1.0

    def test_rss_trip(self, monkeypatch):
        monkeypatch.setattr(
            "repro.guard.watchdog.process_rss_mb", lambda pid="self": 999.0
        )
        watchdog = Watchdog(RunBudget(rss_mb=10.0))
        with pytest.raises(BudgetExceeded) as excinfo:
            watchdog.check()
        assert excinfo.value.resource == "rss"
        assert excinfo.value.observed == 999.0

    def test_wall_pressure_recorded_once(self):
        watchdog = Watchdog(
            RunBudget(wall_s=100.0), now=time.monotonic() - 85.0
        )
        watchdog.check()
        watchdog.check()
        assert len(watchdog.pressure_events) == 1
        resource, observed, limit = watchdog.pressure_events[0]
        assert resource == "wall"
        assert 80.0 < observed < 100.0 == limit

    def test_publish_roundtrips_through_stats(self):
        watchdog = Watchdog(
            RunBudget(wall_s=100.0), now=time.monotonic() - 85.0
        )
        watchdog.check()
        stats = SimStats()
        watchdog.publish(stats)
        assert stats.guard["budget"] == {"wall_s": 100.0}
        assert stats.guard["pressure_events"][0]["resource"] == "wall"
        reloaded = SimStats.load(stats.dump())
        assert reloaded.guard == stats.guard

    def test_publish_is_noop_without_pressure(self):
        watchdog = Watchdog(RunBudget(wall_s=3600.0))
        watchdog.check()
        stats = SimStats()
        watchdog.publish(stats)
        assert stats.guard == {}
        assert "guard" not in stats.dump()

    def test_guard_scope_unarmed_yields_none(self):
        with guard_scope(None) as watchdog:
            assert watchdog is None
        with guard_scope(RunBudget(disk_mb=64.0)) as watchdog:
            assert watchdog is None
        check_watchdog()  # unarmed check is a no-op, not an error

    def test_guard_scope_nests_and_restores(self):
        outer_budget = RunBudget(wall_s=3600.0)
        inner_budget = RunBudget(wall_s=1800.0)
        assert active_watchdog() is None
        with guard_scope(outer_budget) as outer:
            assert active_watchdog() is outer
            with guard_scope(inner_budget) as inner:
                assert active_watchdog() is inner
            assert active_watchdog() is outer
        assert active_watchdog() is None

    def test_nested_scopes_keep_the_earliest_expiry(self):
        with guard_scope(RunBudget(wall_s=0.001)):
            time.sleep(0.01)
            with guard_scope(RunBudget(wall_s=3600.0)):
                with pytest.raises(BudgetExceeded) as excinfo:
                    check_watchdog()
        assert excinfo.value.limit == 0.001

    def test_timeout_raises_runtimeout_and_records_no_pressure(self):
        watchdog = Watchdog(
            RunBudget(wall_s=100.0), now=time.monotonic() - 85.0,
            timeout=True,
        )
        watchdog.check()
        assert watchdog.pressure_events == []
        watchdog.started -= 20.0
        with pytest.raises(RunTimeoutError):
            watchdog.check()

    def test_run_app_trips_mid_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUDGET_WALL", "0.005")
        with pytest.raises(BudgetExceeded) as excinfo:
            run_app("barnes", SPEC, SCALE)
        assert excinfo.value.resource == "wall"
        assert active_watchdog() is None  # scope unwound

    def test_keep_going_records_budget_failure(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUDGET_WALL", "0.005")
        policy = HarnessPolicy(keep_going=True)
        result = run_app_guarded("barnes", SPEC, SCALE, policy=policy)
        assert result.meta["failed"]
        assert len(policy.failures) == 1
        assert "BudgetExceeded" in policy.failures[0].error


class TestEveryStrideSiteIsGuarded:
    """Generation and ``repro diff``'s monitored loop sample budgets too."""

    def test_generation_trips_rss_budget(self):
        from repro.workloads.generator import clear_trace_cache, generate_streams

        clear_trace_cache()
        config = SCALE.make_config(SPEC)
        with guard_scope(RunBudget(rss_mb=16)):
            with pytest.raises(BudgetExceeded) as excinfo:
                generate_streams("barnes", config, SCALE.total_accesses)
        assert excinfo.value.resource == "rss"

    def test_monitored_run_trips_rss_budget(self):
        from repro.verify.differential import run_monitored
        from repro.workloads.generator import generate_streams

        streams = generate_streams(
            "barnes", SCALE.make_config(SPEC), SCALE.total_accesses
        )
        with guard_scope(RunBudget(rss_mb=16)):
            with pytest.raises(BudgetExceeded) as excinfo:
                run_monitored("tiny", SPEC, streams)
        assert excinfo.value.resource == "rss"


class TestTimeoutNestedWithWallBudget:
    LONG = RunScale(num_cores=8, total_accesses=200_000)

    def test_timeout_under_generous_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUDGET_WALL", "3600")
        with pytest.raises(RunTimeoutError):
            run_app_guarded(
                "barnes", SparseSpec(ratio=2.0), self.LONG,
                policy=HarnessPolicy(timeout_s=0.2),
            )
        assert active_watchdog() is None

    def test_budget_under_generous_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUDGET_WALL", "0.005")
        with pytest.raises(BudgetExceeded) as excinfo:
            run_app_guarded(
                "barnes", SparseSpec(ratio=2.0), self.LONG,
                policy=HarnessPolicy(timeout_s=600),
            )
        assert excinfo.value.resource == "wall"

    def test_timed_run_is_bit_identical(self):
        baseline = run_app("barnes", SPEC, SCALE)
        timed = run_app_guarded(
            "barnes", SPEC, SCALE, policy=HarnessPolicy(timeout_s=600)
        )
        assert timed.stats.guard == {}
        assert timed.stats.dump() == baseline.stats.dump()


class TestGuardIdleBitIdentity:
    def test_generous_budgets_change_nothing(self, monkeypatch):
        baseline = run_app("barnes", SPEC, SCALE)
        monkeypatch.setenv("REPRO_BUDGET_WALL", "3600")
        monkeypatch.setenv("REPRO_BUDGET_RSS", "1000000")
        guarded = run_app("barnes", SPEC, SCALE)
        assert guarded.stats.guard == {}
        assert guarded.stats.dump() == baseline.stats.dump()

    def test_disk_quota_never_partitions_cache_key(self, monkeypatch):
        clean = result_cache.point_key("barnes", SPEC, SCALE)
        monkeypatch.setenv("REPRO_DISK_QUOTA", "64")
        assert result_cache.point_key("barnes", SPEC, SCALE) == clean
        monkeypatch.setenv("REPRO_BUDGET_WALL", "3600")
        assert result_cache.point_key("barnes", SPEC, SCALE) != clean


# ----------------------------------------------------------------------
# Cache quota, quarantine retention, and ENOSPC degradation
# ----------------------------------------------------------------------

class TestCacheGovernance:
    def test_quarantine_keeps_newest_n(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BAD_KEEP", "2")
        cdir = result_cache.cache_dir()
        cdir.mkdir(parents=True, exist_ok=True)
        for age in range(3):
            stale = cdir / f"old{age}.json.bad"
            stale.write_text("x")
            os.utime(stale, (age, age))
        corrupt = cdir / "corrupt.json"
        corrupt.write_text("{this is not json")
        assert result_cache._load_entry(corrupt) is None
        assert not corrupt.exists()
        assert len(list(cdir.glob("*.json.bad"))) <= 2

    def test_quarantine_keep_zero_deletes(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BAD_KEEP", "0")
        cdir = result_cache.cache_dir()
        cdir.mkdir(parents=True, exist_ok=True)
        corrupt = cdir / "corrupt.json"
        corrupt.write_text("{this is not json")
        assert result_cache._load_entry(corrupt) is None
        assert not corrupt.exists()
        assert list(cdir.glob("*.json.bad")) == []

    def test_invalid_bad_keep_warns_and_defaults(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_BAD_KEEP", "many")
        assert result_cache._bad_keep() == result_cache.DEFAULT_BAD_KEEP
        assert "REPRO_CACHE_BAD_KEEP" in capsys.readouterr().err

    def test_tiny_quota_degrades_to_uncached(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_DISK_QUOTA", "0.0005")
        result = cached_run("barnes", SPEC, SCALE)
        assert result.meta.get("uncached")
        assert "cache write skipped" in capsys.readouterr().err
        cdir = result_cache.cache_dir()
        assert list(cdir.glob("*.json")) == []
        assert list(cdir.glob("*.tmp")) == []

    def test_enospc_degrades_to_uncached_without_litter(
        self, monkeypatch, capsys
    ):
        cdir = result_cache.cache_dir()
        real_replace = os.replace

        def exploding_replace(src, dst, **kwargs):
            if os.fspath(dst).startswith(os.fspath(cdir)):
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_replace(src, dst, **kwargs)

        monkeypatch.setattr(os, "replace", exploding_replace)
        result = cached_run("barnes", SPEC, SCALE)
        assert result.meta.get("uncached")
        assert "cache write skipped" in capsys.readouterr().err
        assert list(cdir.glob("*.tmp")) == []


# ----------------------------------------------------------------------
# Journal and capture writers under ENOSPC
# ----------------------------------------------------------------------

class TestJournalWriteFailure:
    def test_append_failure_is_structured(self, tmp_path):
        blocked = tmp_path / "journal-as-dir"
        blocked.mkdir()
        journal = SweepJournal(blocked)
        with pytest.raises(ArtifactWriteError) as excinfo:
            journal.record_ok("some-key")
        assert excinfo.value.path == str(blocked)

    def test_sweep_degrades_to_journal_less(self, monkeypatch, capsys):
        journal = SweepJournal(result_cache.cache_dir() / "sweep.journal")

        def exploding_append(*args, **kwargs):
            raise ArtifactWriteError(
                "simulated full disk", path=str(journal.path)
            )

        monkeypatch.setattr(journal, "record_ok", exploding_append)
        points = _points()[:2]
        report = run_sweep(points, jobs=1, journal=journal)
        assert len(report.results) == 2
        assert all(r is not None for r in report.results)
        assert "simulated full disk" in report.guard["journal_disabled"]
        assert "sweep journal disabled" in capsys.readouterr().err
        summary = report.summary().render()
        assert "journal: disabled mid-sweep" in summary


class TestCaptureWriteFailure:
    class _ExplodingFile:
        def __init__(self, real):
            self._real = real

        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

        def flush(self):
            raise OSError(errno.ENOSPC, "No space left on device")

        def fileno(self):
            return self._real.fileno()

        def close(self):
            self._real.close()

    def test_create_failure_is_structured(self, tmp_path):
        blocking_file = tmp_path / "not-a-dir"
        blocking_file.write_text("x")
        with pytest.raises(ArtifactWriteError):
            TraceWriter(blocking_file / "t.rtrace", num_cores=1)

    def test_stream_write_failure_cleans_tmp(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.rtrace", num_cores=1)
        writer._file = self._ExplodingFile(writer._file)
        accesses = [Access(0, 4, AccessKind.READ)]
        with pytest.raises(ArtifactWriteError):
            writer.write_stream(0, accesses)
        assert not writer._tmp.exists()
        assert not writer.path.exists()

    def test_finalize_failure_cleans_tmp(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.rtrace", num_cores=1)
        writer.write_stream(0, [])
        writer._file = self._ExplodingFile(writer._file)
        with pytest.raises(ArtifactWriteError):
            writer.close()
        assert not writer._tmp.exists()
        assert not writer.path.exists()


# ----------------------------------------------------------------------
# Graceful shutdown and the interrupt/resume round trip
# ----------------------------------------------------------------------

class TestShutdown:
    def test_sigint_becomes_shutdown_requested(self):
        with pytest.raises(ShutdownRequested) as excinfo:
            with graceful_scope():
                os.kill(os.getpid(), signal.SIGINT)
                for _ in range(10_000):  # let the signal land
                    pass
        assert excinfo.value.signum == signal.SIGINT

    def test_handlers_restored_after_scope(self):
        before = signal.getsignal(signal.SIGTERM)
        with graceful_scope():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_keep_going_never_swallows_shutdown(self, monkeypatch):
        def interrupted_run(*args, **kwargs):
            raise ShutdownRequested(signal.SIGTERM)

        monkeypatch.setattr("repro.analysis.runner.run_app", interrupted_run)
        with pytest.raises(ShutdownRequested):
            run_app_guarded(
                "barnes", SPEC, SCALE, policy=HarnessPolicy(keep_going=True)
            )

    def test_interrupted_sweep_flushes_journal_and_resumes(
        self, tmp_path, monkeypatch
    ):
        points = _points()
        journal = SweepJournal(result_cache.cache_dir() / "sweep.journal")
        real_cached_run = result_cache.cached_run
        calls = {"n": 0}

        def interrupt_on_second(app, scheme, scale):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise ShutdownRequested(signal.SIGINT)
            return real_cached_run(app, scheme, scale)

        monkeypatch.setattr(result_cache, "cached_run", interrupt_on_second)
        with pytest.raises(ShutdownRequested):
            run_sweep(points, jobs=1, journal=journal)
        # The completed first point survived the interrupt in the journal.
        records = journal.load()
        assert records[points[0].key()]["status"] == "ok"
        assert points[1].key() not in records

        # Resume recomputes only the non-journaled points.
        monkeypatch.setattr(result_cache, "cached_run", real_cached_run)
        report = run_sweep(points, jobs=1, journal=journal, resume=True)
        assert report.resumed_points == 1
        assert all(r is not None for r in report.results)

        # ... and the resumed sweep is bit-identical to a fresh one.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "fresh-cache"))
        baseline = run_sweep(points, jobs=1)
        assert [r.stats.dump() for r in report.results] == [
            r.stats.dump() for r in baseline.results
        ]

    def test_resume_hint_names_the_flag(self, tmp_path):
        hint = resume_hint(tmp_path / "sweep.journal", ["fig13", "--jobs", "2"])
        assert "python -m repro fig13 --jobs 2 --resume" in hint
        assert str(tmp_path / "sweep.journal") in hint

    def test_exit_code_is_distinct(self):
        assert EXIT_INTERRUPTED == 75

    def test_cli_exits_interrupted_with_hint(self, monkeypatch, capsys):
        import repro.__main__ as cli

        def interrupted_figure(scale, **kwargs):
            raise ShutdownRequested(signal.SIGTERM)

        monkeypatch.setitem(cli.FIGURES, "fig01", (interrupted_figure, ()))
        code = cli.main(["fig01", "--jobs", "1"])
        assert code == EXIT_INTERRUPTED
        err = capsys.readouterr().err
        assert "shutdown requested" in err
        assert "--resume" in err


# ----------------------------------------------------------------------
# Sweep backpressure
# ----------------------------------------------------------------------

class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestPressureMonitor:
    def _monitor(self, jobs, policy, rss, free=None):
        clock = _FakeClock()
        monitor = PressureMonitor(
            jobs,
            policy,
            rss_reader=lambda pid: rss["mb"],
            free_reader=lambda path: free,
            clock=clock,
        )
        return monitor, clock

    def test_throttles_by_halving_and_restores_stepwise(self):
        policy = PressurePolicy(rss_mb=100.0, sample_interval_s=1.0)
        rss = {"mb": 1000.0}
        monitor, clock = self._monitor(8, policy, rss)
        pids = [1]
        for expected in (4, 2, 1, 1):
            clock.advance(1.0)
            monitor.update(pids, ".")
            assert monitor.effective_jobs == expected
        assert monitor.min_effective_jobs == 1
        rss["mb"] = 1.0  # pressure clears: below the low-water mark
        for expected in (2, 3, 4, 5, 6, 7, 8, 8):
            clock.advance(1.0)
            monitor.update(pids, ".")
            assert monitor.effective_jobs == expected
        described = monitor.describe()
        assert described["min_effective_jobs"] == 1
        assert described["jobs"] == 8
        actions = [e["action"] for e in described["throttle_events"]]
        assert actions.count("throttle") == 3
        assert actions.count("restore") == 7

    def test_disk_floor_throttles(self):
        policy = PressurePolicy(disk_floor_mb=64.0, sample_interval_s=1.0)
        monitor, clock = self._monitor(4, policy, {"mb": 0.0}, free=8.0)
        clock.advance(1.0)
        monitor.update([], ".")
        assert monitor.effective_jobs == 2
        assert monitor.events[0].reason == "disk"

    def test_samples_are_rate_limited(self):
        policy = PressurePolicy(rss_mb=100.0, sample_interval_s=10.0)
        monitor, clock = self._monitor(8, policy, {"mb": 1000.0})
        clock.advance(10.0)
        monitor.update([1], ".")
        assert monitor.samples == 1
        monitor.update([1], ".")  # same instant: no new sample
        assert monitor.samples == 1
        assert monitor.effective_jobs == 4

    def test_untouched_monitor_describes_empty(self):
        policy = PressurePolicy(rss_mb=100.0, sample_interval_s=1.0)
        monitor, clock = self._monitor(4, policy, {"mb": 1.0})
        clock.advance(1.0)
        assert monitor.update([1], ".") == 4
        assert monitor.describe() == {}

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            PressurePolicy(rss_mb=10.0, low_water=0.9, high_water=0.5)
        with pytest.raises(ValueError):
            PressurePolicy(rss_mb=10.0, min_jobs=0)


class TestPressureFromEnv:
    def test_unset_is_disarmed(self):
        assert pressure_from_env(4) is None

    def test_aggregate_rss_scales_with_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUDGET_RSS", "100")
        policy = pressure_from_env(4)
        assert policy.rss_mb == 400.0
        assert policy.disk_floor_mb is None

    def test_disk_quota_arms_the_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_QUOTA", "10")
        policy = pressure_from_env(2)
        assert policy.rss_mb is None
        assert policy.disk_floor_mb == DEFAULT_MIN_FREE_MB


class TestThrottledSweepBitIdentity:
    def test_throttled_sweep_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            executor_module,
            "pressure_from_env",
            lambda jobs: PressurePolicy(rss_mb=100.0, sample_interval_s=0.0),
        )

        def saturated_monitor(jobs, policy):
            return PressureMonitor(
                jobs,
                policy,
                rss_reader=lambda pid: 1000.0,
                free_reader=lambda path: None,
            )

        monkeypatch.setattr(
            executor_module, "PressureMonitor", saturated_monitor
        )
        points = _points()
        report = run_sweep(points, jobs=2)
        backpressure = report.guard["backpressure"]
        assert backpressure["min_effective_jobs"] == 1
        assert "backpressure:" in report.summary().render()

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial-cache"))
        monkeypatch.setattr(
            executor_module, "pressure_from_env", lambda jobs: None
        )
        baseline = run_sweep(points, jobs=1)
        assert [r.stats.dump() for r in report.results] == [
            r.stats.dump() for r in baseline.results
        ]


# ----------------------------------------------------------------------
# Disk quota primitives and preflight
# ----------------------------------------------------------------------

class TestQuota:
    def test_prune_matching_keeps_newest(self, tmp_path):
        for age in range(3):
            path = tmp_path / f"artifact{age}.json"
            path.write_text("x" * 10)
            os.utime(path, (age, age))
        pruned = prune_matching(tmp_path, ("*.json",), keep=1)
        assert len(pruned) == 2
        survivors = list(tmp_path.glob("*.json"))
        assert survivors == [tmp_path / "artifact2.json"]

    def test_make_room_without_quota(self, tmp_path):
        assert make_room(tmp_path, 10**9, None)

    def test_make_room_rejects_oversized_write(self, tmp_path):
        assert not make_room(tmp_path, 2 * 1024 * 1024, 1.0)

    def test_make_room_prunes_to_fit(self, tmp_path):
        for age in range(4):
            path = tmp_path / f"artifact{age}.json"
            path.write_text("x" * 400 * 1024)
            os.utime(path, (age, age))
        quota_mb = 1.0
        assert make_room(tmp_path, 300 * 1024, quota_mb, ("*.json",))
        remaining = sum(p.stat().st_size for p in tmp_path.glob("*.json"))
        assert remaining + 300 * 1024 <= quota_mb * 1024 * 1024
        assert (tmp_path / "artifact3.json").exists()  # newest survives

    def test_preflight_warns_once_per_dir(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.guard.quota.free_mb", lambda path: 1.0)
        first = io.StringIO()
        warnings = preflight([tmp_path], stream=first)
        assert warnings and "low disk" in warnings[0]
        assert "low disk" in first.getvalue()
        second = io.StringIO()
        assert preflight([tmp_path], stream=second)  # still reported...
        assert second.getvalue() == ""  # ...but printed only once

    def test_preflight_silent_with_headroom(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.guard.quota.free_mb", lambda path: 10_000.0
        )
        stream = io.StringIO()
        assert preflight([tmp_path], stream=stream) == []
        assert stream.getvalue() == ""


# ----------------------------------------------------------------------
# Soak harness CLI surface
# ----------------------------------------------------------------------

class TestSoakCli:
    def test_parser_defaults(self):
        from repro.guard.soak import SCENARIOS, build_parser

        args = build_parser().parse_args(["--quick"])
        assert args.quick
        assert args.rounds == 4
        assert args.seed == 0
        assert not args.scenario
        assert set(SCENARIOS) == {
            "wall_budget", "disk_quota", "rss_throttle", "interrupt",
            "recovery", "worker_kill",
        }

    def test_quick_plan_runs_every_scenario_once_in_order(self):
        import random

        from repro.guard.soak import SCENARIOS, _round_plan

        rng = random.Random(7)
        assert _round_plan(SCENARIOS, 2, True, rng) == list(SCENARIOS)
        subset = ("interrupt", "recovery")
        assert _round_plan(subset, 4, True, rng) == list(subset)
        drawn = _round_plan(SCENARIOS, 5, False, rng)
        assert len(drawn) == 5 and set(drawn) <= set(SCENARIOS)

    def test_parser_rejects_unknown_scenario(self, capsys):
        from repro.guard.soak import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scenario", "meteor_strike"])
