"""The private-hit fast lane: bit-identity, disengagement, trace cache.

The fast lane (`TraceEngine._run_fast`) is an optimization with a hard
contract: for any workload, scheme, and seed, its statistics must equal
the reference lane's byte for byte, and it must silently step aside for
any run that needs to observe individual transactions. These tests are
the tripwire for both halves — if the inlined hit logic ever drifts
from ``PrivateCore.classify``, the cross-scheme identity tests fail.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.sim.config import (
    InLLCSpec,
    MgdSpec,
    SparseSpec,
    StashSpec,
    SystemConfig,
    TinySpec,
)
from repro.sim.engine import TraceEngine, run_trace
from repro.sim.system import System
from repro.telemetry import RingBufferSink, Tracer
from repro.workloads.generator import (
    ENV_TRACE_CACHE,
    clear_trace_cache,
    generate_streams,
    trace_cache_stats,
)

REPO = pathlib.Path(__file__).resolve().parent.parent

SCHEMES = {
    "sparse": SparseSpec(),
    "in_llc": InLLCSpec(),
    "tiny": TinySpec(spill=True),
    "mgd": MgdSpec(),
    "stash": StashSpec(),
}


def small_config(scheme) -> SystemConfig:
    return SystemConfig(num_cores=8, scheme=scheme)


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    clear_trace_cache()
    yield
    clear_trace_cache()


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_fast_lane_matches_reference(self, name):
        config = small_config(SCHEMES[name])
        streams = generate_streams("bodytrack", config, 4000, seed=3)
        reference = run_trace(System(config), streams, fast_path=False)
        fast = run_trace(System(config), streams, fast_path=True)
        assert fast.dump() == reference.dump()

    def test_identity_holds_with_zero_warmup(self):
        config = small_config(SparseSpec())
        streams = generate_streams("barnes", config, 3000, seed=11)
        reference = run_trace(
            System(config), streams, warmup_fraction=0.0, fast_path=False
        )
        fast = run_trace(
            System(config), streams, warmup_fraction=0.0, fast_path=True
        )
        assert fast.dump() == reference.dump()


class TestEngagement:
    def test_engaged_for_plain_run(self):
        config = small_config(SparseSpec())
        engine = TraceEngine(System(config), [[]], fast_path=True)
        assert engine.fast_lane_engaged()

    def test_fast_path_false_disengages(self):
        config = small_config(SparseSpec())
        engine = TraceEngine(System(config), [[]], fast_path=False)
        assert not engine.fast_lane_engaged()

    @pytest.mark.parametrize("observer", ["auditor", "oracle", "recovery"])
    def test_observers_disengage(self, observer):
        config = small_config(SparseSpec())
        engine = TraceEngine(
            System(config), [[]], fast_path=True, **{observer: object()}
        )
        assert not engine.fast_lane_engaged()

    def test_enabled_tracer_disengages(self):
        config = small_config(SparseSpec())
        engine = TraceEngine(
            System(config),
            [[]],
            fast_path=True,
            observer=Tracer(RingBufferSink()),
        )
        assert not engine.fast_lane_engaged()
        # An observer already in the home's slot disengages it too.
        system = System(config)
        system.home.observer = Tracer(RingBufferSink())
        assert not TraceEngine(system, [[]]).fast_lane_engaged()

    def test_fault_injector_disengages(self):
        config = small_config(SparseSpec())
        system = System(config)
        system.fault_injector = object()
        engine = TraceEngine(system, [[]], fast_path=True)
        assert not engine.fast_lane_engaged()


class TestMeasureStartEvent:
    def test_reference_lane_emits_measure_start(self):
        config = small_config(SparseSpec())
        streams = generate_streams("bodytrack", config, 2000, seed=5)
        sink = RingBufferSink()
        run_trace(System(config), streams, observer=Tracer(sink))
        marks = [e for e in sink.events() if e.kind == "measure:start"]
        assert len(marks) == 1
        assert marks[0].data["warmup_accesses"] > 0
        assert marks[0].cycle is not None

    def test_zero_warmup_emits_no_mark(self):
        config = small_config(SparseSpec())
        streams = generate_streams("bodytrack", config, 2000, seed=5)
        sink = RingBufferSink()
        run_trace(
            System(config), streams, warmup_fraction=0.0, observer=Tracer(sink)
        )
        assert not [e for e in sink.events() if e.kind == "measure:start"]


class TestTraceCache:
    def test_same_key_reuses_stream_objects(self):
        config = small_config(SparseSpec())
        first = generate_streams("bodytrack", config, 1000, seed=7)
        second = generate_streams("bodytrack", config, 1000, seed=7)
        assert second is first
        stats = trace_cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1

    def test_different_seed_misses(self):
        config = small_config(SparseSpec())
        first = generate_streams("bodytrack", config, 1000, seed=7)
        other = generate_streams("bodytrack", config, 1000, seed=8)
        assert other is not first
        assert trace_cache_stats()["misses"] == 2

    def test_scheme_does_not_key_the_cache(self):
        # Generation is scheme-independent: the same geometry under two
        # schemes must share one entry.
        sparse = generate_streams(
            "bodytrack", small_config(SparseSpec()), 1000, seed=7
        )
        tiny = generate_streams(
            "bodytrack", small_config(TinySpec()), 1000, seed=7
        )
        assert tiny is sparse

    def test_env_off_disables(self, monkeypatch):
        monkeypatch.setenv(ENV_TRACE_CACHE, "off")
        config = small_config(SparseSpec())
        first = generate_streams("bodytrack", config, 1000, seed=7)
        second = generate_streams("bodytrack", config, 1000, seed=7)
        assert second is not first
        assert trace_cache_stats()["entries"] == 0

    def test_capacity_evicts_lru(self, monkeypatch):
        monkeypatch.setenv(ENV_TRACE_CACHE, "1")
        config = small_config(SparseSpec())
        first = generate_streams("bodytrack", config, 1000, seed=1)
        generate_streams("bodytrack", config, 1000, seed=2)
        assert trace_cache_stats()["entries"] == 1
        refetched = generate_streams("bodytrack", config, 1000, seed=1)
        assert refetched is not first  # seed=1 was evicted by seed=2

    def test_unrecognized_capacity_warns_and_defaults(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv(ENV_TRACE_CACHE, "many")
        config = small_config(SparseSpec())
        first = generate_streams("bodytrack", config, 1000, seed=7)
        assert generate_streams("bodytrack", config, 1000, seed=7) is first
        assert ENV_TRACE_CACHE in capsys.readouterr().err


def _load_compare_bench():
    spec = importlib.util.spec_from_file_location(
        "compare_bench", REPO / "tools" / "compare_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCompareBench:
    def test_floor_violation_fails(self):
        cb = _load_compare_bench()
        spec = {"direction": "higher", "floor": 1.5}
        failures = cb.compare_metric("p", "speedup", spec, 2.0, 1.2, 0.15)
        assert failures and "floor" in failures[0]

    def test_within_tolerance_passes(self):
        cb = _load_compare_bench()
        spec = {"direction": "higher", "floor": 1.5}
        assert not cb.compare_metric("p", "speedup", spec, 2.0, 1.8, 0.15)

    def test_regression_beyond_tolerance_fails(self):
        cb = _load_compare_bench()
        spec = {"direction": "higher", "floor": 1.5}
        failures = cb.compare_metric("p", "speedup", spec, 2.2, 1.6, 0.15)
        assert failures and "regressed" in failures[0]

    def test_floor_only_skips_baseline_tolerance(self):
        cb = _load_compare_bench()
        spec = {"direction": "higher", "floor": 1.0, "floor_only": True}
        # 1.1 is a huge relative drop from 9.0 but still above the floor.
        assert not cb.compare_metric("p", "speedup", spec, 9.0, 1.1, 0.15)

    def test_missing_candidate_metric_fails(self):
        cb = _load_compare_bench()
        spec = {"direction": "higher", "floor": 1.0}
        failures = cb.compare_metric("p", "speedup", spec, 2.0, None, 0.15)
        assert failures and "missing" in failures[0]

    def test_directory_compare_end_to_end(self, tmp_path):
        cb = _load_compare_bench()
        baseline = tmp_path / "baseline"
        candidate = tmp_path / "candidate"
        baseline.mkdir()
        candidate.mkdir()
        gate = {"speedup": {"direction": "higher", "floor": 1.5}}
        point = {"name": "p", "metrics": {"speedup": 2.0}, "gate": gate}
        (baseline / "BENCH_p.json").write_text(json.dumps(point))
        good = dict(point, metrics={"speedup": 1.9})
        (candidate / "BENCH_p.json").write_text(json.dumps(good))
        report, failures = cb.compare(str(baseline), str(candidate), 0.15)
        assert not failures
        assert any("speedup=1.9" in line for line in report)

    def test_missing_candidate_point_fails(self, tmp_path):
        cb = _load_compare_bench()
        baseline = tmp_path / "baseline"
        candidate = tmp_path / "candidate"
        baseline.mkdir()
        candidate.mkdir()
        point = {
            "name": "p",
            "metrics": {"speedup": 2.0},
            "gate": {"speedup": {"direction": "higher", "floor": 1.5}},
        }
        (baseline / "BENCH_p.json").write_text(json.dumps(point))
        _, failures = cb.compare(str(baseline), str(candidate), 0.15)
        assert failures and "not produced" in failures[0]

    def test_new_point_without_baseline_is_not_gated(self, tmp_path):
        cb = _load_compare_bench()
        baseline = tmp_path / "baseline"
        candidate = tmp_path / "candidate"
        baseline.mkdir()
        candidate.mkdir()
        point = {
            "name": "fresh",
            "metrics": {"speedup": 0.1},
            "gate": {"speedup": {"direction": "higher", "floor": 1.5}},
        }
        (candidate / "BENCH_fresh.json").write_text(json.dumps(point))
        report, failures = cb.compare(str(baseline), str(candidate), 0.15)
        assert not failures
        assert any("no baseline" in line for line in report)

    def test_committed_baselines_pass_their_own_gate(self):
        cb = _load_compare_bench()
        baselines = REPO / "benchmarks" / "baselines"
        _, failures = cb.compare(str(baselines), str(baselines), 0.15)
        assert not failures
