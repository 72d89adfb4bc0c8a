#!/usr/bin/env python3
"""One round of one benchmark workload, run by ``run.py`` in a fresh process.

A fresh process per round means every round imports ``repro``, starts
with an empty trace cache and (for ``figure_sweep``) a cold result
cache, so every round does the same work and set-up time includes the
import. The round prints one JSON object as its last line of output:
timings, one row per cell or sweep point (with a digest of its
statistics), check outcomes, and with ``--trace`` the per-layer
metrics.

    python3 perfbench/one_round.py --workload paper_miss --seed 1 [--trace] [--check]
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def digest(stats) -> str:
    """Short fingerprint of a run's complete statistics."""
    payload = json.dumps(stats.dump(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _dir_evictions(stats) -> int:
    structures = stats.structures
    return int(structures.get("dir_evictions", 0) + structures.get("tiny_evictions", 0))


def stats_row(app: str, scheme: str, accesses: int, seconds: float, stats) -> dict:
    """One output row: host time and the simulated counts of a cell."""
    measured = max(1, stats.accesses)
    return {
        "app": app,
        "scheme": scheme,
        "accesses": accesses,
        "run_s": seconds,
        "us_per_access": seconds / max(1, accesses) * 1e6,
        "l1_frac": stats.l1_hits / measured,
        "l2_frac": stats.l2_hits / measured,
        "measured_accesses": stats.accesses,
        "private_hits": stats.l1_hits + stats.l2_hits,
        "llc_transactions": stats.llc_transactions,
        "llc_misses": stats.llc_misses,
        "invalidations": stats.invalidations,
        "back_invalidations": stats.back_invalidations,
        "spills": stats.spills,
        "dir_evictions": _dir_evictions(stats),
        "digest": digest(stats),
        "error": None,
    }


def peak_rss_mb(include_children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _plain(_layer, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _layer(totals, layer) -> "tuple[int, float, float]":
    return tuple(totals.get(layer, (0, 0.0, 0.0)))


def _per_call(seconds: float, calls: int, scale: float = 1e6) -> float:
    return seconds / calls * scale if calls else 0.0


def _simulated(rows) -> dict:
    """Summed simulated counts (exact, lane- and host-independent)."""
    measured = sum(r["measured_accesses"] for r in rows)
    return {
        "sim.private_hit_frac": sum(r["private_hits"] for r in rows) / max(1, measured),
        "coherence.llc_misses": sum(r["llc_misses"] for r in rows),
        "coherence.invalidations": sum(r["invalidations"] for r in rows),
        "coherence.back_invalidations": sum(r["back_invalidations"] for r in rows),
        "coherence.spills": sum(r["spills"] for r in rows),
        "directory.evictions": sum(r["dir_evictions"] for r in rows),
    }


# ----------------------------------------------------------------------
# Serial workloads: paper_miss, private_hot, observed
# ----------------------------------------------------------------------

def serial_round(name: str, seed: int, traced: bool, check: bool) -> dict:
    from repro.resilience.auditor import ProtocolAuditor
    from repro.sim.engine import run_trace
    from repro.sim.system import System
    from repro.verify.oracle import ValueOracle
    from repro.workloads.generator import generate_streams

    import workloads
    from layers import Instrumentation, SpanRecorder

    recorder = SpanRecorder() if traced else None
    timed = recorder.call if traced else _plain
    prepared = []
    for cell in workloads.SERIAL[name](seed):
        config = cell.scale.make_config(cell.scheme)
        streams = timed(
            "workloads.generate", generate_streams, cell.profile, config,
            cell.scale.total_accesses, seed=cell.scale.seed,
        )
        system = timed("sim.build", System, config)
        auditor = ProtocolAuditor() if cell.observed else None
        oracle = ValueOracle() if cell.observed else None
        prepared.append((cell, config, streams, system, auditor, oracle))
    setup_s = time.perf_counter() - STARTED

    rows, cell_layers, sim_s, accesses = [], [], 0.0, 0
    for cell, _config, streams, system, auditor, oracle in prepared:
        length = sum(len(stream) for stream in streams)
        instrumentation = None
        if traced:
            instrumentation = Instrumentation(recorder)
            instrumentation.system(system, auditor, oracle)
            before = recorder.snapshot()
        started = time.perf_counter()
        try:
            stats = timed(
                "sim.run", run_trace, system, streams, auditor=auditor, oracle=oracle
            )
        except Exception as err:  # noqa: BLE001 - a failed cell is reported, not fatal
            stats = None
            error = f"{type(err).__name__}: {err}"
        finally:
            if instrumentation is not None:
                instrumentation.undo()
        elapsed = time.perf_counter() - started
        sim_s += elapsed
        accesses += length
        if stats is None:
            rows.append({"app": cell.app, "scheme": cell.scheme_name, "error": error})
            continue
        rows.append(stats_row(cell.app, cell.scheme_name, length, elapsed, stats))
        if traced:
            after = recorder.snapshot()
            cell_layers.append(
                {
                    layer: tuple(a - b for a, b in zip(after[layer], before.get(layer, (0, 0.0, 0.0))))
                    for layer in after
                }
            )
    wall_s = time.perf_counter() - STARTED
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "timed_s": sim_s,
        "accesses": accesses,
        "peak_rss_mb": peak_rss_mb(),
        "point_s": [row["run_s"] for row in rows if not row["error"]],
        "rows": rows,
        "checks": [],
    }
    if check:
        result["checks"].extend(_lane_checks(prepared, rows))
    if traced:
        result["layers"] = _serial_layers(recorder, prepared, rows, cell_layers)
        result["checks"].extend(_accounting_checks(rows, cell_layers))
        result["spans"] = recorder.spans
    return result


def _lane_checks(prepared, rows) -> "list[dict]":
    """Observed cells must match the fast (unobserved) lane bit for bit."""
    from repro.sim.engine import run_trace
    from repro.sim.system import System

    checks = []
    for (cell, config, streams, *_), row in zip(prepared, rows):
        if not cell.observed or row["error"]:
            continue
        fast = run_trace(System(config), streams, fast_path=True)
        checks.append(
            {
                "name": f"observed==fast {cell.label}",
                "ok": digest(fast) == row["digest"],
                "cell": cell.label,
            }
        )
    return checks


#: Direct children of ``sim.run``: what engine self time excludes.
_RUN_CHILDREN = (
    "coherence.access",
    "coherence.eviction",
    "sim.finalize",
    "resilience.audit",
    "verify.oracle",
)


def _engine_self(layers) -> float:
    """``sim.run`` time minus its home, finalize, audit and oracle spans."""
    return _layer(layers, "sim.run")[1] - sum(
        _layer(layers, child)[1] for child in _RUN_CHILDREN
    )


def _accounting_checks(rows, cell_layers) -> "list[dict]":
    """Per cell: engine self + direct children == run_trace time."""
    checks = []
    good = [row for row in rows if not row["error"]]
    for row, layers in zip(good, cell_layers):
        run = _layer(layers, "sim.run")
        engine_self = _engine_self(layers)
        # The span tree's own self time of sim.run also excludes any
        # other direct child (the warmup reset clears the traffic
        # meter); those must stay negligible.
        checks.append(
            {
                "name": f"span accounting {row['app']}/{row['scheme']}",
                "ok": 0.0 <= run[2] <= engine_self <= run[2] + 1e-3 * run[1],
                "cell": f"{row['app']}/{row['scheme']}",
            }
        )
    return checks


def _serial_layers(recorder, prepared, rows, cell_layers) -> dict:
    totals = recorder.totals
    good = [row for row in rows if not row["error"]]
    unique_streams = {id(streams): streams for _, _, streams, *_ in prepared}
    generated = sum(sum(len(s) for s in streams) for streams in unique_streams.values())
    gen = _layer(totals, "workloads.generate")
    run = _layer(totals, "sim.run")
    access = _layer(totals, "coherence.access")
    eviction = _layer(totals, "coherence.eviction")
    accesses = sum(row["accesses"] for row in good)
    home_s = access[1] + eviction[1]
    metrics = {
        "workloads.generate_s": gen[1],
        "workloads.generated_accesses": generated,
        "workloads.us_per_generated_access": _per_call(gen[1], generated),
        "sim.build_s": _layer(totals, "sim.build")[1],
        "sim.run_s": run[1],
        "sim.accesses": accesses,
        "sim.finalize_s": _layer(totals, "sim.finalize")[1],
        "sim.engine_self_s": _engine_self(totals),
        "sim.engine_us_per_access": _per_call(_engine_self(totals), accesses),
        "coherence.handle_access_calls": access[0],
        "coherence.handle_access_s": access[1],
        "coherence.us_per_handle_access": _per_call(access[1], access[0]),
        "coherence.eviction_calls": eviction[0],
        "coherence.eviction_s": eviction[1],
        "coherence.self_s": access[2] + eviction[2],
        "coherence.us_per_llc_transaction": _per_call(home_s, access[0] + eviction[0]),
        "coherence.run_share": home_s / run[1] if run[1] else 0.0,
    }
    for scheme in ("sparse", "tiny", "mgd", "in_llc", "stash"):
        calls = seconds = 0
        for row, layers in zip(good, cell_layers):
            if row["scheme"] == scheme:
                calls += _layer(layers, "coherence.access")[0]
                seconds += _layer(layers, "coherence.access")[1]
        metrics[f"coherence.us_per_handle_access.{scheme}"] = _per_call(seconds, calls)
    for layer in ("directory", "llc", "memory", "interconnect"):
        calls, seconds, _ = _layer(totals, layer)
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.s"] = seconds
        metrics[f"{layer}.us_per_call"] = _per_call(seconds, calls)
    audits = _layer(totals, "resilience.audit")
    oracle = _layer(totals, "verify.oracle")
    metrics.update(
        {
            "resilience.audits": audits[0],
            "resilience.audit_s": audits[1],
            "resilience.ms_per_audit": _per_call(audits[1], audits[0], 1e3),
            "verify.oracle_calls": oracle[0],
            "verify.oracle_s": oracle[1],
        }
    )
    metrics.update(_simulated(good))
    return metrics


# ----------------------------------------------------------------------
# figure_sweep: plan, cold parallel sweep, warm render
# ----------------------------------------------------------------------

def paper_gap(figures) -> float:
    """Mean |rendered Average - paper average| over every column.

    The paper's averages are the numbers quoted in each figure title
    after ``paper avg:``, in column order.
    """
    gaps = []
    for figure in figures:
        quoted = figure.title.split("paper avg:", 1)[1]
        paper = [float(x) for x in re.findall(r"\d+\.\d+", quoted)]
        if len(paper) != len(figure.columns):
            raise ValueError(f"{figure.figure_id}: cannot read the paper averages")
        gaps.extend(
            abs(figure.average(column) - value)
            for column, value in zip(figure.columns, paper)
        )
    return sum(gaps) / len(gaps)


def figure_round(seed: int, traced: bool, check: bool) -> dict:
    from repro.analysis import experiments
    from repro.analysis.runner import run_app
    from repro.parallel import collect_points, dedupe_points, pending_points, run_sweep
    from repro.sim.config import SparseSpec
    from repro.workloads.generator import generate_streams
    from repro.workloads.profiles import profile

    import workloads
    from layers import SpanRecorder

    recorder = SpanRecorder() if traced else None
    timed = recorder.call if traced else _plain
    scale = workloads.figure_scale(seed)
    apps = list(workloads.FIGURE_APPS)
    plan = (
        (experiments.tiny_directory_performance, (1 / 256, scale, apps)),
        (experiments.fig22_mgd_stash, (scale, apps)),
    )

    def planned():
        return dedupe_points(p for fn, args in plan for p in collect_points(fn, *args))

    points = timed("parallel.plan", planned)
    setup_s = time.perf_counter() - STARTED
    started = time.perf_counter()
    report = timed("parallel.sweep", run_sweep, points, jobs=workloads.FIGURE_JOBS)
    sweep_s = time.perf_counter() - started

    render_calls = []
    original_cached_run = experiments.cached_run
    if traced:
        def counted(app, scheme, run_scale=None):
            begun = time.perf_counter()
            result = original_cached_run(app, scheme, run_scale)
            render_calls.append((time.perf_counter() - begun, bool(result.meta.get("cached"))))
            return result

        experiments.cached_run = counted
    try:
        render_started = time.perf_counter()
        figures = timed("analysis.render", lambda: [fn(*args) for fn, args in plan])
        text = "\n".join(figure.render() for figure in figures)
        render_s = time.perf_counter() - render_started
    finally:
        experiments.cached_run = original_cached_run
    wall_s = time.perf_counter() - STARTED
    rss = peak_rss_mb(include_children=True)

    # Outside the measured round: count each app's generated accesses
    # (warmup included), which the workers do not report.
    base_config = scale.make_config(SparseSpec())
    generated = {
        app: sum(
            len(s)
            for s in generate_streams(profile(app), base_config, scale.total_accesses, seed=scale.seed)
        )
        for app in apps
    }
    rows = []
    for point, result, run_profile in zip(report.points, report.results, report.profiles):
        if result is None or result.meta.get("failed"):
            error = (result.meta.get("error") if result is not None else None) or "no result"
            rows.append({"app": point.app, "scheme": point.scheme_name, "error": error})
            continue
        row = stats_row(point.app, point.scheme_name, generated[point.app], run_profile.wall_s, result.stats)
        row["label"] = _point_label(point)
        rows.append(row)
    accesses = sum(generated[point.app] for point in report.points)
    checks = [
        {
            "name": f"{figure.figure_id} rendered without failures",
            "ok": not figure.failures
            and all(
                math.isfinite(v) and v > 0 for values in figure.values.values() for v in values
            ),
        }
        for figure in figures
    ]
    checks.append({"name": "warm render needed no simulation", "ok": not pending_points(points)})
    gap = paper_gap(figures)
    if check:
        for index in sorted({0, len(points) - 1}):
            point = points[index]
            serial = run_app(point.app, point.scheme, point.scale)
            checks.append(
                {
                    "name": f"sweep==serial {point}",
                    "ok": rows[index].get("digest") == digest(serial.stats),
                    "cell": _point_label(point),
                }
            )
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "timed_s": sweep_s,
        "accesses": accesses,
        "peak_rss_mb": rss,
        "point_s": [p.wall_s for p in report.profiles if p is not None],
        "rows": rows,
        "checks": checks,
        "paper_gap": gap,
        "figures": text,
    }
    if traced:
        summary = report.summary()
        busiest = {}
        for run_profile in report.profiles:
            busiest[run_profile.worker] = busiest.get(run_profile.worker, 0.0) + run_profile.wall_s
        loads = [seconds for seconds, _ in render_calls]
        hits = sum(1 for _, hit in render_calls if hit)
        metrics = {
            "sim.accesses": accesses,
            "parallel.points": len(points),
            "parallel.cpu_s": summary.cpu_s,
            "parallel.utilization": summary.cpu_s / (sweep_s * report.jobs),
            "parallel.point_s_p50": statistics.median(result["point_s"]),
            "parallel.overhead_s": sweep_s - max(busiest.values()),
            "analysis.render_s": render_s,
            "analysis.cache_hits": hits,
            "analysis.cache_misses": len(render_calls) - hits,
            "analysis.cache_load_ms": sum(loads) / len(loads) * 1e3 if loads else 0.0,
            "analysis.paper_gap": gap,
        }
        metrics.update(_simulated([row for row in rows if not row["error"]]))
        result["layers"] = metrics
        result["spans"] = recorder.spans
    return result


def _point_label(point) -> str:
    """A row label that tells the MgD/Stash sizes apart."""
    ratio = getattr(point.scheme, "ratio", None)
    policy = getattr(point.scheme, "policy", "")
    spill = "+spill" if getattr(point.scheme, "spill", False) else ""
    size = f" {ratio:.4g}x" if ratio is not None else ""
    return f"{point.app}/{point.scheme_name}{size}{' ' + policy if policy else ''}{spill}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="time each layer")
    parser.add_argument("--check", action="store_true", help="run the lane checks")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"one_round: no repro package under {os.path.normpath(SRC)}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.normpath(SRC))
    import repro  # noqa: F401 - the import is part of the measured set-up

    if args.workload == "figure_sweep":
        result = figure_round(args.seed, args.trace, args.check)
    else:
        result = serial_round(args.workload, args.seed, args.trace, args.check)
    result.update(workload=args.workload, seed=args.seed, traced=args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
