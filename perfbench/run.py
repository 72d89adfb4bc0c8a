#!/usr/bin/env python3
"""The repository benchmark: host time of the simulator, end to end and per layer.

Runs one workload (or ``all``) for about ``--seconds`` seconds as a
series of rounds, each a fresh process (``one_round.py``), and prints a
table of every metric with its unit, one row per cell, and as the last
line one JSON object::

    {"correct": true, "attempted": 36, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json`` (medians over rounds); with ``--trace 1`` they are
its ``per_layer`` metrics, from traced rounds interleaved with untraced
ones. Every round's statistics digests must match the first round's,
traced or not, or the cell counts as failed. See ``perfbench/README.md``.

    python3 perfbench/run.py --workload paper_miss --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_miss", "private_hot", "observed", "figure_sweep")
#: Working directory for round result caches and the run's span dump.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Fewest rounds per run: untraced rounds, and untraced+traced pairs.
MIN_ROUNDS = {False: 3, True: 2}
ROUND_TIMEOUT_S = 150
#: The calibration loop's time on the quiet development host. Host-time
#: metrics are reported at this host speed: raw value x (reference /
#: the run's median calibration time), which cancels the slow drift in
#: the speed of a shared host (see README, "Host normalization").
CALIB_REFERENCE_S = 0.07
TIME_UNITS = ("s", "ms", "us")
#: CPUs a workload runs on: one for the serial workloads, one per sweep
#: worker for figure_sweep. A run pins itself, and so its round
#: processes, to them, and calibrates on each of them, so the
#: calibration sees the CPUs the rounds run on.
CPUS = {"figure_sweep": 2}


class RoundError(RuntimeError):
    """A round process died without a result."""


def calibrate(cpus: "list[int]") -> float:
    """Mean time of a fixed pure-Python loop on each of ``cpus``."""
    times = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        started = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        times.append(time.perf_counter() - started)
    os.sched_setaffinity(0, set(cpus))
    return sum(times) / len(times)


def run_round(workload: str, seed: int, traced: bool, check: bool, index: int) -> dict:
    """One round in a fresh process with a fresh result cache."""
    cache = os.path.join(OUT_DIR, f"cache-{os.getpid()}-{index}")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(REPRO_CACHE_DIR=cache, PYTHONHASHSEED="0")
    command = [
        sys.executable,
        os.path.join(HERE, "one_round.py"),
        "--workload", workload,
        "--seed", str(seed),
    ]
    command += ["--trace"] * traced + ["--check"] * check
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as err:
        raise RoundError(f"{workload} round timed out after {err.timeout}s") from err
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RoundError(
            f"{workload} round exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Rounds until the next would overrun ``seconds``.

    Returns the untraced rounds, the traced rounds and the calibration
    times, one taken before every round and one after the last.
    """
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)[: CPUS.get(workload, 1)]
    os.sched_setaffinity(0, set(cpus))
    started = time.perf_counter()
    untraced, traced, calib = [], [], []
    try:
        while True:
            index = len(untraced)
            calib.append(calibrate(cpus))
            untraced.append(run_round(workload, seed, False, index == 0, 2 * index))
            if trace:
                calib.append(calibrate(cpus))
                traced.append(run_round(workload, seed, True, False, 2 * index + 1))
            elapsed = time.perf_counter() - started
            if len(untraced) >= MIN_ROUNDS[trace] and elapsed * (
                1 + 1 / len(untraced)
            ) > seconds:
                calib.append(calibrate(cpus))
                return untraced, traced, calib
    finally:
        os.sched_setaffinity(0, allowed)


def grade(rounds: "list[dict]") -> "tuple[int, int, list[str]]":
    """(attempted, failed, messages) over every round's cells.

    A cell fails when it raised, when its digest differs from the first
    round's, or when a check naming it failed; a failed check naming no
    cell fails every cell of its round.
    """
    reference = [row.get("digest") for row in rounds[0]["rows"]]
    attempted = failed = 0
    messages = []
    for number, result in enumerate(rounds):
        rows = result["rows"]
        bad = set()
        for i, row in enumerate(rows):
            if row.get("error"):
                bad.add(i)
                messages.append(f"round {number}: {row['app']}/{row['scheme']}: {row['error']}")
            elif i >= len(reference) or row["digest"] != reference[i]:
                bad.add(i)
                messages.append(
                    f"round {number}: {row['app']}/{row['scheme']}: statistics "
                    f"digest {row['digest']} differs from round 0"
                )
        labels = [f"{r['app']}/{r['scheme']}" for r in rows]
        for check in result["checks"]:
            if check["ok"]:
                continue
            messages.append(f"round {number}: check failed: {check['name']}")
            cell = check.get("cell")
            hits = [i for i, row in enumerate(rows) if cell in (labels[i], row.get("label"))]
            bad.update(hits if cell else range(len(rows)))
        if len(rows) != len(reference):
            messages.append(f"round {number}: {len(rows)} cells, round 0 had {len(reference)}")
            bad.update(range(max(len(rows), len(reference))))
        attempted += max(len(rows), len(reference))
        failed += len(bad)
    return attempted, failed, messages


def end_to_end(untraced: "list[dict]") -> dict:
    points = [s for result in untraced for s in result["point_s"]]
    deciles = statistics.quantiles(points, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "us_per_access": statistics.median(
            r["timed_s"] / r["accesses"] * 1e6 for r in untraced
        ),
        "point_s_p50": deciles[4],
        "point_s_p80": deciles[7],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }


def per_layer(untraced, traced, names) -> dict:
    metrics = {name: 0.0 for name in names}
    for name in names:
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        if values:
            metrics[name] = statistics.median(values)
    metrics["trace_overhead"] = statistics.median(
        t["timed_s"] / u["timed_s"] for u, t in zip(untraced, traced)
    )
    return metrics


def normalize(raw: dict, units: dict, calib_s: float) -> dict:
    """Host-time metrics at the reference host speed; others unchanged."""
    speed = CALIB_REFERENCE_S / calib_s
    return {
        name: value * speed if units[name] in TIME_UNITS and name != "calib_s" else value
        for name, value in raw.items()
    }


def report(workload, seed, untraced, traced, metrics, raw, units, attempted, failed, calib_s):
    """The human-readable table printed above the JSON line."""
    kind = "per-layer (traced)" if traced else "end-to-end (untraced)"
    print(
        f"perfbench {workload} seed={seed}: {len(untraced)} untraced"
        + (f" + {len(traced)} traced" if traced else "")
        + f" rounds, {kind} metrics; calib_s={calib_s:.4f}, so host-time "
        f"metrics are scaled by {CALIB_REFERENCE_S / calib_s:.4f} (raw value in brackets)"
    )
    samples = sum(len(r["point_s"]) for r in untraced)
    for name, value in metrics.items():
        note = f"  [{raw[name]:.6g}]" if raw[name] != value else ""
        if name.startswith("point_s_"):
            note += f"  (n={samples} {'points' if workload == 'figure_sweep' else 'cells'})"
        elif name in ("setup_s", "wall_s", "us_per_access", "peak_rss_mb"):
            note += f"  (median of {len(untraced)} rounds)"
        print(f"  {name:<40} {value:>14.6g} {units[name]}{note}")
    print(f"  {'error_rate':<40} {failed / attempted:>14.6g} fraction  ({failed}/{attempted} failed)")
    if workload == "figure_sweep":
        print(f"  {'paper_gap (simulated)':<40} {untraced[0]['paper_gap']:>14.6g} ratio")
    print("  cells: app/scheme, accesses, us/access (median over rounds), L1/L2 hit "
          "fraction, llc_misses, back_invalidations, digest")
    for i, row in enumerate(untraced[0]["rows"]):
        if row.get("error"):
            print(f"    {row['app']}/{row['scheme']}: ERROR {row['error']}")
            continue
        us = statistics.median(
            r["rows"][i]["us_per_access"] for r in untraced
            if i < len(r["rows"]) and not r["rows"][i].get("error")
        )
        print(
            f"    {row.get('label', row['app'] + '/' + row['scheme']):<36} "
            f"{row['accesses']:>8} {us:>8.2f} {row['l1_frac']:.3f}/{row['l2_frac']:.3f} "
            f"{row['llc_misses']:>8} {row['back_invalidations']:>7} {row['digest']}"
        )
    if workload == "figure_sweep":
        print(untraced[0]["figures"])


def run_workload(workload, seed, seconds, trace, spec) -> dict:
    untraced, traced, calib = measure(workload, seed, seconds, trace)
    calib_s = statistics.median(calib)
    attempted, failed, messages = grade(untraced + traced)
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        raw = per_layer(untraced, traced, names)
        raw["calib_s"] = calib_s
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        raw = end_to_end(untraced)
    metrics = normalize(raw, units, calib_s)
    report(workload, seed, untraced, traced, metrics, raw, units, attempted, failed, calib_s)
    for message in messages:
        print(f"  FAILED {message}")
    dump = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(dump, "w") as handle:
        json.dump(
            {"untraced": untraced, "traced": traced, "calib": calib, "raw": raw, "metrics": metrics},
            handle,
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro package next to perfbench/", file=sys.stderr)
        return 2
    with open(spec_path) as handle:
        spec = json.load(handle)
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
            for name in names
        }
    except RoundError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}.{name}": value
                for workload, result in results.items()
                for name, value in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
