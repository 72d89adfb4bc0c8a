"""Cross-scheme differential regression over recorded traces.

The paper's claims are relative — tiny directory vs. sparse / in-LLC /
MGD / stash on the *same* access stream — so the strongest correctness
check we have is to replay one durable trace through every scheme and
prove they agree architecturally while their statistics diverge only
where the designs differ:

* **Architectural agreement.** Each scheme runs under the SC
  :class:`~repro.verify.oracle.ValueOracle` plus the
  :class:`~repro.resilience.auditor.ProtocolAuditor`, ends with a
  closing audit, and must pass a **final-image check**: every block
  still resident in a private cache carries the oracle's last-writer
  token for its address (per-address last-writer agreement). Any
  violation marks the scheme divergent.
* **Issued-access identity.** With no warmup cut, the issued access
  counts (:data:`EXACT_KEYS`) are scheme-independent by construction
  and must match *exactly* across all schemes.
* **Stat-delta tolerances.** Performance statistics legitimately
  differ between schemes; each scheme pair is held to a relative-delta
  tolerance spec (:func:`tolerance_for`), tuned against the committed
  scenario corpus, so a regression that blows a scheme's miss rate or
  cycle count out of its historical envelope trips the diff even when
  every protocol invariant still holds.

On divergence the harness reports the first-divergence point and — with
``bisect`` — prefix-bisects the trace down to a **minimal replayable
sub-trace**: monitored runs are *bounded* (stop after ``limit`` global
engine steps, then run the closing audit + final-image check), which
makes "prefix of length L fails" monotone in L for the corrupted-state
faults the injector produces; binary search then finds the shortest
failing prefix, and per-core truncation at the executed counts yields a
sub-trace whose min-clock replay reproduces that exact prefix (the
truncated entries could only have been popped after step L). The
sub-trace is saved as a normal ``.rtrace`` capture whose header ``meta``
carries the scheme, spec, fault plan, and parent-trace provenance, so
``python -m repro diff --trace sub.rtrace`` re-triggers the violation.

Entry point: ``python -m repro diff`` (:mod:`repro.verify.diff_cli`).
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import (
    FaultInjectionError,
    OracleViolation,
    ProtocolError,
    TraceError,
)
from repro.parallel import run_tasks
from repro.resilience.auditor import ProtocolAuditor
from repro.resilience.faults import Fault, FaultInjector, FaultKind, FaultPlan
from repro.sim.config import SystemConfig
from repro.sim.deadline import CHECK_STRIDE, check_deadline
from repro.sim.engine import run_trace
from repro.sim.system import System
from repro.verify.oracle import ValueOracle
from repro.verify.reproducer import (
    default_verify_spec,
    spec_from_dict,
    spec_to_dict,
)
from repro.workloads.capture import load_capture, save_capture

#: The five schemes a differential run covers by default.
ALL_SCHEMES = ("sparse", "in_llc", "tiny", "mgd", "stash")

#: Audit cadence for monitored differential runs. Small, because the
#: corpus traces are tiny and a tight cadence keeps the first-divergence
#: report close to the actual corruption.
DEFAULT_DIFF_AUDIT_INTERVAL = 64

#: Default private-hierarchy geometry for differential runs
#: (verification scale; overridden by the trace header when recorded).
DIFF_L1_KB = 1
DIFF_L2_KB = 4

#: Statistics that must be *exactly* equal across schemes: with no
#: warmup cut, every scheme issues the identical access stream, so the
#: issued-access counters are scheme-independent by construction.
EXACT_KEYS = ("accesses", "reads", "writes", "ifetches")

#: Relative stat-delta tolerances applied to every scheme pair unless
#: a pair override says otherwise: ``|a - b| / max(a, b, 1)`` must stay
#: below the listed value. Calibrated against the committed scenario
#: corpus (see ``tools/rebuild_corpus.py``) with ~2x headroom over the
#: worst observed pairwise delta.
DEFAULT_TOLERANCES = {
    "cycles": 0.20,
    "llc_misses": 0.10,
}

#: Per-pair overrides, keyed by ``frozenset({scheme_a, scheme_b})``.
#: The verification-scale sparse directory (ratio 0.125, so every
#: private block contends for a scarce entry) and MGD (block-grain
#: entries per tracked private block) pay ~25% more cycles than the
#: in-LLC family and stash on private-dominated traces, where those
#: schemes track essentially for free; the corpus worst case is 0.256
#: (mgd-stash on private-heavy).
PAIR_TOLERANCES = {
    frozenset({"sparse", "in_llc"}): {"cycles": 0.40},
    frozenset({"sparse", "tiny"}): {"cycles": 0.40},
    frozenset({"sparse", "stash"}): {"cycles": 0.40},
    frozenset({"mgd", "in_llc"}): {"cycles": 0.40},
    frozenset({"mgd", "tiny"}): {"cycles": 0.40},
    frozenset({"mgd", "stash"}): {"cycles": 0.40},
}


def tolerance_for(scheme_a: str, scheme_b: str) -> "dict[str, float]":
    """The stat-delta tolerance spec for one scheme pair."""
    merged = dict(DEFAULT_TOLERANCES)
    merged.update(PAIR_TOLERANCES.get(frozenset({scheme_a, scheme_b}), {}))
    return merged


# ----------------------------------------------------------------------
# Fault-plan serialization (for sub-trace headers and worker payloads)
# ----------------------------------------------------------------------

def plan_to_dict(plan: FaultPlan) -> dict:
    """JSON-ready form of a :class:`FaultPlan`."""
    return {
        "seed": plan.seed,
        "faults": [
            {
                "kind": fault.kind.value,
                "after_access": fault.after_access,
                "addr": fault.addr,
                "core": fault.core,
            }
            for fault in plan.faults
        ],
    }


def plan_from_dict(payload: dict) -> FaultPlan:
    """Inverse of :func:`plan_to_dict`."""
    try:
        faults = tuple(
            Fault(
                FaultKind(entry["kind"]),
                after_access=int(entry.get("after_access", 1)),
                addr=entry.get("addr"),
                core=entry.get("core"),
            )
            for entry in payload.get("faults", ())
        )
    except (KeyError, TypeError, ValueError) as err:
        raise TraceError(f"malformed fault plan payload: {err}") from err
    return FaultPlan(faults=faults, seed=int(payload.get("seed", 0)))


# ----------------------------------------------------------------------
# Bounded monitored runs
# ----------------------------------------------------------------------

@dataclass
class MonitoredRun:
    """Outcome of one (possibly bounded) fully monitored run."""

    scheme: str
    ok: bool
    #: Stringified violation when not ok.
    violation: "str | None" = None
    #: Exception class name of the violation (OracleViolation, ...).
    violation_kind: "str | None" = None
    #: Global engine steps completed when the run ended or diverged.
    processed: int = 0
    #: Per-core executed access counts at that point.
    executed: "list[int]" = field(default_factory=list)
    #: Faults the injector actually applied, as dicts.
    injected: "list[dict]" = field(default_factory=list)


def _check_final_image(system, oracle: ValueOracle) -> None:
    """Per-address last-writer agreement over the final memory image.

    Every block still valid in a private cache must carry the oracle's
    current last-writer token for its address; a stale stamp means an
    invalidation was lost even though no load happened to observe it.
    """
    for core in system.cores:
        for addr, _state in core.resident_blocks():
            current = oracle.token.get(addr, 0)
            observed = oracle.copy.get((core.core_id, addr), current)
            if observed != current:
                raise OracleViolation(
                    f"final image: core {core.core_id} holds version "
                    f"{observed} of {addr:#x} but the last writer produced "
                    f"version {current}",
                    addr=addr,
                    cores=(core.core_id,),
                )


def run_monitored(
    scheme: str,
    spec,
    streams,
    *,
    limit: "int | None" = None,
    fault_plan: "FaultPlan | None" = None,
    audit_interval: int = DEFAULT_DIFF_AUDIT_INTERVAL,
    l1_kb: int = DIFF_L1_KB,
    l2_kb: int = DIFF_L2_KB,
) -> MonitoredRun:
    """One oracle+audit monitored run, optionally bounded.

    Replicates the reference engine's min-clock interleaving exactly,
    but stops after ``limit`` global steps (when given) and always ends
    with a closing audit plus the final-image check — that closing
    sweep is what makes bounded prefixes a monotone divergence probe:
    once a corruption has been injected, every longer prefix still
    fails. Tracks per-core executed counts so a failing run can be
    truncated into a replayable sub-trace.
    """
    config = SystemConfig(
        num_cores=len(streams), l1_kb=l1_kb, l2_kb=l2_kb, scheme=spec
    )
    injector = FaultInjector(fault_plan) if fault_plan is not None else None
    system = System(config, fault_injector=injector)
    auditor = ProtocolAuditor(interval=audit_interval)
    auditor.install(system)
    oracle = ValueOracle()
    heap = [(0, core, 0) for core, stream in enumerate(streams) if stream]
    heapq.heapify(heap)
    executed = [0] * len(streams)
    processed = 0
    violation: "ProtocolError | None" = None
    try:
        while heap and (limit is None or processed < limit):
            clock, core, index = heapq.heappop(heap)
            acc = streams[core][index]
            issue_time = clock + acc.gap
            pre_state = oracle.pre_state(system, acc.core, acc.addr)
            latency = system.access(acc, issue_time)
            processed += 1
            executed[core] += 1
            oracle.observe(system, acc.core, acc.addr, acc.kind, pre_state)
            if processed % CHECK_STRIDE == 0:
                check_deadline()
            if processed % auditor.interval == 0:
                auditor.audit(system)
            index += 1
            if index < len(streams[core]):
                heapq.heappush(heap, (issue_time + latency, core, index))
        auditor.audit(system)
        _check_final_image(system, oracle)
    except ProtocolError as err:
        violation = err
    except FaultInjectionError as err:
        raise TraceError(
            f"fault plan is not applicable to scheme {scheme!r}: {err} "
            f"(drop_private_copy applies under every scheme; tracking-entry "
            f"kinds need a scheme and firing point where the target block "
            f"actually has a tracking record)"
        ) from err
    return MonitoredRun(
        scheme=scheme,
        ok=violation is None,
        violation=str(violation) if violation is not None else None,
        violation_kind=type(violation).__name__ if violation is not None else None,
        processed=processed,
        executed=executed,
        injected=[
            {
                "kind": rec.kind.value,
                "addr": rec.addr,
                "core": rec.core,
                "access_index": rec.access_index,
                "location": rec.location,
            }
            for rec in (injector.injected if injector is not None else [])
        ],
    )


def run_stats(
    spec,
    streams,
    *,
    l1_kb: int = DIFF_L1_KB,
    l2_kb: int = DIFF_L2_KB,
    fast_path: bool = True,
):
    """One clean, unobserved run; returns the finalized stats dump.

    No warmup cut (``warmup_fraction=0``): the measured window must be
    the whole trace for the :data:`EXACT_KEYS` identity to hold across
    schemes.
    """
    config = SystemConfig(
        num_cores=len(streams), l1_kb=l1_kb, l2_kb=l2_kb, scheme=spec
    )
    stats = run_trace(
        System(config), streams, warmup_fraction=0.0, fast_path=fast_path
    )
    return stats.dump()


# ----------------------------------------------------------------------
# Prefix bisection
# ----------------------------------------------------------------------

def truncate_streams(streams, executed: "list[int]"):
    """Per-core truncation at the executed counts of a bounded run.

    The min-clock schedule pops the same first ``sum(executed)`` entries
    from the truncated streams as from the full trace — a dropped entry
    could only be popped after every kept entry of its core — so
    replaying the truncation reproduces the bounded run exactly.
    """
    return [stream[:count] for stream, count in zip(streams, executed)]


def bisect_divergence(
    scheme: str,
    spec,
    streams,
    *,
    fault_plan: "FaultPlan | None",
    fail_processed: int,
    audit_interval: int = DEFAULT_DIFF_AUDIT_INTERVAL,
    l1_kb: int = DIFF_L1_KB,
    l2_kb: int = DIFF_L2_KB,
) -> "tuple[int, MonitoredRun]":
    """Find the minimal failing prefix length by binary search.

    ``fail_processed`` is a known-failing bound (the step count of the
    divergent run). Returns ``(limit, run)`` where ``run`` is the
    bounded run at the minimal failing ``limit`` — its ``executed``
    counts are what :func:`truncate_streams` needs.
    """

    def attempt(limit: int) -> MonitoredRun:
        return run_monitored(
            scheme,
            spec,
            streams,
            limit=limit,
            fault_plan=fault_plan,
            audit_interval=audit_interval,
            l1_kb=l1_kb,
            l2_kb=l2_kb,
        )

    lo, hi = 1, max(1, fail_processed)
    best = attempt(hi)
    if best.ok:
        # The bound unexpectedly passes (non-monotone divergence, e.g. a
        # transient raced with the audit cadence); fall back to the full
        # run, which is known to fail.
        best = attempt(fail_processed)
        if best.ok:
            raise TraceError(
                f"bisection lost the divergence: scheme {scheme!r} passed "
                f"at its own failure bound {fail_processed}"
            )
    while lo < hi:
        mid = (lo + hi) // 2
        run = attempt(mid)
        if not run.ok:
            best = run
            hi = mid
        else:
            lo = mid + 1
    return hi, best


def save_subtrace(
    path,
    streams,
    run: MonitoredRun,
    *,
    spec,
    fault_plan: "FaultPlan | None",
    parent: "str | None",
    l1_kb: int = DIFF_L1_KB,
    l2_kb: int = DIFF_L2_KB,
) -> Path:
    """Write a minimal failing sub-trace as a replayable capture."""
    sub = truncate_streams(streams, run.executed)
    meta = {
        "differential": {
            "scheme": run.scheme,
            "spec": spec_to_dict(spec),
            "fault_plan": plan_to_dict(fault_plan) if fault_plan else None,
            "parent": parent,
            "violation": run.violation,
            "violation_kind": run.violation_kind,
            "limit": run.processed,
        }
    }
    return save_capture(
        path,
        sub,
        geometry={"num_cores": len(sub), "l1_kb": l1_kb, "l2_kb": l2_kb},
        meta=meta,
    )


def replay_subtrace(path) -> MonitoredRun:
    """Re-run a saved sub-trace under its recorded scheme and faults."""
    streams, header = load_capture(path)
    info = (header.get("meta") or {}).get("differential")
    if not info:
        raise TraceError(
            f"{path} is not a differential sub-trace (no meta.differential)"
        )
    spec = spec_from_dict(info["scheme"], dict(info["spec"]))
    plan = (
        plan_from_dict(info["fault_plan"]) if info.get("fault_plan") else None
    )
    geometry = header.get("geometry") or {}
    return run_monitored(
        info["scheme"],
        spec,
        streams,
        fault_plan=plan,
        l1_kb=int(geometry.get("l1_kb", DIFF_L1_KB)),
        l2_kb=int(geometry.get("l2_kb", DIFF_L2_KB)),
    )


# ----------------------------------------------------------------------
# Per-scheme worker (fanned through repro.parallel)
# ----------------------------------------------------------------------

def diff_task(payload: dict) -> dict:
    """Run one scheme over one trace: stats + monitored (+ bisection).

    Top-level and dict-in/dict-out so :func:`repro.parallel.run_tasks`
    can ship it to pool workers.
    """
    trace = payload["trace"]
    scheme = payload["scheme"]
    spec = spec_from_dict(scheme, dict(payload["spec"]))
    l1_kb = int(payload.get("l1_kb", DIFF_L1_KB))
    l2_kb = int(payload.get("l2_kb", DIFF_L2_KB))
    audit_interval = int(
        payload.get("audit_interval", DEFAULT_DIFF_AUDIT_INTERVAL)
    )
    plan = (
        plan_from_dict(payload["fault_plan"])
        if payload.get("fault_plan")
        else None
    )
    streams, _header = load_capture(trace)
    run = run_monitored(
        scheme,
        spec,
        streams,
        fault_plan=plan,
        audit_interval=audit_interval,
        l1_kb=l1_kb,
        l2_kb=l2_kb,
    )
    result = {
        "scheme": scheme,
        "ok": run.ok,
        "violation": run.violation,
        "violation_kind": run.violation_kind,
        "processed": run.processed,
        "injected": run.injected,
        "stats": None,
        "reproducer": None,
        "reproducer_accesses": None,
    }
    if run.ok:
        result["stats"] = run_stats(
            spec, streams, l1_kb=l1_kb, l2_kb=l2_kb
        )
    elif payload.get("bisect") and payload.get("out"):
        limit, minimal = bisect_divergence(
            scheme,
            spec,
            streams,
            fault_plan=plan,
            fail_processed=run.processed,
            audit_interval=audit_interval,
            l1_kb=l1_kb,
            l2_kb=l2_kb,
        )
        stem = Path(trace).stem
        out_path = Path(payload["out"]) / f"repro-{stem}-{scheme}.rtrace"
        save_subtrace(
            out_path,
            streams,
            minimal,
            spec=spec,
            fault_plan=plan,
            parent=str(trace),
            l1_kb=l1_kb,
            l2_kb=l2_kb,
        )
        result["reproducer"] = str(out_path)
        result["reproducer_accesses"] = sum(minimal.executed)
    return result


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------

def _relative_delta(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1)


def diff_trace(
    trace,
    schemes: "tuple[str, ...] | list[str] | None" = None,
    *,
    fault_plan: "FaultPlan | None" = None,
    bisect: bool = False,
    out_dir=None,
    jobs: "int | None" = None,
    audit_interval: int = DEFAULT_DIFF_AUDIT_INTERVAL,
) -> dict:
    """Differential run of one trace across ``schemes``; returns a report.

    A sub-trace produced by an earlier bisection carries its own scheme,
    spec, and fault plan in the header and is re-run in detection mode
    for that scheme only. With ``fault_plan`` (or a sub-trace plan) the
    expectation *inverts*: every scheme must detect the corruption, and
    a scheme that stays clean is reported as a miss. Without faults, all
    schemes must stay clean, agree exactly on :data:`EXACT_KEYS`, and
    stay within the pairwise stat tolerances.
    """
    trace = Path(trace)
    _streams, header = load_capture(trace)
    geometry = header.get("geometry") or {}
    l1_kb = int(geometry.get("l1_kb", DIFF_L1_KB))
    l2_kb = int(geometry.get("l2_kb", DIFF_L2_KB))
    sub_info = (header.get("meta") or {}).get("differential")
    if sub_info:
        schemes = (sub_info["scheme"],)
        specs = {
            sub_info["scheme"]: spec_from_dict(
                sub_info["scheme"], dict(sub_info["spec"])
            )
        }
        if fault_plan is None and sub_info.get("fault_plan"):
            fault_plan = plan_from_dict(sub_info["fault_plan"])
    else:
        schemes = tuple(schemes) if schemes else ALL_SCHEMES
        specs = {name: default_verify_spec(name) for name in schemes}
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    payloads = [
        {
            "trace": str(trace),
            "scheme": name,
            "spec": spec_to_dict(specs[name]),
            "l1_kb": l1_kb,
            "l2_kb": l2_kb,
            "audit_interval": audit_interval,
            "fault_plan": plan_to_dict(fault_plan) if fault_plan else None,
            "bisect": bisect,
            "out": str(out_dir) if out_dir is not None else None,
        }
        for name in schemes
    ]
    results = run_tasks(diff_task, payloads, jobs=jobs)
    by_scheme = {result["scheme"]: result for result in results}

    report = {
        "trace": str(trace),
        "schemes": by_scheme,
        "fault_plan": plan_to_dict(fault_plan) if fault_plan else None,
        "failures": [],
    }
    failures = report["failures"]
    if fault_plan is not None:
        detected = [name for name in schemes if not by_scheme[name]["ok"]]
        missed = [name for name in schemes if by_scheme[name]["ok"]]
        report["detection"] = {"detected": detected, "missed": missed}
        for name in missed:
            failures.append(
                f"FAULT MISSED: scheme {name} stayed clean under the "
                f"seeded fault plan"
            )
    else:
        clean = [name for name in schemes if by_scheme[name]["ok"]]
        for name in schemes:
            result = by_scheme[name]
            if not result["ok"]:
                failures.append(
                    f"DIVERGED: scheme {name} at step {result['processed']}: "
                    f"{result['violation']}"
                )
        # Issued-access identity across the clean schemes.
        for key in EXACT_KEYS:
            values = {
                name: by_scheme[name]["stats"]["scalars"][key]
                for name in clean
            }
            if len(set(values.values())) > 1:
                failures.append(f"EXACT MISMATCH: {key} differs: {values}")
        # Pairwise stat-delta tolerances.
        for i, name_a in enumerate(clean):
            for name_b in clean[i + 1 :]:
                spec_tol = tolerance_for(name_a, name_b)
                for key, bound in spec_tol.items():
                    value_a = by_scheme[name_a]["stats"]["scalars"][key]
                    value_b = by_scheme[name_b]["stats"]["scalars"][key]
                    delta = _relative_delta(value_a, value_b)
                    if delta > bound:
                        failures.append(
                            f"TOLERANCE: {key} delta {delta:.3f} between "
                            f"{name_a} ({value_a}) and {name_b} ({value_b}) "
                            f"exceeds {bound}"
                        )
    report["ok"] = not failures
    if out_dir is not None:
        report_path = Path(out_dir) / f"diff-{trace.stem}.json"
        report_path.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        report["report_path"] = str(report_path)
    return report
