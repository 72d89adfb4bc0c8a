"""Protocol transition-coverage accounting.

A :class:`CoverageMap` is an observer: attached to a home controller's
``observer`` slot (alone or through :func:`repro.telemetry.fan_out`),
it counts the kinds the protocol emits there. Unobserved runs pay only
the slot's ``is not None`` test at each emission site, so they execute
the same instructions they always did and stay bit-identical.

Kinds are the ``group:event`` rows of
:data:`repro.telemetry.TRANSITIONS`, e.g. ``inval:M->I``,
``dir:back_invalidate``, ``tiny:spill``. The ``mesi:<pre>-><post>:<kind>``
rows are requester-side MESI transitions, derived by the verify harness
from quiet pre/post ``state_of`` probes and emitted straight into the
map (the controllers never pay for them).

:data:`KNOWN_TRANSITIONS` is derived from the same table: per verified
scheme, the transitions the conformance subsystem expects to be
reachable. The fuzzer steers its bias profiles toward uncovered entries
and the CLI asserts a coverage floor against the same universe. Rows of
the :data:`~repro.telemetry.events.UNGATED` universe (MESI corners the
fuzzer reaches only by chance, and the shared-only sparse variant the
verifier does not run) are counted when they fire but gate no floor.
"""

from __future__ import annotations

from collections import Counter

from repro.telemetry.events import TRANSITIONS, UNGATED

__all__ = [
    "CoverageMap",
    "KNOWN_TRANSITIONS",
    "coverage_fraction",
    "render_coverage_table",
]


class CoverageMap:
    """Counts protocol transitions seen during a run."""

    def __init__(self) -> None:
        self.counts: "Counter[str]" = Counter()

    def emit(self, kind: str, cycle=None, core=None, addr=None, **data) -> None:
        self.counts[kind] += 1

    def merge(self, other: "CoverageMap | dict | Counter") -> None:
        counts = other.counts if isinstance(other, CoverageMap) else other
        self.counts.update(counts)

    def covered(self) -> "set[str]":
        return set(self.counts)


#: Per-scheme transition universe the fuzzer steers toward and the CLI
#: reports coverage fractions against. Entries are kept to transitions
#: reachable at verification scale; rare corner events still get
#: counted when they fire, they just do not gate the floor.
KNOWN_TRANSITIONS: "dict[str, tuple[str, ...]]" = {
    scheme: tuple(row.kind for row in TRANSITIONS if scheme in row.schemes)
    for scheme in dict.fromkeys(s for row in TRANSITIONS for s in row.schemes)
    if scheme != UNGATED
}


def coverage_fraction(scheme: str, covered: "set[str]") -> float:
    """Fraction of the scheme's known universe present in ``covered``."""
    universe = KNOWN_TRANSITIONS.get(scheme, ())
    if not universe:
        return 1.0
    return sum(1 for t in universe if t in covered) / len(universe)


def render_coverage_table(per_scheme: "dict[str, set[str]]") -> str:
    """Text table: per scheme, covered/total and the uncovered tail."""
    lines = ["transition coverage", "-" * 66]
    lines.append(f"{'scheme':<10} {'covered':>9} {'fraction':>9}  uncovered")
    for scheme in sorted(per_scheme):
        covered = per_scheme[scheme]
        universe = KNOWN_TRANSITIONS.get(scheme, ())
        hit = [t for t in universe if t in covered]
        missing = [t for t in universe if t not in covered]
        shown = ", ".join(missing[:4]) + (" ..." if len(missing) > 4 else "")
        lines.append(
            f"{scheme:<10} {len(hit):>4}/{len(universe):<4} "
            f"{coverage_fraction(scheme, covered):>8.0%}  {shown or '-'}"
        )
    return "\n".join(lines)
