"""The benchmark's workloads: which cells (app x scheme x scale) one round runs.

A *round* is one complete run of a workload as a user would do it, in a
fresh process: import ``repro``, generate the streams, build the systems,
simulate every cell (or, for ``figure_sweep``, plan, sweep and render).
``run.py`` repeats rounds for the measured time and reports medians.

Every size below is chosen so that one untraced round takes a few
seconds on a 2-core host; the paper-scale grids of the same workloads
take minutes, which the benchmark's time budget cannot hold.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.runner import RunScale
from repro.sim.config import InLLCSpec, MgdSpec, SparseSpec, StashSpec
from repro.workloads.profiles import WorkloadProfile, profile

#: The private-hit-dominated profile of the hot-path microbenchmark
#: (``benchmarks/bench_micro_hotpath.py``), rebuilt here through the
#: public profile type: a tight per-core working set that settles into
#: ~98% L1 hits, with just enough shared traffic to reach the homes.
PRIVATE_HIT = WorkloadProfile(
    name="micro_private_hit",
    description="hot-path microbenchmark: private-hit-dominated mix",
    private_fraction=0.97,
    shared_fraction=0.01,
    hot_fraction=0.01,
    code_fraction=0.01,
    stream_fraction=0.0,
    private_region_factor=0.08,
    pool_factor=0.005,
    hot_blocks_per_core=8.0,
    code_blocks_per_core=8.0,
    write_fraction_private=0.3,
    write_fraction_shared=0.1,
    hot_write_fraction=0.01,
    sharer_bin_weights=(0.7, 0.2, 0.07, 0.03),
    zipf_exponent=0.9,
    hot_zipf_exponent=0.8,
    private_zipf_exponent=1.1,
    cpi_gap=24,
)

#: Paper apps with the lowest private hit rate (L1+L2 8-41%).
PAPER_MISS_APPS = ("314.mgrid", "330.art", "ocean_cp")
#: The Fig. 13 / Fig. 22 application subset of ``figure_sweep``: 27
#: unique points (3 apps x {2x sparse, 3 tiny policies, 4 MgD sizes,
#: Stash}).
FIGURE_APPS = ("bodytrack", "ocean_cp", "SPECJBB")
FIGURE_JOBS = 2

#: Trace lengths (``RunScale.total_accesses``) per workload. The quick
#: machine (16 cores) adds an initialization pass of ~8-9k accesses.
PAPER_MISS_ACCESSES = 4_000
PRIVATE_HOT_ACCESSES = 240_000
OBSERVED_ACCESSES = 2_000
FIGURE_ACCESSES = 2_000


@dataclass(frozen=True)
class Cell:
    """One (app, scheme) simulation of a serial workload."""

    app: str
    profile: WorkloadProfile
    scheme: object
    scale: RunScale
    observed: bool = False

    @property
    def scheme_name(self) -> str:
        return self.scheme.name

    @property
    def label(self) -> str:
        return f"{self.app}/{self.scheme_name}"


def _quick(seed: int, accesses: int) -> RunScale:
    """The quick-scale machine (16 cores) with a shorter trace."""
    return RunScale(
        num_cores=16, total_accesses=accesses, spill_window=96, seed=seed
    )


def paper_miss(seed: int) -> "list[Cell]":
    scale = _quick(seed, PAPER_MISS_ACCESSES)
    schemes = (
        SparseSpec(ratio=2.0),
        scale.tiny_spec(1 / 256, "gnru", spill=True),
        MgdSpec(ratio=1 / 16),
    )
    return [
        Cell(app, profile(app), scheme, scale)
        for app in PAPER_MISS_APPS
        for scheme in schemes
    ]


def private_hot(seed: int) -> "list[Cell]":
    scale = RunScale(total_accesses=PRIVATE_HOT_ACCESSES, seed=seed)
    schemes = (SparseSpec(ratio=2.0), scale.tiny_spec(1 / 256, "gnru", spill=True))
    return [Cell(PRIVATE_HIT.name, PRIVATE_HIT, s, scale) for s in schemes]


def observed(seed: int) -> "list[Cell]":
    scale = _quick(seed, OBSERVED_ACCESSES)
    schemes = (
        SparseSpec(ratio=2.0),
        InLLCSpec(),
        scale.tiny_spec(1 / 256, "gnru", spill=True),
        MgdSpec(ratio=1 / 16),
        StashSpec(ratio=1 / 16),
    )
    return [
        Cell("bodytrack", profile("bodytrack"), s, scale, observed=True)
        for s in schemes
    ]


def figure_scale(seed: int) -> RunScale:
    return _quick(seed, FIGURE_ACCESSES)


#: Serial workloads: name -> the function listing its cells.
SERIAL = {
    "paper_miss": paper_miss,
    "private_hot": private_hot,
    "observed": observed,
}
WORKLOADS = tuple(SERIAL) + ("figure_sweep",)
