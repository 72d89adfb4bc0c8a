"""Host-independent budget on the miss path's Python call count.

Counts the Python ``call`` events of frames inside the ``repro``
package per simulated access, on one small miss-bound cell per tracking
family. Call counts are deterministic, so unlike a wall-clock threshold
this cannot flake on a busy host; a change that puts helper-method hops
back onto the home-controller path (geometry helpers, traffic-class
hashing, property-based enum predicates) or onto the private-cache fill
path (per-line objects, array-method hops) trips it. Only ``repro`` frames
count, so stdlib internals that differ between Python versions do not.

Ceilings sit about 10% above the measured counts (Python 3.11):
sparse 27.98, tiny 31.26, MgD 34.48 calls per access.
"""

import pathlib
import sys

import pytest

import repro
from repro.analysis.runner import RunScale
from repro.sim.config import MgdSpec, SparseSpec
from repro.sim.engine import run_trace
from repro.sim.system import System
from repro.workloads.generator import generate_streams
from repro.workloads.profiles import profile

PACKAGE_DIR = str(pathlib.Path(repro.__file__).parent)

#: A 4-core machine on the least cache-friendly paper app: about 40% of
#: the accesses miss the LLC and ~45% go to the home controller.
SCALE = RunScale(num_cores=4, total_accesses=1_000, spill_window=96)

CELLS = {
    "sparse": (SparseSpec(ratio=2.0), 31.0),
    "tiny": (SCALE.tiny_spec(1 / 256, "gnru", spill=True), 34.0),
    "mgd": (MgdSpec(ratio=1 / 16), 38.0),
}


def calls_per_access(scheme) -> float:
    config = SCALE.make_config(scheme)
    streams = generate_streams(profile("ocean_cp"), config, SCALE.total_accesses, seed=1)
    system = System(config)
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE_DIR):
            calls += 1

    sys.setprofile(count)
    try:
        stats = run_trace(system, streams)
    finally:
        sys.setprofile(None)
    # The cell must stay miss-bound, or the budget guards the wrong path.
    assert stats.llc_transactions > stats.accesses / 3
    return calls / sum(len(stream) for stream in streams)


@pytest.mark.parametrize("family", sorted(CELLS))
def test_miss_path_call_budget(family):
    scheme, ceiling = CELLS[family]
    measured = calls_per_access(scheme)
    assert measured <= ceiling, (
        f"{family}: {measured:.2f} repro calls per access, budget {ceiling}"
    )
