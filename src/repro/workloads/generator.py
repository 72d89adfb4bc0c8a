"""Synthetic trace generation from a :class:`WorkloadProfile`.

The generator lays out five disjoint address regions (block addresses):

* a private region per core (``heap/stack``),
* a global read-write shared pool, each block annotated with a *sharer
  window* — the set of cores that ever touch it — drawn from the
  profile's Fig.-2-style bin weights,
* a small hot shared read-mostly set touched by every core (the
  high-STRA blocks),
* a shared code region accessed by instruction fetches from every core,
* a per-core streaming region that never reuses a block (the LLC
  miss-rate knob).

Accesses are drawn i.i.d. from the profile's region mix; shared-pool
accesses are *re-assigned* to a random core inside the block's sharer
window so each block's observed sharer count matches its annotation.
Generation is deterministic for a given (profile, config, seed).
"""

from __future__ import annotations

import os
import sys
import zlib
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.errors import ConfigError, TraceError
from repro.guard.watchdog import CHECK_STRIDE, check_watchdog
from repro.sim.config import SystemConfig
from repro.types import Access, AccessKind
from repro.workloads.profiles import WorkloadProfile

# Region base block addresses; spans are generous enough never to overlap
# for any realistic configuration. Per-core strides are deliberately NOT
# powers of two: a real OS hands out pages at effectively randomized
# physical frames, so different cores' heaps do not alias onto the same
# cache/directory sets. A power-of-two stride here would make every
# core's private region collide in the same few sets — a pathology real
# traces do not exhibit.
_PRIVATE_BASE = 1 << 34
_PRIVATE_SPAN = (1 << 24) + 32 * 17
_POOL_BASE = 1 << 35
_HOT_BASE = 1 << 36
_CODE_BASE = (1 << 36) + (1 << 30) + 32 * 11
_STREAM_BASE = 1 << 37
_STREAM_SPAN = (1 << 26) + 32 * 29

#: Stride between consecutive logical blocks of the shared regions.
#: Shared structures (hash buckets, B-tree nodes, hot functions) are
#: scattered through a real address space, not contiguous; a coprime
#: stride spreads the popular head of each region over all LLC sets so
#: no single set (in particular no sampled no-spill set) concentrates
#: the hot traffic.
_SHARED_STRIDE = 97


def _pool_addr(index) -> "int":
    """Block address of pool block ``index`` (scalar or numpy array)."""
    return _POOL_BASE + index * _SHARED_STRIDE


def _hot_addr(index) -> "int":
    """Block address of hot-set block ``index``."""
    return _HOT_BASE + index * _SHARED_STRIDE


def _code_addr(index) -> "int":
    """Block address of code block ``index``."""
    return _CODE_BASE + index * _SHARED_STRIDE

_REGION_PRIVATE = 0
_REGION_SHARED = 1
_REGION_HOT = 2
_REGION_CODE = 3
_REGION_STREAM = 4


def _zipf_pmf(count: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


class SyntheticTraceGenerator:
    """Produces per-core access streams for one application profile."""

    def __init__(
        self,
        profile: WorkloadProfile,
        config: SystemConfig,
        seed: int = 0,
    ) -> None:
        self.profile = profile
        self.config = config
        stable = zlib.crc32(profile.name.encode())
        self._rng = np.random.default_rng((seed << 32) ^ stable)
        cores = config.num_cores
        self.private_blocks = max(64, int(profile.private_region_factor * config.l2_blocks))
        if self.private_blocks > _PRIVATE_SPAN:
            raise ConfigError("private region exceeds its address span")
        self.pool_blocks = max(cores * 8, int(profile.pool_factor * config.llc_blocks))
        self.hot_blocks = max(8, int(profile.hot_blocks_per_core * cores))
        self.code_blocks = max(8, int(profile.code_blocks_per_core * cores))
        # Per-pool-block sharer windows (start core + width).
        self._pool_start, self._pool_width = self._draw_sharer_windows()
        self._pool_pmf = _zipf_pmf(self.pool_blocks, profile.zipf_exponent)
        self._code_pmf = _zipf_pmf(self.code_blocks, profile.zipf_exponent)
        self._private_pmf = (
            _zipf_pmf(self.private_blocks, profile.private_zipf_exponent)
            if profile.private_zipf_exponent > 0
            else None
        )
        self._hot_pmf = (
            _zipf_pmf(self.hot_blocks, profile.hot_zipf_exponent)
            if profile.hot_zipf_exponent > 0
            else None
        )

    def _draw_sharer_windows(self) -> "tuple[np.ndarray, np.ndarray]":
        cores = self.config.num_cores
        weights = np.asarray(self.profile.sharer_bin_weights, dtype=np.float64)
        weights = weights / weights.sum()
        bins = self._rng.choice(4, size=self.pool_blocks, p=weights)
        low = np.array([2, 5, 9, 17])[bins]
        high = np.array([4, 8, 16, max(17, cores)])[bins]
        low = np.minimum(low, cores)
        high = np.minimum(high, cores)
        width = self._rng.integers(low, high + 1)
        start = self._rng.integers(0, cores, size=self.pool_blocks)
        return start, width

    # ------------------------------------------------------------------

    def _init_pass(self) -> "list[list[Access]]":
        """The initialization phase: touch every block of every region
        once, the way a real program's setup loop faults in its data.

        This keeps cold (first-touch) misses inside the engine's warmup
        window, so measured miss rates reflect steady-state behaviour
        instead of trace length.
        """
        cores = self.config.num_cores
        gap = self.profile.cpi_gap
        streams: "list[list[Access]]" = [[] for _ in range(cores)]
        for c in range(cores):
            base = _PRIVATE_BASE + c * _PRIVATE_SPAN
            for offset in range(self.private_blocks):
                streams[c].append(Access(c, base + offset, AccessKind.READ, gap))
        for i in range(self.pool_blocks):
            c = int(self._pool_start[i])
            streams[c].append(Access(c, _pool_addr(i), AccessKind.READ, gap))
        for i in range(self.hot_blocks):
            c = i % cores
            streams[c].append(Access(c, _hot_addr(i), AccessKind.READ, gap))
        for i in range(self.code_blocks):
            c = i % cores
            streams[c].append(Access(c, _code_addr(i), AccessKind.IFETCH, gap))
        return streams

    def generate(self, total_accesses: int) -> "list[list[Access]]":
        """Generate ``total_accesses`` accesses split into per-core streams.

        The returned streams start with an initialization pass over every
        region (see :meth:`_init_pass`) followed by ``total_accesses``
        steady-state accesses drawn from the profile's mix.
        """
        if total_accesses <= 0:
            raise ConfigError("total_accesses must be positive")
        profile = self.profile
        rng = self._rng
        cores = self.config.num_cores
        n = total_accesses

        mix = np.array(
            [
                profile.private_fraction,
                profile.shared_fraction,
                profile.hot_fraction,
                profile.code_fraction,
                profile.stream_fraction,
            ]
        )
        region = rng.choice(5, size=n, p=mix)
        core = rng.integers(0, cores, size=n)
        uniform = rng.random(size=n)
        gaps = rng.poisson(profile.cpi_gap, size=n)

        addr = np.zeros(n, dtype=np.int64)
        is_write = np.zeros(n, dtype=bool)
        is_ifetch = np.zeros(n, dtype=bool)

        # -- private ------------------------------------------------------
        mask = region == _REGION_PRIVATE
        count = int(mask.sum())
        if count:
            if self._private_pmf is not None:
                offsets = rng.choice(
                    self.private_blocks, size=count, p=self._private_pmf
                )
                # Decorrelate the per-core popularity order so hot blocks
                # of different cores do not collide in the same LLC sets.
                offsets = (offsets * 769 + core[mask] * 31) % self.private_blocks
            else:
                offsets = rng.integers(0, self.private_blocks, size=count)
            addr[mask] = _PRIVATE_BASE + core[mask] * _PRIVATE_SPAN + offsets
            is_write[mask] = uniform[mask] < profile.write_fraction_private

        # -- shared pool ----------------------------------------------------
        mask = region == _REGION_SHARED
        count = int(mask.sum())
        if count:
            idx = rng.choice(self.pool_blocks, size=count, p=self._pool_pmf)
            addr[mask] = _pool_addr(idx)
            # Reassign the issuing core into the block's sharer window.
            offset = rng.integers(0, 1 << 30, size=count) % self._pool_width[idx]
            core[mask] = (self._pool_start[idx] + offset) % cores
            is_write[mask] = uniform[mask] < profile.write_fraction_shared

        # -- hot shared read-mostly ------------------------------------------
        mask = region == _REGION_HOT
        count = int(mask.sum())
        if count:
            if self._hot_pmf is not None:
                idx = rng.choice(self.hot_blocks, size=count, p=self._hot_pmf)
            else:
                idx = rng.integers(0, self.hot_blocks, size=count)
            addr[mask] = _hot_addr(idx)
            is_write[mask] = uniform[mask] < profile.hot_write_fraction

        # -- shared code -------------------------------------------------------
        mask = region == _REGION_CODE
        count = int(mask.sum())
        if count:
            idx = rng.choice(self.code_blocks, size=count, p=self._code_pmf)
            addr[mask] = _code_addr(idx)
            is_ifetch[mask] = True

        # -- streaming (assembled with per-core counters below) ----------------
        stream_mask = region == _REGION_STREAM
        is_write[stream_mask] = uniform[stream_mask] < profile.write_fraction_private

        streams = self._init_pass()
        stream_cursor = [0] * cores
        core_list = core.tolist()
        addr_list = addr.tolist()
        region_list = region.tolist()
        write_list = is_write.tolist()
        ifetch_list = is_ifetch.tolist()
        gap_list = gaps.tolist()
        for i in range(n):
            if i % CHECK_STRIDE == 0:
                check_watchdog()
            c = core_list[i]
            if region_list[i] == _REGION_STREAM:
                a = _STREAM_BASE + c * _STREAM_SPAN + stream_cursor[c]
                stream_cursor[c] += 1
            else:
                a = addr_list[i]
            if ifetch_list[i]:
                kind = AccessKind.IFETCH
            elif write_list[i]:
                kind = AccessKind.WRITE
            else:
                kind = AccessKind.READ
            streams[c].append(Access(c, a, kind, gap_list[i]))
        return streams


# ----------------------------------------------------------------------
# Per-process trace cache
# ----------------------------------------------------------------------

#: Environment variable sizing the per-process trace cache: an integer
#: capacity, or ``off``/``0`` to disable memoization entirely.
ENV_TRACE_CACHE = "REPRO_TRACE_CACHE"

#: Path to an ``.rtrace`` capture; when set, :func:`generate_streams`
#: *replays* that file instead of generating, making the run
#: bit-identical to the live run that recorded it.
ENV_TRACE_FILE = "REPRO_TRACE_FILE"

#: Directory to record generated streams into; each distinct
#: (profile, cores, accesses, seed) point is written once as
#: ``<profile>-c<cores>-a<accesses>-s<seed>.rtrace``.
ENV_TRACE_RECORD = "REPRO_TRACE_RECORD"

_DEFAULT_CACHE_CAPACITY = 8

_trace_cache: "OrderedDict[tuple, list]" = OrderedDict()
_trace_cache_hits = 0
_trace_cache_misses = 0


def _cache_capacity() -> int:
    raw = os.environ.get(ENV_TRACE_CACHE)
    if raw is None:
        return _DEFAULT_CACHE_CAPACITY
    value = raw.strip().lower()
    if value in ("off", "false", "no"):
        return 0
    try:
        return max(0, int(value))
    except ValueError:
        print(
            f"repro: ignoring unrecognized {ENV_TRACE_CACHE}={raw!r} "
            f"(expected an integer or off)",
            file=sys.stderr,
        )
        return _DEFAULT_CACHE_CAPACITY


def clear_trace_cache() -> None:
    """Drop every memoized stream set and zero the hit/miss counters."""
    global _trace_cache_hits, _trace_cache_misses
    _trace_cache.clear()
    _trace_cache_hits = 0
    _trace_cache_misses = 0


def trace_cache_stats() -> "dict[str, int]":
    """Hit/miss/size counters of the per-process trace cache."""
    return {
        "hits": _trace_cache_hits,
        "misses": _trace_cache_misses,
        "entries": len(_trace_cache),
    }


def _cache_insert(key: tuple, streams: "list[list[Access]]", capacity: int) -> None:
    _trace_cache[key] = streams
    while len(_trace_cache) > capacity:
        _trace_cache.popitem(last=False)


def load_streams(path, config: SystemConfig) -> "list[list[Access]]":
    """Load per-core streams from an ``.rtrace`` capture for replay.

    Results are memoized in the same per-process LRU cache as generated
    streams, keyed on *trace-file identity* — the absolute path plus a
    content hash — so overwriting a file at the same path never serves
    the previous file's streams, while re-reading unchanged content is
    free. Raises :class:`~repro.errors.TraceError` when the capture's
    core count disagrees with ``config`` (a replay on the wrong geometry
    would silently misattribute every access).
    """
    global _trace_cache_hits, _trace_cache_misses
    from repro.workloads.capture import load_capture, trace_fingerprint

    capacity = _cache_capacity()
    key = None
    if capacity > 0:
        key = ("trace-file", os.path.abspath(path), trace_fingerprint(path))
        cached = _trace_cache.get(key)
        if cached is not None:
            _trace_cache_hits += 1
            _trace_cache.move_to_end(key)
            return cached
        _trace_cache_misses += 1
    streams, header = load_capture(path)
    if header["num_cores"] != config.num_cores:
        raise TraceError(
            f"trace file {path} was recorded on {header['num_cores']} cores "
            f"but the configured system has {config.num_cores}"
        )
    if key is not None:
        _cache_insert(key, streams, capacity)
    return streams


def _maybe_record(
    streams: "list[list[Access]]",
    app: WorkloadProfile,
    config: SystemConfig,
    total_accesses: int,
    seed: int,
) -> None:
    """Record ``streams`` under ``REPRO_TRACE_RECORD`` if not yet captured."""
    record_dir = os.environ.get(ENV_TRACE_RECORD)
    if not record_dir:
        return
    from repro.workloads.capture import save_capture

    path = Path(record_dir) / (
        f"{app.name}-c{config.num_cores}-a{total_accesses}-s{seed}.rtrace"
    )
    if path.exists():
        return
    save_capture(
        path,
        streams,
        profile=app,
        seed=seed,
        total_accesses=total_accesses,
        geometry={
            "num_cores": config.num_cores,
            "l2_blocks": config.l2_blocks,
            "llc_blocks": config.llc_blocks,
        },
    )


def generate_streams(
    app: "WorkloadProfile | str",
    config: SystemConfig,
    total_accesses: int,
    seed: int = 0,
) -> "list[list[Access]]":
    """One-call helper: build a generator and produce streams.

    Results are memoized per process (keyed on the profile, the config
    fields generation depends on, the trace length, and the seed), so a
    sweep revisiting the same (app, scale, seed) point reuses the exact
    stream objects instead of regenerating them. Streams are treated as
    immutable by every consumer — the engine only reads them — which is
    what makes sharing the objects safe. Capacity is ``REPRO_TRACE_CACHE``
    (default 8 entries, LRU; ``off`` disables caching).

    Two environment hooks feed the record/replay workflow (see
    ``docs/verification.md``): ``REPRO_TRACE_FILE`` replays a recorded
    ``.rtrace`` capture instead of generating (cached on file identity,
    path + content hash, via :func:`load_streams`), and
    ``REPRO_TRACE_RECORD`` writes each freshly seen point into the named
    directory — including on cache hits, so a warm process still records.
    """
    global _trace_cache_hits, _trace_cache_misses
    from repro.workloads.profiles import profile as lookup

    trace_file = os.environ.get(ENV_TRACE_FILE)
    if trace_file:
        return load_streams(trace_file, config)
    if isinstance(app, str):
        app = lookup(app)
    capacity = _cache_capacity()
    if capacity <= 0:
        streams = SyntheticTraceGenerator(app, config, seed).generate(total_accesses)
        _maybe_record(streams, app, config, total_accesses, seed)
        return streams
    # Generation depends only on the profile (frozen, hashable) and these
    # derived config fields — see SyntheticTraceGenerator.__init__.
    key = (
        app,
        config.num_cores,
        config.l2_blocks,
        config.llc_blocks,
        total_accesses,
        seed,
    )
    cached = _trace_cache.get(key)
    if cached is not None:
        _trace_cache_hits += 1
        _trace_cache.move_to_end(key)
        _maybe_record(cached, app, config, total_accesses, seed)
        return cached
    _trace_cache_misses += 1
    streams = SyntheticTraceGenerator(app, config, seed).generate(total_accesses)
    _maybe_record(streams, app, config, total_accesses, seed)
    _cache_insert(key, streams, capacity)
    return streams
