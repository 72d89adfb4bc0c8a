"""Generic set-associative array with 1-bit NRU replacement.

This array backs the sparse directory slices and the multi-grain (MgD)
directory slices, both NRU per the paper's Table I. Lines carry an
arbitrary payload; the array only manages placement, lookup, and victim
selection. (The per-core private caches are LRU and keep their own
address lists, see :mod:`repro.cache.private_cache`.)
"""

from __future__ import annotations

from repro.errors import ConfigError


class Line:
    """One array line: a tag plus a caller-defined payload.

    ``nru_ref`` is the 1-bit NRU reference bit.
    """

    __slots__ = ("tag", "payload", "nru_ref")

    def __init__(self, tag: int, payload: object) -> None:
        self.tag = tag
        self.payload = payload
        self.nru_ref = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Line(tag={self.tag:#x}, payload={self.payload!r})"


class SetAssocArray:
    """A set-associative array of :class:`Line` objects with 1-bit
    not-recently-used replacement (the paper's sparse-directory policy,
    Table I).

    Args:
        num_sets: number of sets; 1 makes the array fully associative.
        assoc: number of ways per set.
    """

    __slots__ = ("num_sets", "assoc", "_sets")

    def __init__(self, num_sets: int, assoc: int) -> None:
        if num_sets <= 0 or assoc <= 0:
            raise ConfigError(
                f"num_sets and assoc must be positive, got {num_sets}x{assoc}"
            )
        self.num_sets = num_sets
        self.assoc = assoc
        self._sets: "dict[int, list[Line]]" = {}

    def set_index(self, key: int) -> int:
        """Default set mapping for ``key``."""
        return key % self.num_sets

    def set_lines(self, set_index: int) -> "list[Line]":
        """The lines currently resident in ``set_index``, in way order."""
        return self._sets.get(set_index, [])

    def lookup(self, set_index: int, tag: int, touch: bool = True) -> "Line | None":
        """Find the line with ``tag`` in ``set_index``.

        When ``touch`` is true the line's reference bit is set.
        """
        lines = self._sets.get(set_index)
        if not lines:
            return None
        for line in lines:
            if line.tag == tag:
                if touch:
                    line.nru_ref = True
                return line
        return None

    def choose_victim(self, set_index: int) -> "Line | None":
        """Return the line that would be evicted by an insertion, or None
        if the set still has a free way."""
        lines = self._sets.get(set_index)
        if lines is None or len(lines) < self.assoc:
            return None
        for line in lines:
            if not line.nru_ref:
                return line
        # All reference bits set: clear them all and pick the first way,
        # the standard 1-bit NRU behaviour.
        for line in lines:
            line.nru_ref = False
        return lines[0]

    def insert(self, set_index: int, tag: int, payload: object) -> "Line | None":
        """Insert a new line; returns the evicted line, if any.

        The caller must have established that ``tag`` is not present.
        """
        lines = self._sets.setdefault(set_index, [])
        evicted = None
        if len(lines) >= self.assoc:
            evicted = self.choose_victim(set_index)
            lines.remove(evicted)
        lines.append(Line(tag, payload))
        return evicted

    def remove(self, set_index: int, tag: int) -> "Line | None":
        """Remove and return the line with ``tag``, or None if absent."""
        lines = self._sets.get(set_index)
        if not lines:
            return None
        for position, line in enumerate(lines):
            if line.tag == tag:
                del lines[position]
                return line
        return None

    def occupancy(self) -> int:
        """Total number of resident lines."""
        return sum(len(lines) for lines in self._sets.values())

    def iter_lines(self):
        """Yield (set_index, line) for every resident line."""
        for set_index, lines in self._sets.items():
            for line in lines:
                yield set_index, line
