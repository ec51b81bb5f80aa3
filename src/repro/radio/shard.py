"""Index primitives of the RF medium's interest management.

:class:`CellGrid` partitions the plane into square cells whose edge is the
medium's range cutoff, so everything within range of a point lies in the
3x3 cells around it; an unbounded medium uses one cell of infinite edge.
:class:`BufferPool` recycles the medium's capture composition buffers.
See :class:`~repro.radio.medium.RfMedium` for how the two are used.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

import numpy as np

__all__ = ["BufferPool", "Cell", "CellGrid"]

Cell = Tuple[int, int]


class BufferPool:
    """Recycled complex128 capture buffers, bucketed by exact length.

    ``acquire`` returns a zero-filled array indistinguishable from a fresh
    ``np.zeros`` — zeroing on acquire (not release) keeps the release path
    free and makes double-release merely wasteful rather than corrupting.
    Each length class keeps at most ``max_per_class`` free buffers so a
    burst of unusual capture sizes cannot pin memory forever.
    """

    def __init__(self, max_per_class: int = 8):
        self.max_per_class = max_per_class
        self._free: Dict[int, List[np.ndarray]] = {}
        self.hits = 0
        self.misses = 0

    def acquire(self, num: int) -> np.ndarray:
        free = self._free.get(num)
        if free:
            self.hits += 1
            buf = free.pop()
            buf.fill(0)
            return buf
        self.misses += 1
        return np.zeros(num, dtype=np.complex128)

    def release(self, buf: np.ndarray) -> None:
        if buf.dtype != np.complex128 or buf.ndim != 1 or buf.base is not None:
            return  # only whole, owned buffers are poolable
        free = self._free.setdefault(buf.size, [])
        if len(free) < self.max_per_class:
            free.append(buf)

    @property
    def pooled(self) -> int:
        return sum(len(free) for free in self._free.values())


class CellGrid:
    """A sparse 2D grid of square cells keyed by ``floor(coord / size)``.

    With cell edge >= interaction range, everything within range of a point
    lies inside the 3x3 block of cells around the point's own cell.  An
    infinite edge puts every finite point in cell ``(0, 0)``.
    """

    def __init__(self, cell_size_m: float):
        if cell_size_m <= 0.0:
            raise ValueError("cell_size_m must be positive")
        self.cell_size_m = cell_size_m

    def cell_of(self, position: Tuple[float, float]) -> Cell:
        return (
            int(math.floor(position[0] / self.cell_size_m)),
            int(math.floor(position[1] / self.cell_size_m)),
        )

    def neighborhood(self, cell: Cell) -> Iterable[Cell]:
        cx, cy = cell
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                yield (cx + dx, cy + dy)
