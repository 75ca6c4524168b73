"""Decreasing rearrangements of discrete images.

An image is treated as a finite measure space in which every pixel carries
unit mass, so the total measure equals the pixel count N.  Sorting the
distinct intensities in descending order together with their pixel counts
yields the decreasing rearrangement: a right-continuous, non-increasing step
function on [0, N] that is equi-measurable with the image (any pointwise
functional summed over pixels equals its mass-weighted sum over levels).

Filtering operates on the rearrangement; `reconstruct` maps new level values
back onto the pixel grid through the level structure.  Nothing here depends
on the image dimension: shape is carried along purely for I/O.

Equal values become one level here and nowhere else, in one of two ways.
A raster's codes are counted in O(N), by np.bincount over slices, with no
float64 copy of the image: a PGM's 8- or 16-bit codes stand for
themselves, a coded image's integer codes for the entries of its value
table (see `Image`), and codes of equal value merge through one np.unique
over the table, in O(Q).  Any other image is sorted with np.unique, in
O(N log N).  Both give bit-identical level structures for the same
values, and a level at zero is +0.0 on every path.  The level structure
holds one N-sized intp array, the pixel-to-level index.  `histogram` is
the same level structure in ascending order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


_RASTER_DTYPES = (np.dtype(np.uint8), np.dtype(np.uint16))


class Image:
    """Intensities on a grid of any dimension, flattened in C order.

    `shape` may have any number of extents d >= 1.  A coded image holds
    integer codes in [0, table.size) beside a `table` (a finite 1-D float64
    array, in any order and possibly with repeats; the float CSV reader and
    `reconstruct` build one), and code c stands for table[c].  With no
    table, an unsigned 8- or 16-bit array is a PGM raster, whose code c
    stands for c.  Either keeps its codes as given in `raster`, where
    `decreasing_rearrangement` counts them, and builds its float64 `data`
    once, on first access, with each table entry's bits.  Any other input
    is converted to float64 `data` at once and must be finite; its `raster`
    and `table` are None.  Treat instances as immutable.
    """

    def __init__(self, data, shape, table=None):
        a = np.asarray(data)
        self.shape = tuple(int(s) for s in shape)
        if len(self.shape) < 1 or any(s <= 0 for s in self.shape):
            raise ValueError("shape must have positive extents")
        if a.size != math.prod(self.shape):
            raise ValueError(
                f"data has {a.size} samples, shape {self.shape} wants {math.prod(self.shape)}"
            )
        self.raster = self.table = None
        if table is None and a.dtype not in _RASTER_DTYPES:
            values = self.data = np.asarray(a, dtype=np.float64).ravel()
        else:
            self.raster = a if a.ndim == 1 else a.ravel()  # a flat array is kept as is
            if table is None:
                return
            if a.dtype.kind not in "iu" or not np.can_cast(a.dtype, np.intp):
                raise ValueError("a value table needs integer codes that fit intp")
            values = self.table = np.asarray(table, dtype=np.float64)
            if values.ndim != 1:
                raise ValueError("a value table must be 1-D")
            lo, hi = int(self.raster.min()), int(self.raster.max())
            if lo < 0 or hi >= values.size:
                raise ValueError(f"codes reach {lo if lo < 0 else hi}, "
                                 f"the value table has {values.size} entries")
        if not np.all(np.isfinite(values)):
            raise ValueError("intensities must be finite")

    @cached_property
    def data(self) -> np.ndarray:
        """Flat float64 intensities (of a raster: built on first access)."""
        if self.table is None:
            return self.raster.astype(np.float64)
        return self.table[self.raster]

    @property
    def n(self) -> int:
        """Total measure (pixel count)."""
        return math.prod(self.shape)

    @classmethod
    def from_array(cls, arr) -> "Image":
        a = np.asarray(arr)
        return cls(a, a.shape)

    def to_array(self) -> np.ndarray:
        return self.data.reshape(self.shape)


@dataclass(frozen=True, eq=False)
class LevelStructure:
    """Distinct levels of an image and the level index of every pixel.

    values are strictly descending, masses are the positive pixel counts per
    level, and pixel_level[i] is the index into values for pixel i, so
    values[pixel_level] reproduces the source image.
    """

    values: np.ndarray
    masses: np.ndarray
    pixel_level: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        masses = np.asarray(self.masses, dtype=np.int64)
        pixel_level = np.asarray(self.pixel_level, dtype=np.intp)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "pixel_level", pixel_level)
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        if np.any(np.diff(values) >= 0):
            raise ValueError("level values must be strictly descending")
        if masses.shape != values.shape or np.any(masses < 1):
            raise ValueError("each level needs a positive integer mass")
        if pixel_level.size != int(np.prod(self.shape)):
            raise ValueError("pixel_level size does not match shape")
        if int(masses.sum()) != pixel_level.size:
            raise ValueError("masses must sum to the pixel count")
        if np.any(pixel_level < 0) or np.any(pixel_level >= values.size):
            raise ValueError("pixel_level contains out-of-range indices")


@dataclass(frozen=True, eq=False)
class Rearrangement:
    """Non-increasing step function on [0, total_mass].

    Entry i takes value values[i] on an interval of length masses[i]; the
    intervals tile [0, total_mass] left to right.  Iterated filter outputs
    may carry tied (non-strict) values on the fixed mass partition, which is
    why strictness is not required here.
    """

    values: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        masses = np.asarray(self.masses, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "masses", masses)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if np.any(np.diff(values) > 0):
            raise ValueError("rearrangement values must be non-increasing")
        if masses.shape != values.shape or not np.all(masses > 0):
            raise ValueError("masses must be positive and match values")

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def evaluate(self, s):
        """Evaluate the step function at s (scalar or array), right-continuously.

        The value on [c_{k-1}, c_k) is values[k] where c are cumulative
        masses; s == total_mass maps to the last value.
        """
        s_arr = np.asarray(s, dtype=np.float64)
        total = self.total_mass
        if np.any(s_arr < 0) or np.any(s_arr > total):
            raise ValueError(f"evaluation point outside [0, {total}]")
        cum = np.cumsum(self.masses)
        idx = np.searchsorted(cum, s_arr, side="right")
        idx = np.minimum(idx, self.values.size - 1)
        out = self.values[idx]
        return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


def distribution_function(img: Image, q: float) -> int:
    """Measure of the strict superlevel set {x : u(x) > q}."""
    return int(np.count_nonzero(img.data > q))


_COUNT_SLICE = 1 << 16  # codes per bincount, whose intp cast is 512 KiB


def decreasing_rearrangement(img: Image) -> tuple[Rearrangement, LevelStructure]:
    """Group the image into descending distinct levels.

    Returns the rearrangement (values with real masses, ready for the 1-D
    filter) and the level structure (integer masses plus the per-pixel level
    index needed to reconstruct images).  Two groupings:

    - count, in O(N): a raster's codes into 2^8 or 2^16 bins, or a coded
      image's into one bin per table entry; one np.unique over the table,
      in O(Q), then merges the bins of equal entries;
    - sort, in O(N log N): any other image, by np.unique.

    Each yields ascending distinct values, their counts and every pixel's
    code.  The present values in descending order are the levels, and a
    lookup table from code to level index (for a table's codes, through
    the merge) gives pixel_level.  A level at zero is +0.0, whichever zeros
    the image holds.
    """
    codes, table, merge = img.raster, img.table, None
    if codes is None:
        code_values, codes, counts = np.unique(
            img.data, return_inverse=True, return_counts=True
        )
    else:
        size = 1 << (8 * codes.itemsize) if table is None else table.size
        counts = np.zeros(size, dtype=np.intp)
        for a in range(0, codes.size, _COUNT_SLICE):
            counts += np.bincount(codes[a:a + _COUNT_SLICE], minlength=size)
        if table is None:
            code_values = np.arange(size, dtype=np.float64)
        else:  # equal entries (-0.0 and 0.0 among them) merge into one code
            code_values, merge = np.unique(table, return_inverse=True)
            merged = np.zeros(code_values.size, dtype=np.intp)
            np.add.at(merged, merge, counts)
            counts = merged
    present = np.flatnonzero(counts)[::-1]
    lut = np.empty(counts.size, dtype=np.intp)
    lut[present] = np.arange(present.size)
    if merge is not None:
        lut = lut[merge]  # from a table entry through its merged code
    values, masses = code_values[present] + 0.0, counts[present]  # -0.0 + 0.0 is +0.0
    rearr = Rearrangement(values, masses.astype(np.float64))
    levels = LevelStructure(values.copy(), masses, lut[codes], img.shape)
    return rearr, levels


def reconstruct(levels: LevelStructure, new_values) -> Image:
    """Build the image whose level sets are those of `levels` with new values.

    A coded image: its codes are levels.pixel_level itself and its table
    the Q new values, so no N-sized array is built until `data` is read.
    Equal inputs map to equal outputs by construction, so the output
    level-set partition is a coarsening of the input one.
    """
    nv = np.asarray(new_values, dtype=np.float64).ravel()
    if nv.size != levels.values.size:
        raise ValueError(
            f"expected {levels.values.size} level values, got {nv.size}"
        )
    return Image(levels.pixel_level, levels.shape, nv)


def histogram(img: Image) -> list[tuple[float, int]]:
    """Distinct (value, mass) pairs in ascending value order."""
    _, levels = decreasing_rearrangement(img)
    return list(zip(levels.values[::-1].tolist(), levels.masses[::-1].tolist()))
