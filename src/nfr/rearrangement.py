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

Equal values become one level here and nowhere else.  An image's integer
codes (see `Image`) are its only per-pixel index: they are counted in O(N),
by np.bincount over slices, with no float64 copy of the image, and codes of
equal value merge through one np.unique over the value table, in O(Q).
Float data is first sorted and counted by np.unique, in O(N log N), whose
inverse becomes its codes and whose distinct values need no merge.  The
levels, values and masses, live in the rearrangement alone, and a level at
zero is +0.0 whichever zeros the image holds.  The level structure only
maps each code to its level, so it holds no per-pixel array of its own.
`histogram` is the rearrangement in ascending order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


_RASTER_DTYPES = (np.dtype(np.uint8), np.dtype(np.uint16))


class Image:
    """Intensities on a grid of any dimension, flattened in C order.

    `shape` may have any number of extents d >= 1.  An image is float64
    `data`, or integer codes in [0, table.size) beside a `table` (a finite
    1-D float64 array, in any order and possibly with repeats), where code
    c stands for table[c].  An unsigned 8- or 16-bit array with no table (a
    PGM raster) gets the identity table of its 2^8 or 2^16 codes; the float
    CSV reader and `reconstruct` give their own.  A coded image keeps its
    codes as given in `raster`, where `decreasing_rearrangement` counts
    them, and builds its `data` once, on first access, by one gather
    through the table.  Any other input is converted to float64 `data` at
    once and must be finite; its `raster` and `table` are None.  Treat
    instances as immutable.
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
        if table is None and a.dtype in _RASTER_DTYPES:
            table = np.arange(1 << (8 * a.itemsize), dtype=np.float64)
        self.raster = self.table = None
        if table is None:
            values = self.data = np.asarray(a, dtype=np.float64).ravel()
        else:
            self.raster = a if a.ndim == 1 else a.ravel()  # a flat array is kept as is
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
        """Flat float64 intensities (of a coded image: built on first access)."""
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
    """The level of each code of a coded image.

    The levels themselves, values and masses, are the rearrangement's;
    level_of_code[c] is the index into them for code c of `image` (0 for a
    code no pixel holds), so rearr.values[level_of_code[image.raster]]
    reproduces the image.  Every level holds a code, so the level count is
    level_of_code.max() + 1.  The checks are O(Q) in the table size:
    `Image` has checked the codes.
    """

    level_of_code: np.ndarray
    image: Image

    def __post_init__(self):
        level_of_code = np.asarray(self.level_of_code, dtype=np.intp)
        object.__setattr__(self, "level_of_code", level_of_code)
        if self.image.table is None:
            raise ValueError("a level structure needs a coded image")
        if level_of_code.shape != self.image.table.shape:
            raise ValueError("level_of_code needs one level per table entry")
        if level_of_code.min() < 0:
            raise ValueError("level_of_code contains negative levels")


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


_COUNT_SLICE = 1 << 16  # codes per bincount (512 KiB as intp), or the table size


def decreasing_rearrangement(img: Image) -> tuple[Rearrangement, LevelStructure]:
    """Group the image into descending distinct levels.

    Returns the rearrangement (the levels: values with their masses, ready
    for the 1-D filter) and the level structure (the level of each code,
    needed to reconstruct images).  Float data is first sorted by
    np.unique, in O(N log N), which also counts its distinct values, and
    becomes the coded image of those values and the sort's inverse.  Any
    other coded image's codes are counted into one bin per table entry, in
    O(N); one np.unique over the table, in O(Q), then merges the bins of
    equal entries.  The present values in descending order are the levels,
    and a lookup table from code to level index, through the merge, is
    level_of_code.  A level at zero is +0.0,
    whichever zeros the image holds.
    """
    if img.raster is None:  # float data: the sort's inverse becomes its codes
        code_values, codes, merged = np.unique(img.data, return_inverse=True,
                                               return_counts=True)
        img, merge = Image(codes, img.shape, code_values), slice(None)
    else:
        codes, table = img.raster, img.table
        counts, step = np.zeros(table.size, dtype=np.intp), max(_COUNT_SLICE, table.size)
        for a in range(0, codes.size, step):
            counts += np.bincount(codes[a:a + step], minlength=table.size)
        # equal entries (-0.0 and 0.0 among them) merge into one code
        code_values, merge = np.unique(table, return_inverse=True)
        merged = np.zeros(code_values.size, dtype=np.intp)
        np.add.at(merged, merge, counts)
    present = np.flatnonzero(merged)[::-1]
    lut = np.zeros(merged.size, dtype=np.intp)  # an absent code maps to level 0
    lut[present] = np.arange(present.size)
    rearr = Rearrangement(code_values[present] + 0.0, merged[present])  # -0.0 + 0.0 is +0.0
    return rearr, LevelStructure(lut[merge], img)


def reconstruct(levels: LevelStructure, new_values) -> Image:
    """Build the image whose level sets are those of `levels` with new values.

    A coded image: the codes of levels.image itself, and a table whose
    entry c is the new value of code c's level, so no N-sized array is
    built until `data` is read.  Equal inputs map to equal outputs by
    construction, so the output level-set partition is a coarsening of the
    input one.
    """
    nv = np.asarray(new_values, dtype=np.float64).ravel()
    q = int(levels.level_of_code.max()) + 1
    if nv.size != q:
        raise ValueError(f"expected {q} level values, got {nv.size}")
    img = levels.image
    return Image(img.raster, img.shape, nv[levels.level_of_code])


def histogram(img: Image) -> list[tuple[float, int]]:
    """Distinct (value, mass) pairs in ascending value order."""
    rearr, _ = decreasing_rearrangement(img)
    return list(zip(rearr.values[::-1].tolist(),
                    rearr.masses[::-1].astype(np.int64).tolist()))
