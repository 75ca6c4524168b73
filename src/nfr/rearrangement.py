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

Levels are grouped in one of two ways.  Integer codes are counted: an 8-
or 16-bit raster (every PGM) is counted on its own integers, with no
float64 or intp copy of the image, and any other image whose values are its
minimum lo plus integers below 2^16 (checked exactly over all N values) on
the uint16 offsets x - lo, both in O(N) by np.bincount over slices.  Any
other input, an integral one of range 2^16 or more included, is sorted in
O(N log N).  The two give bit-identical level structures for the same
values.  `histogram` is the same level structure in ascending order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


_RASTER_DTYPES = (np.dtype(np.uint8), np.dtype(np.uint16))


class Image:
    """Intensities on a grid of any dimension, flattened in C order.

    `shape` may have any number of extents d >= 1.  An unsigned 8- or
    16-bit array (a PGM raster) is kept as given in `raster`: integers are
    always finite, and `decreasing_rearrangement` counts its levels on it.
    Its float64 intensities `data` are then built once, on first access.
    Any other input is converted to float64 `data` at once and must be
    finite; its `raster` is None.  Treat instances as immutable.
    """

    def __init__(self, data, shape):
        a = np.asarray(data)
        self.shape = tuple(int(s) for s in shape)
        if len(self.shape) < 1 or any(s <= 0 for s in self.shape):
            raise ValueError("shape must have positive extents")
        if a.size != math.prod(self.shape):
            raise ValueError(
                f"data has {a.size} samples, shape {self.shape} wants {math.prod(self.shape)}"
            )
        if a.dtype in _RASTER_DTYPES:
            self.raster = a.ravel()
        else:
            self.raster = None
            self.data = np.asarray(a, dtype=np.float64).ravel()
            if not np.all(np.isfinite(self.data)):
                raise ValueError("intensities must be finite")

    @cached_property
    def data(self) -> np.ndarray:
        """Flat float64 intensities (of a raster: converted on first access)."""
        return self.raster.astype(np.float64)

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

    - count, in O(N): a raster's own integers (8/16-bit input, every PGM)
      into a table of 2^8 or 2^16 entries, or the uint16 offsets x - lo of
      an image whose values are its minimum lo plus integers below 2^16
      into a table of hi - lo + 1 entries;
    - sort, in O(N log N): any other input, by np.unique.

    Each yields ascending code values, their counts and every pixel's code.
    The present codes in descending order are the levels, and a lookup
    table from code to level index gives pixel_level.  A counted level at
    zero is +0.0.
    """
    codes, lo = img.raster, 0.0
    if codes is not None:
        size = 1 << (8 * codes.itemsize)
    else:
        x = img.data
        lo = float(x.min())
        span = float(x.max()) - lo  # a Python float: inf, not a warning, at +-1e308
        if span < 65536:
            size = int(span) + 1  # the largest offset, as rounding is monotone
            codes = (x - lo).astype(np.uint16)
            if not np.array_equal(codes + lo, x):
                codes = None
    if codes is not None:
        counts = np.zeros(size, dtype=np.intp)
        for a in range(0, codes.size, _COUNT_SLICE):
            counts += np.bincount(codes[a:a + _COUNT_SLICE], minlength=size)
        code_values = np.arange(size) + lo
    else:
        code_values, codes, counts = np.unique(
            img.data, return_inverse=True, return_counts=True
        )
    present = np.flatnonzero(counts)[::-1]
    lut = np.empty(counts.size, dtype=np.intp)
    lut[present] = np.arange(present.size)
    values, masses = code_values[present], counts[present]
    rearr = Rearrangement(values, masses.astype(np.float64))
    levels = LevelStructure(values.copy(), masses, lut[codes], img.shape)
    return rearr, levels


def reconstruct(levels: LevelStructure, new_values) -> Image:
    """Build the image whose level sets are those of `levels` with new values.

    Pixel i receives new_values[levels.pixel_level[i]].  Equal inputs map to
    equal outputs by construction, so the output level-set partition is a
    coarsening of the input one.
    """
    nv = np.asarray(new_values, dtype=np.float64).ravel()
    if nv.size != levels.values.size:
        raise ValueError(
            f"expected {levels.values.size} level values, got {nv.size}"
        )
    return Image(nv[levels.pixel_level], levels.shape)


def histogram(img: Image) -> list[tuple[float, int]]:
    """Distinct (value, mass) pairs in ascending value order."""
    _, levels = decreasing_rearrangement(img)
    return list(zip(levels.values[::-1].tolist(), levels.masses[::-1].tolist()))
