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

Grouping costs O(N + range) for integral images, whose levels are counted
with one bincount over the offsets from the minimum (range < max(N, 65536)),
and an O(N log N) sort for any other input.  `histogram` is the same level
structure in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Image:
    """Flat float64 intensity array plus the grid shape.

    `data` is stored flattened (C order); `shape` may have any number of
    extents d >= 1.  Treat instances as immutable.
    """

    data: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64).ravel()
        shape = tuple(int(s) for s in self.shape)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "shape", shape)
        if len(shape) < 1 or any(s <= 0 for s in shape):
            raise ValueError("shape must have positive extents")
        if data.size != int(np.prod(shape)):
            raise ValueError(
                f"data has {data.size} samples, shape {shape} wants {int(np.prod(shape))}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("intensities must be finite")

    @property
    def n(self) -> int:
        """Total measure (pixel count)."""
        return self.data.size

    @classmethod
    def from_array(cls, arr) -> "Image":
        a = np.asarray(arr, dtype=np.float64)
        return cls(a.ravel(), a.shape)

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


def _integer_levels(x: np.ndarray):
    """(values, masses, pixel_level) of x by counting, or None.

    Applies when every value is the minimum lo plus an integer offset below
    max(N, 65536), checked exactly over all N values: one bincount over the
    offsets and a lookup table from offset to level index replace the sort.
    Levels are lo + offset, so a level at zero gets the value +0.0.
    """
    lo = x.min()
    if not x.max() < lo + max(x.size, 65536):  # no overflow at +-1e308
        return None
    ints = (x - lo).astype(np.intp)
    if not np.array_equal(ints + lo, x):
        return None
    counts = np.bincount(ints)
    present = np.flatnonzero(counts)[::-1]
    lut = np.empty(counts.size, dtype=np.intp)
    lut[present] = np.arange(present.size)
    return present + lo, counts[present], lut[ints]


def decreasing_rearrangement(img: Image) -> tuple[Rearrangement, LevelStructure]:
    """Group the image into descending distinct levels.

    Returns the rearrangement (values with real masses, ready for the 1-D
    filter) and the level structure (integer masses plus the per-pixel level
    index needed to reconstruct images).  Integral images (every PGM) are
    grouped by counting in O(N + range); any other input is sorted by
    np.unique in O(N log N).
    """
    found = _integer_levels(img.data)
    if found is None:
        vals_asc, inverse, counts = np.unique(
            img.data, return_inverse=True, return_counts=True
        )
        found = (vals_asc[::-1].copy(), counts[::-1].copy(),
                 (vals_asc.size - 1) - inverse.ravel())
    values, masses, pixel_level = found
    rearr = Rearrangement(values, masses.astype(np.float64))
    levels = LevelStructure(values.copy(), masses, pixel_level, img.shape)
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
