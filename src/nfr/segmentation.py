"""Histogram-domain segmentation from converged filter iterates.

The filter drives the rearrangement toward a piecewise-constant function;
levels whose converged values stay within a tolerance of each other form one
flat region.  Labels are assigned through the original level structure, so a
region mask is always a union of the input image's level sets — the filter
never splits a level set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filter1d import FilterConfig, FilterTrace, iterate
from .rearrangement import Image, Rearrangement, decreasing_rearrangement


@dataclass(frozen=True, eq=False)
class Segmentation:
    """Per-pixel region labels plus representative region values.

    Labels index `region_values`, which is strictly descending; label 0 is
    the brightest region.
    """

    labels: np.ndarray
    shape: tuple[int, ...]
    region_values: np.ndarray
    region_masses: np.ndarray

    @property
    def region_count(self) -> int:
        return self.region_values.size

    def mask(self, region: int) -> np.ndarray:
        """Boolean mask of one region, in image shape."""
        if not 0 <= region < self.region_count:
            raise ValueError(f"region {region} out of range")
        return (self.labels == region).reshape(self.shape)


def _group_levels(values: np.ndarray, masses: np.ndarray, threshold: float):
    """Chain-merge descending values whose adjacent gaps are <= threshold.

    Returns (region index per level, region values, region masses); region
    value is the mass-weighted mean of its merged levels.
    """
    gaps = values[:-1] - values[1:]
    boundary = np.concatenate(([0], (gaps > threshold).astype(np.intp)))
    region_of_level = np.cumsum(boundary)
    n_regions = int(region_of_level[-1]) + 1
    mass = np.bincount(region_of_level, weights=masses, minlength=n_regions)
    wsum = np.bincount(region_of_level, weights=masses * values, minlength=n_regions)
    return region_of_level, wsum / mass, mass


def segment_with_trace(img: Image, cfg: FilterConfig, merge_tol: float = 1e-3
                       ) -> tuple[Segmentation, FilterTrace]:
    """Filter to convergence, then merge near-equal levels into regions.

    merge_tol is relative: converged levels closer than
    merge_tol * (max - min of the input image) chain into one region.  The
    region value is the mass-weighted mean of its levels, so total image
    mass is preserved.
    """
    if not merge_tol >= 0.0:
        raise ValueError("merge_tol must be >= 0")
    rearr, levels = decreasing_rearrangement(img)
    trace = iterate(rearr, cfg)
    final = trace.iterates[-1]
    dyn = float(rearr.values[0] - rearr.values[-1])  # input max - min
    region_of_level, region_values, region_masses = _group_levels(
        final.values, final.masses, merge_tol * dyn
    )
    labels = region_of_level[levels.pixel_level]
    seg = Segmentation(labels, img.shape, region_values, region_masses)
    return seg, trace


def segment(img: Image, cfg: FilterConfig, merge_tol: float = 1e-3) -> Segmentation:
    """See `segment_with_trace`; this drops the trace."""
    return segment_with_trace(img, cfg, merge_tol)[0]


def dice(a: np.ndarray, b: np.ndarray) -> float:
    """Dice coefficient 2|A & B| / (|A| + |B|) of two boolean masks.

    Two empty masks match vacuously and score 1.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"mask shapes differ: {a.shape} vs {b.shape}")
    a = a.astype(bool)
    b = b.astype(bool)
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    return 2.0 * int(np.logical_and(a, b).sum()) / total


def inflexion_points(v: Rearrangement) -> list[float]:
    """Cumulative-mass positions where the curvature of v changes sign.

    Levels are placed at the mass midpoints of their intervals; divided
    second differences on those nodes estimate curvature, and a sign flip
    between consecutive interior nodes is reported at the mass boundary
    separating them.  Diagnostic only (histogram modes show up as inflexions
    of the rearrangement); returns [] for fewer than three levels.
    """
    q = v.values.size
    if q < 3:
        return []
    cum = np.cumsum(v.masses)
    mid = cum - v.masses / 2.0
    slopes = np.diff(v.values) / np.diff(mid)
    half_span = (mid[2:] - mid[:-2]) / 2.0
    d2 = np.diff(slopes) / half_span  # curvature at interior nodes 1..q-2
    sign = np.sign(d2)
    return cum[np.flatnonzero(sign[:-1] * sign[1:] < 0) + 1].tolist()
