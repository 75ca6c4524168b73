"""Pixel-domain filters: direct neighborhood filter, bilateral, nonlocal means.

`direct_nf` is the correctness oracle for the 1-D engine: it averages over
ALL pixels (fully nonlocal, no spatial window), evaluating the kernel once
per (pixel, distinct level) pair — N*Q evaluations per iteration, against
the engine's Q^2.  Bilateral (Tomasi & Manduchi 1998) and NLM (Buades,
Coll & Morel 2005) are the spatially-windowed comparison baselines, each
applied once by default.  They share one offset loop, `_windowed`, and
differ only in the weight they give an offset box against its centre box.

All three take a step count >= 0 (0 returns the input), clamp outputs to
the input range (convex combinations can overshoot by ulps) and so map
constant images to themselves exactly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .filter1d import _guard_step_values
from .kernels import Kernel, eval_scaled
from .rearrangement import Image

_CHUNK = 1 << 20  # kernel-matrix entries in flight: 8 MiB per float64 temporary


@dataclass
class SpatialConfig:
    """Spatial parameters for the windowed filters.

    rho is the spatial Gaussian scale (bilateral) or the patch Gaussian
    standard deviation (NLM).  window_radius None picks the per-filter
    default: ceil(3*rho) for bilateral, 10 for NLM.
    """

    rho: float
    patch_radius: int = 0
    window_radius: int | None = None

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ValueError("rho must be positive")
        if math.isinf(self.rho):
            raise ValueError("rho must be finite")
        if int(self.patch_radius) < 0:
            raise ValueError("patch_radius must be >= 0")
        self.patch_radius = int(self.patch_radius)
        if self.window_radius is not None:
            if int(self.window_radius) < 1:
                raise ValueError("window_radius must be >= 1")
            self.window_radius = int(self.window_radius)


def default_workers() -> int:
    """The CPUs this process may run on (its affinity mask), or the CPU
    count where the mask cannot be read."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _nf_pixel_pass(um, vals, level_sums, level_counts, k, workers):
    """Per-pixel kernel averages against the grouped levels of um.

    um: weight-source pixel values (length N); vals: its distinct values,
    descending; level_sums/level_counts: per-level sums of the current
    values and pixel counts.  Returns the raw per-pixel outputs.  Row sums
    use einsum: a threaded BLAS splits them by its CPU-dependent thread count.
    """
    n = um.size
    out = np.empty(n)
    rows = max(1, _CHUNK // (vals.size * workers))  # blocks in flight share _CHUNK

    def run(lo, hi):
        kblk = eval_scaled(k, um[lo:hi, None] - vals[None, :])
        out[lo:hi] = (np.einsum("ij,j->i", kblk, level_sums)
                      / np.einsum("ij,j->i", kblk, level_counts))

    spans = [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
    if workers > 1 and len(spans) > 1:
        from concurrent.futures import ThreadPoolExecutor  # deferred: 5 ms of start-up
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda s: run(*s), spans))
    else:
        for span in spans:
            run(*span)
    return out


def direct_nf(img: Image, k: Kernel, iterations: int, scheme: str = "varying",
              workers: int | None = None) -> Image:
    """Iterated pixel-domain neighborhood filter over all pixels.

    scheme "varying" reads the weights from the current iterate, "fixed"
    from the input image.  Pixels sharing a weight value receive one common
    output value (their rows are identical sums), taken from their first
    occurrence so ties stay ties bit-for-bit; the shared per-level outputs
    then get the same range/ordering guard as the 1-D engine.  Row blocks
    go to `workers` >= 1 threads (default `default_workers()`); each
    block's outputs are the same whichever thread computes it.
    """
    if int(iterations) < 0:
        raise ValueError("iterations must be >= 0")
    if scheme not in ("varying", "fixed"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if workers is None:
        workers = default_workers()
    elif int(workers) < 1:
        raise ValueError("workers must be >= 1")
    u0 = img.data
    un = u0.copy()
    for _ in range(int(iterations)):
        um = u0 if scheme == "fixed" else un
        vals_asc, first, inverse, counts = np.unique(
            um, return_index=True, return_inverse=True, return_counts=True
        )
        inverse = inverse.ravel()
        sums_asc = np.bincount(inverse, weights=un, minlength=vals_asc.size)
        # descending level order, matching the 1-D engine's orientation
        vals = vals_asc[::-1].copy()
        level_sums = sums_asc[::-1].copy()
        level_counts = counts[::-1].astype(np.float64)
        out = _nf_pixel_pass(um, vals, level_sums, level_counts, k, workers)
        per_level = out[first[::-1]]
        per_level = _guard_step_values(per_level, un)
        un = per_level[(vals_asc.size - 1) - inverse]
    return Image(un, img.shape)


def _windowed(img: Image, wr: int, pr: int, iterations: int, weight,
              name: str) -> Image:
    """One windowed weighted average per step, for bilateral and NLM.

    Each step mirror-pads u by pr and, over the in-bounds offsets d of the
    (2*wr+1)^2 window, sums weight(c, s, dy, dx) * u(x + d), with c and s the
    centre and offset boxes of the padded image; normalization runs over the
    in-bounds window and the output is clipped to the input range.
    """
    if len(img.shape) != 2:
        raise ValueError(f"{name} requires a 2-D image")
    if int(iterations) < 0:
        raise ValueError("iterations must be >= 0")
    u = img.to_array()
    h_, w_ = u.shape
    lo, hi = float(u.min()), float(u.max())
    for _ in range(int(iterations)):
        pad = np.pad(u, pr, mode="symmetric")
        num = np.zeros_like(u)
        den = np.zeros_like(u)
        for dy in range(-wr, wr + 1):
            ys0, ys1 = max(0, -dy), min(h_, h_ - dy)
            for dx in range(-wr, wr + 1):
                xs0, xs1 = max(0, -dx), min(w_, w_ - dx)
                if ys0 >= ys1 or xs0 >= xs1:
                    continue
                c = pad[ys0:ys1 + 2 * pr, xs0:xs1 + 2 * pr]
                s = pad[ys0 + dy:ys1 + dy + 2 * pr, xs0 + dx:xs1 + dx + 2 * pr]
                wgt = weight(c, s, dy, dx)
                num[ys0:ys1, xs0:xs1] += wgt * u[ys0 + dy:ys1 + dy, xs0 + dx:xs1 + dx]
                den[ys0:ys1, xs0:xs1] += wgt
        u = np.clip(num / den, lo, hi)
    return Image(u.ravel(), img.shape)


def bilateral(img: Image, k: Kernel, sp: SpatialConfig, iterations: int = 1) -> Image:
    """Bilateral filter: intensity kernel times spatial Gaussian exp(-d^2/rho^2).

    The spatial term is truncated at window_radius (default ceil(3*rho)).
    """
    def weight(c, s, dy, dx):
        return math.exp(-(dy * dy + dx * dx) / (sp.rho * sp.rho)) \
            * eval_scaled(k, c - s)

    wr = sp.window_radius if sp.window_radius is not None else math.ceil(3.0 * sp.rho)
    return _windowed(img, wr, 0, iterations, weight, "bilateral filter")


def nlm(img: Image, k: Kernel, sp: SpatialConfig, iterations: int = 1) -> Image:
    """Nonlocal means: weights from Gaussian-weighted patch distances.

    The patch distance at offset d is sum_tau G(tau) (u(x+tau) - u(x+d+tau))^2
    with G a std-rho Gaussian truncated to the patch and normalized to sum 1
    (so patch_radius 0 degenerates to the plain squared difference and the
    filter reduces to one direct-NF step on a full window).  Patches read
    symmetric (mirror) boundary extension; search offsets are restricted to
    in-bounds pixels, window_radius default 10.  Weight = K_h(sqrt(distance)),
    i.e. exp(-d^2/h^2) for the Gaussian kernel.
    """
    pr = sp.patch_radius
    ax = np.arange(-pr, pr + 1, dtype=np.float64)
    gk = np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2) / (2.0 * sp.rho * sp.rho))
    gk /= gk.sum()

    def weight(c, s, dy, dx):
        ny, nx = c.shape[0] - 2 * pr, c.shape[1] - 2 * pr
        d2 = (c - s) ** 2
        dist = np.zeros((ny, nx))
        for a in range(2 * pr + 1):
            for b in range(2 * pr + 1):
                dist += gk[a, b] * d2[a:a + ny, b:b + nx]
        return eval_scaled(k, np.sqrt(dist))

    wr = sp.window_radius if sp.window_radius is not None else 10
    return _windowed(img, wr, pr, iterations, weight, "nonlocal means")
