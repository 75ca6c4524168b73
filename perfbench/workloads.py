"""The three benchmark workloads: seeded inputs, CLI arguments, output checks.

Inputs come from this file's own numpy code (PCG64 uniforms, Box-Muller
normals, round and clip), never from `nfr.synthetic` or `nfr.noise_metrics`,
so a change to the program cannot change what it is measured on.

The reference for every output is the pixel-domain oracle `direct_nf`.  Its
per-pixel result depends on the image only through the distinct levels and
their pixel counts, and a common factor g of all counts cancels between the
numerator and denominator of every kernel average.  So the oracle runs on the
image's level multiset with each count divided by g, which is exact up to
summation-order roundoff (measured at 2.8e-12 relative on a 1024^2 image,
far inside the 1e-10 tolerance).  The two megapixel workloads round their
level counts to multiples of COUNT_MULTIPLE, so g >= 64; that is what
makes a 4-megapixel oracle affordable in every run.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RTOL = 1e-10  # the c1 tolerance of tests/test_acceptance.py
SNR = 10.0
MERGE_TOL = 1e-3  # `nfr segment --merge-tol` default
COUNT_MULTIPLE = 64
SQUARES_VALUES = (255.0, 170.0, 85.0, 0.0)


# ------------------------------------------------------------------ inputs

def standard_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normal samples by Box-Muller over PCG64 uniforms."""
    pairs = (n + 1) // 2
    u = rng.random((2, pairs))
    r = np.sqrt(-2.0 * np.log1p(-u[0]))
    theta = 2.0 * np.pi * u[1]
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z[:n]


def noisy_squares(rng: np.random.Generator, side: int) -> np.ndarray:
    """Quadrants [[255, 170], [85, 0]] plus noise of std sigma(clean)/SNR."""
    half = side // 2
    clean = np.empty((side, side))
    clean[:half, :half], clean[:half, half:] = SQUARES_VALUES[:2]
    clean[half:, :half], clean[half:, half:] = SQUARES_VALUES[2:]
    noise = standard_normal(rng, clean.size).reshape(clean.shape)
    return clean + (clean.std() / SNR) * noise


def quantise(a: np.ndarray, maxval: int = 255) -> np.ndarray:
    return np.clip(np.rint(a), 0.0, float(maxval))


def noisy_squares_u8(rng: np.random.Generator, side: int) -> np.ndarray:
    return counts_to_multiple(quantise(noisy_squares(rng, side)), COUNT_MULTIPLE)


def counts_to_multiple(a: np.ndarray, mult: int) -> np.ndarray:
    """Reassign pixels at level boundaries so every level count is a
    multiple of `mult` (at least `mult`, so no level disappears).

    Pixels keep their rank order, so each moves by at most the neighbouring
    level; the largest level absorbs the rounding so the total stays N.
    """
    flat = a.ravel()
    vals, counts = np.unique(flat, return_counts=True)
    adj = np.maximum(mult, mult * np.rint(counts / mult)).astype(np.int64)
    adj[np.argmax(adj)] += flat.size - int(adj.sum())
    out = np.empty_like(flat)
    out[np.argsort(flat, kind="stable")] = np.repeat(vals, adj)
    return out.reshape(a.shape)


def write_pgm8(path: Path, a: np.ndarray):
    h, w = a.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode() + a.astype(np.uint8).tobytes())


def write_csv(path: Path, a: np.ndarray):
    """The CLI's float CSV format; each distinct value is formatted once."""
    vals, inverse = np.unique(a, return_inverse=True)
    text = ["%.17g" % v for v in vals.tolist()]
    with open(path, "w") as fh:
        fh.write(f"# shape: {a.shape[0]} {a.shape[1]}\n")
        fh.write("\n".join([text[i] for i in inverse.ravel().tolist()]) + "\n")


def read_pgm(path: Path) -> tuple[np.ndarray, int]:
    """Read a canonically written P5 file (the CLI's only output form)."""
    magic, dims, maxval, raster = path.read_bytes().split(b"\n", 3)
    if magic != b"P5":
        raise ValueError(f"{path.name}: not P5")
    w, h = (int(t) for t in dims.split())
    maxval = int(maxval)
    dtype = ">u2" if maxval > 255 else "u1"
    return np.frombuffer(raster, dtype=dtype).reshape(h, w).astype(np.int64), maxval


def read_csv(path: Path) -> np.ndarray:
    with open(path) as fh:
        shape = tuple(int(t) for t in fh.readline().split(":", 1)[1].split())
        return np.loadtxt(fh, dtype=np.float64, ndmin=1).reshape(shape)


# ------------------------------------------------------------------ oracle

@dataclass
class Levels:
    """Distinct levels of the input, descending, with their pixel counts."""

    values: np.ndarray
    counts: np.ndarray
    pixel_level: np.ndarray  # level index of every pixel, image shape

    @classmethod
    def of(cls, pixels: np.ndarray) -> "Levels":
        vals, inverse, counts = np.unique(pixels, return_inverse=True,
                                          return_counts=True)
        q = vals.size
        return cls(vals[::-1].copy(), counts[::-1].copy(),
                   (q - 1) - inverse.reshape(pixels.shape))


def oracle_level_values(levels: Levels, kernel, iterations: int) -> np.ndarray:
    """direct_nf on the level multiset with counts divided by their gcd;
    returns the filtered value of each level."""
    from nfr import Image, direct_nf

    g = int(np.gcd.reduce(levels.counts))
    reps = levels.counts // g
    base = np.repeat(levels.values, reps)
    out = direct_nf(Image(base, (base.size,)), kernel, iterations, "varying",
                    workers=1).data
    starts = np.concatenate(([0], np.cumsum(reps)[:-1]))
    return out[starts]


def close(actual: np.ndarray, expected: np.ndarray) -> bool:
    return actual.shape == expected.shape and bool(
        np.all(np.abs(actual - expected) <= RTOL * np.abs(expected)))


# --------------------------------------------------------------- workloads

@dataclass
class Workload:
    name: str
    why: str
    pixels: Callable[[np.random.Generator], np.ndarray]
    command: str  # "denoise" or "segment"
    h: float  # width of the CLI's default Gaussian kernel
    csv_input: bool
    max_iter: int | None = None

    def input_name(self) -> str:
        return "in.csv" if self.csv_input else "in.pgm"

    def argv(self) -> list[str]:
        args = [self.command, "--input", self.input_name(), "--h", repr(self.h)]
        if self.max_iter is not None:
            args += ["--max-iter", str(self.max_iter)]
        if self.command == "segment":
            return args + ["--prefix", "seg"]
        return args + ["--output", "out.pgm", "--csv", "out.csv"]

    def report_path(self, work: Path) -> Path:
        return work / ("seg.report.jsonl" if self.command == "segment"
                       else "out.pgm.report.jsonl")

    def output_paths(self, work: Path) -> list[Path]:
        if self.command == "segment":
            return sorted(work.glob("seg.*.pgm")) + [work / "seg.regions.csv"]
        return [work / "out.pgm", work / "out.csv"]

    def clear_outputs(self, work: Path):
        for p in self.output_paths(work) + [self.report_path(work)]:
            p.unlink(missing_ok=True)

    def make_input(self, seed: int, work: Path) -> np.ndarray:
        """Write the seeded input into `work`; returns its pixel values."""
        pixels = self.pixels(np.random.Generator(np.random.PCG64(seed)))
        path = work / self.input_name()
        if self.csv_input:
            write_csv(path, pixels)
        else:
            write_pgm8(path, pixels)
        return pixels


class Checker:
    """Checks every operation's outputs against the direct_nf oracle.

    The oracle runs once, for the iteration count the first report states;
    outputs whose bytes match an already verified set pass without being
    re-parsed, since a byte-identical output is equally correct.
    """

    def __init__(self, wl: Workload, pixels: np.ndarray):
        self.wl = wl
        self.pixels = pixels
        self.levels = Levels.of(pixels)
        self.iterations = None
        self.expected_levels = None
        self.verified = set()
        self.seconds = 0.0  # spent checking, oracle included

    @property
    def q(self) -> int:
        return self.levels.values.size

    def check(self, work: Path) -> str | None:
        """None when the outputs in `work` are correct, else the reason."""
        t0 = time.perf_counter()
        try:
            return self._check(work)
        finally:
            self.seconds += time.perf_counter() - t0

    def _check(self, work: Path) -> str | None:
        report = json.loads(self.wl.report_path(work).read_text())
        it = int(report["iterations"])
        if report["kernel_evaluations"] != it * self.q * self.q:
            return (f"kernel_evaluations {report['kernel_evaluations']} != "
                    f"iterations*Q^2 = {it}*{self.q}^2")
        if self.iterations is None:
            from nfr import make_kernel

            self.iterations = it
            self.expected_levels = oracle_level_values(
                self.levels, make_kernel("gaussian", self.wl.h), it)
        elif it != self.iterations:
            return f"iterations {it} differ from the first operation's {self.iterations}"
        digest = hashlib.sha256()
        for p in self.wl.output_paths(work):
            digest.update(p.name.encode() + b"\0" + p.read_bytes())
        key = digest.hexdigest()
        if key in self.verified:
            return None
        err = (self._check_segment(work) if self.wl.command == "segment"
               else self._check_denoise(work))
        if err is None:
            self.verified.add(key)
        return err

    def _check_denoise(self, work: Path) -> str | None:
        expected = self.expected_levels[self.levels.pixel_level]
        values = read_csv(work / "out.csv")
        if not close(values, expected):
            return "out.csv differs from the direct_nf oracle"
        pgm, maxval = read_pgm(work / "out.pgm")
        if maxval != 255 or not np.array_equal(pgm, quantise(values)):
            return "out.pgm is not the rounded, clamped copy of out.csv"
        return None

    def _check_segment(self, work: Path) -> str | None:
        lv = self.expected_levels
        counts = self.levels.counts.astype(np.float64)
        threshold = MERGE_TOL * float(self.pixels.max() - self.pixels.min())
        region_of_level = np.concatenate(([0], np.cumsum(lv[:-1] - lv[1:] > threshold)))
        mass = np.bincount(region_of_level, weights=counts)
        value = np.bincount(region_of_level, weights=counts * lv) / mass
        labels = region_of_level[self.levels.pixel_level]

        got, maxval = read_pgm(work / "seg.labels.pgm")
        if maxval != 65535 or not np.array_equal(got, labels):
            return "seg.labels.pgm differs from the oracle's regions"
        masks = sorted(work.glob("seg.region[0-9]*.pgm"))
        if len(masks) != mass.size:
            return f"{len(masks)} region masks, oracle has {mass.size} regions"
        for i, path in enumerate(masks):
            got, maxval = read_pgm(path)
            if (path.name != f"seg.region{i:03d}.pgm" or maxval != 255
                    or not np.array_equal(got, np.where(labels == i, 255, 0))):
                return f"{path.name} is not the mask of region {i}"
        rows = np.loadtxt(work / "seg.regions.csv", delimiter=",", skiprows=1, ndmin=2)
        if (not np.array_equal(rows[:, 0], np.arange(mass.size))
                or not close(rows[:, 1], value) or not np.array_equal(rows[:, 2], mass)):
            return "seg.regions.csv differs from the oracle's regions"
        return None


# Each "why" records N, Q and the input file size, since the contract keeps
# BENCHMARK.json to a name and a reason per workload.
WORKLOADS = {w.name: w for w in (
    Workload(
        "u8_4mpx_segment",
        "nfr segment --h 25, 2048^2 8-bit noisy squares PGM (N=4194304, Q=255-256, "
        "4.0 MB): start-up, rearrangement sort and 16-bit/mask PGM writes dominate",
        lambda rng: noisy_squares_u8(rng, 2048),
        "segment", 25.0, False),
    Workload(
        "float_q4096_denoise",
        "nfr denoise --h 25 --max-iter 3 --csv, 64^2 float noisy squares CSV "
        "(N=Q=4096, 78 kB), as after nfr noise: the dense Q^2 step and J dominate "
        "time and memory",
        lambda rng: noisy_squares(rng, 64),
        "denoise", 25.0, True, max_iter=3),
    Workload(
        "unit_1mpx_denoise",
        "nfr denoise --h 0.098 --csv, 1024^2 8-bit noisy squares scaled to [0,1] "
        "CSV (N=1048576, Q~250, 16 MB): CSV read/write and the sort path dominate",
        lambda rng: noisy_squares_u8(rng, 1024) / 255.0,
        "denoise", 0.098, True),
)}
