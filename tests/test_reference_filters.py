"""Pixel-domain filters against the 1-D engine and naive reimplementations."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import random_quantized
from nfr import (
    FilterConfig,
    Image,
    SpatialConfig,
    bilateral,
    decreasing_rearrangement,
    direct_nf,
    iterate,
    make_kernel,
    nlm,
    reconstruct,
    rmse,
)


def naive_bilateral(u, k, rho, wr):
    """Quadruple loop over centers and truncated in-bounds windows."""
    h_, w_ = u.shape
    out = np.empty_like(u)
    for i in range(h_):
        for j in range(w_):
            num = den = 0.0
            for y in range(max(0, i - wr), min(h_, i + wr + 1)):
                for x in range(max(0, j - wr), min(w_, j + wr + 1)):
                    d2 = (y - i) ** 2 + (x - j) ** 2
                    w = math.exp(-d2 / (rho * rho)) * float(
                        k.profile((u[i, j] - u[y, x]) / k.h))
                    num += w * u[y, x]
                    den += w
            out[i, j] = num / den
    return np.clip(out, u.min(), u.max())


def naive_nlm(u, k, rho, pr, wr):
    """Direct per-pixel patch comparison with mirror padding."""
    h_, w_ = u.shape
    pad = np.pad(u, pr, mode="symmetric")
    ax = np.arange(-pr, pr + 1, dtype=np.float64)
    gk = np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2) / (2.0 * rho * rho))
    gk /= gk.sum()
    out = np.empty_like(u)
    for i in range(h_):
        for j in range(w_):
            pi = pad[i:i + 2 * pr + 1, j:j + 2 * pr + 1]
            num = den = 0.0
            for y in range(max(0, i - wr), min(h_, i + wr + 1)):
                for x in range(max(0, j - wr), min(w_, j + wr + 1)):
                    py = pad[y:y + 2 * pr + 1, x:x + 2 * pr + 1]
                    dist = float(np.sum(gk * (pi - py) ** 2))
                    w = float(k.profile(math.sqrt(dist) / k.h))
                    num += w * u[y, x]
                    den += w
            out[i, j] = num / den
    return np.clip(out, u.min(), u.max())


class TestDirectNf:
    @pytest.mark.parametrize("scheme", ["varying", "fixed"])
    def test_matches_1d_engine(self, scheme, gauss):
        # dual route: pixel-domain iteration vs rearrange/filter/reconstruct
        img = random_quantized(12)
        k = gauss(20.0)
        got = direct_nf(img, k, 5, scheme=scheme).data
        _, levels = decreasing_rearrangement(img)
        cfg = FilterConfig(gauss(20.0), scheme=scheme, stop_tolerance=1e-300,
                           max_iterations=5)
        trace = iterate(decreasing_rearrangement(img)[0], cfg)
        want = reconstruct(levels, trace.iterates[-1].values).data
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_constant_image_exact(self, gauss):
        img = Image.from_array(np.full((7, 5), 3.25))
        out = direct_nf(img, gauss(4.0), 3)
        assert np.array_equal(out.data, img.data)

    def test_zero_iterations_is_identity(self, gauss):
        img = random_quantized(0)
        out = direct_nf(img, gauss(4.0), 0)
        assert np.array_equal(out.data, img.data)

    def test_evaluation_count_is_pixels_times_levels(self, gauss):
        img = random_quantized(3, size=16, levels=32)
        q = np.unique(img.data).size
        k = gauss(15.0)
        k.reset_evaluations()
        direct_nf(img, k, 1)
        assert k.evaluations == img.n * q

    def test_ties_stay_ties(self, gauss):
        img = random_quantized(7)
        out = direct_nf(img, gauss(12.0), 4).data
        # pixels that started on one level must still share one value
        r, levels = decreasing_rearrangement(img)
        for lvl in range(r.values.size):
            vals = out[levels.level_of_code[levels.image.raster] == lvl]
            assert np.all(vals == vals[0])

    def test_worker_count_does_not_change_bits(self, gauss):
        img = random_quantized(4)
        a = direct_nf(img, gauss(18.0), 3, workers=1)
        b = direct_nf(img, gauss(18.0), 3, workers=3)
        assert np.array_equal(a.data, b.data)
        # N = Q = 4096 is 16 row blocks, so the worker pool does run; the
        # default is one worker per CPU of the affinity mask
        rng = np.random.default_rng(5)
        img = Image.from_array(rng.permutation(4096).reshape(64, 64) * 0.0625)
        for scheme in ("varying", "fixed"):
            a = direct_nf(img, gauss(25.0), 2, scheme, workers=1)
            for workers in (3, None):
                b = direct_nf(img, gauss(25.0), 2, scheme, workers=workers)
                assert np.array_equal(a.data, b.data), (scheme, workers)

    def test_bits_do_not_depend_on_blas_threads(self, tmp_path):
        # a threaded BLAS splits a product's sum by its thread count; the
        # oracle's row sums must not, so children with 1 and 2 BLAS threads
        # agree (on a 1-CPU host both may run one thread).  N = Q = 2000 is
        # blocks of 524 rows, whose BLAS products moved ulps with the count
        import nfr

        src = os.path.dirname(os.path.dirname(os.path.abspath(nfr.__file__)))
        code = ("import hashlib, numpy as np; from nfr import Image, direct_nf, make_kernel; "
                "u = np.random.default_rng(5).permutation(2000).reshape(50, 40) * 0.0625; "
                "out = direct_nf(Image.from_array(u), make_kernel('gaussian', 25.0), 2, "
                "workers=1); print(hashlib.sha256(out.data.tobytes()).hexdigest())")
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS"), threads))
            r = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                               capture_output=True, text=True, env=env)
            assert r.returncode == 0, r.stderr
            digests.add(r.stdout)
        assert len(digests) == 1

    def test_default_workers_follow_the_affinity_mask(self, monkeypatch):
        import nfr.reference_filters

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert nfr.reference_filters.default_workers() == 3
        monkeypatch.delattr(os, "sched_getaffinity")  # where the mask cannot be read
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert nfr.reference_filters.default_workers() == 5

    def test_peak_memory_is_blocked(self, gauss):
        # N = Q = 4096: one 4096-row block would hold 128 MiB per temporary;
        # the workers' blocks in flight share one budget, whatever the count
        rng = np.random.default_rng(2)
        img = Image.from_array(rng.permutation(4096).reshape(64, 64) * 0.0625)
        for workers in (1, 8):
            tracemalloc.start()
            try:
                direct_nf(img, gauss(25.0), 1, workers=workers)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20, workers

    def test_schemes_diverge_after_two_steps(self, gauss):
        img = random_quantized(4)
        a = direct_nf(img, gauss(18.0), 2, scheme="varying")
        b = direct_nf(img, gauss(18.0), 2, scheme="fixed")
        assert not np.array_equal(a.data, b.data)

    def test_rejects_bad_args(self, gauss):
        img = random_quantized(1)
        with pytest.raises(ValueError):
            direct_nf(img, gauss(1.0), -1)
        with pytest.raises(ValueError):
            direct_nf(img, gauss(1.0), 1, scheme="oscillating")
        for bad in (1.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="iterations must be >= 0 and a finite"):
                direct_nf(img, gauss(1.0), bad)
            with pytest.raises(ValueError, match="workers must be >= 1 and a finite"):
                direct_nf(img, gauss(1.0), 1, workers=bad)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_rejects_workers_below_one(self, gauss, workers):
        # 0 would divide the block budget by zero, and -2 run serially
        with pytest.raises(ValueError, match="workers must be >= 1"):
            direct_nf(random_quantized(1), gauss(1.0), 1, workers=workers)


class TestBilateral:
    def test_matches_naive_loop(self, gauss):
        rng = np.random.Generator(np.random.PCG64(21))
        u = rng.uniform(0.0, 255.0, size=(9, 7))
        k = gauss(40.0)
        got = bilateral(Image.from_array(u), k, SpatialConfig(rho=1.5)).to_array()
        want = naive_bilateral(u, k, 1.5, math.ceil(3.0 * 1.5))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_explicit_window_radius(self, gauss):
        rng = np.random.Generator(np.random.PCG64(22))
        u = rng.uniform(0.0, 255.0, size=(8, 8))
        k = gauss(40.0)
        got = bilateral(Image.from_array(u), k,
                        SpatialConfig(rho=2.0, window_radius=3)).to_array()
        want = naive_bilateral(u, k, 2.0, 3)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_constant_image_exact(self, gauss):
        img = Image.from_array(np.full((6, 6), 11.0))
        out = bilateral(img, gauss(5.0), SpatialConfig(rho=2.0))
        assert np.array_equal(out.data, img.data)

    def test_requires_2d(self, gauss):
        img = Image(np.array([3.0, 1.0]), (2,))
        with pytest.raises(ValueError):
            bilateral(img, gauss(1.0), SpatialConfig(rho=1.0))

    def test_rejects_negative_iterations(self, gauss):
        img = Image.from_array(np.arange(12.0).reshape(3, 4))
        with pytest.raises(ValueError, match="iterations must be >= 0"):
            bilateral(img, gauss(5.0), SpatialConfig(rho=1.0), -1)

    def test_denoises(self, gauss, squares_clean, noisy_squares):
        out = bilateral(noisy_squares, gauss(60.0), SpatialConfig(rho=2.0))
        assert rmse(squares_clean, out) < 0.5 * rmse(squares_clean, noisy_squares)

    def test_output_within_input_range(self, gauss, noisy_squares):
        out = bilateral(noisy_squares, gauss(60.0), SpatialConfig(rho=2.0))
        assert out.data.min() >= noisy_squares.data.min()
        assert out.data.max() <= noisy_squares.data.max()


class TestNlm:
    def test_matches_naive_loop(self, gauss):
        rng = np.random.Generator(np.random.PCG64(23))
        u = rng.uniform(0.0, 255.0, size=(6, 6))
        k = gauss(35.0)
        sp = SpatialConfig(rho=1.0, patch_radius=1, window_radius=3)
        got = nlm(Image.from_array(u), k, sp).to_array()
        want = naive_nlm(u, k, 1.0, 1, 3)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_degenerate_patch_is_direct_nf_step(self, gauss):
        # patch radius 0 and a window spanning the image reduce the patch
        # distance to |u_i - u_j|, i.e. one all-pixels filter step
        img = random_quantized(8, size=8)
        k = gauss(25.0)
        got = nlm(img, k, SpatialConfig(rho=1.0, patch_radius=0,
                                        window_radius=8)).data
        want = direct_nf(img, gauss(25.0), 1).data
        assert np.allclose(got, want, rtol=1e-10, atol=0)

    def test_constant_image_exact(self, gauss):
        img = Image.from_array(np.full((6, 6), 200.0))
        out = nlm(img, gauss(5.0), SpatialConfig(rho=1.0, patch_radius=1))
        assert np.array_equal(out.data, img.data)

    def test_requires_2d(self, gauss):
        img = Image(np.array([3.0, 1.0]), (2,))
        with pytest.raises(ValueError):
            nlm(img, gauss(1.0), SpatialConfig(rho=1.0))

    def test_rejects_negative_iterations(self, gauss):
        img = Image.from_array(np.arange(12.0).reshape(3, 4))
        with pytest.raises(ValueError, match="iterations must be >= 0"):
            nlm(img, gauss(5.0), SpatialConfig(rho=1.0, patch_radius=1), -1)

    def test_denoises(self, gauss, squares_clean, noisy_squares):
        out = nlm(noisy_squares, gauss(45.0),
                  SpatialConfig(rho=1.0, patch_radius=1, window_radius=5))
        assert rmse(squares_clean, out) < 0.5 * rmse(squares_clean, noisy_squares)


@pytest.mark.parametrize("windowed", [bilateral, nlm])
def test_windowed_rejects_non_integral_iterations(gauss, windowed):
    img = Image.from_array(np.arange(12.0).reshape(3, 4))
    for bad in (1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="iterations must be >= 0 and a finite"):
            windowed(img, gauss(5.0), SpatialConfig(rho=1.0), bad)


class TestSpatialConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SpatialConfig(rho=0.0)
        with pytest.raises(ValueError):
            SpatialConfig(rho=1.0, patch_radius=-1)
        with pytest.raises(ValueError):
            SpatialConfig(rho=1.0, window_radius=0)
        for bad in (1.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="patch_radius must be >= 0 and a finite"):
                SpatialConfig(rho=1.0, patch_radius=bad)
            with pytest.raises(ValueError, match="window_radius must be >= 1 and a finite"):
                SpatialConfig(rho=1.0, window_radius=bad)
        sp = SpatialConfig(rho=1.0, patch_radius=2.0, window_radius=3.0)
        assert (sp.patch_radius, sp.window_radius) == (2, 3)
