"""Single filter steps, the descent functional, iteration control, expansion."""

import math
import tracemalloc

import numpy as np
import pytest

import nfr.filter1d
import nfr.kernels
from conftest import random_quantized
from nfr import (
    FilterConfig,
    GaussianProfile,
    Image,
    Kernel,
    NoiseSpec,
    Rearrangement,
    add_gaussian_noise,
    decreasing_rearrangement,
    direct_nf,
    expansion_residual,
    functional_j,
    g_primitive,
    iterate,
    make_kernel,
    nf_step,
    reconstruct,
    synthetic,
)


def step_self(r, k):
    return nf_step(r, r, k)


def full_j(v, k):
    """J = m^T g(d^2) m over all Q^2 pairs, diagonal and both triangles."""
    x, m = v.values, v.masses
    return float(m @ g_primitive(k, (x[:, None] - x[None, :]) ** 2) @ m)


class TestNfStep:
    def test_constant_is_fixed_point(self, gauss):
        r = Rearrangement(np.full(5, 42.0), np.ones(5))
        out = step_self(r, gauss(10.0))
        assert np.array_equal(out.values, r.values)
        assert np.array_equal(out.masses, r.masses)

    def test_two_level_hand_computation(self):
        # out_i = sum_j K((v_i-v_j)/h) m_j v_j / sum_j K((v_i-v_j)/h) m_j,
        # spelled out with plain floats for a two-level rearrangement
        a, b, m1, m2, h = 9.0, 3.0, 2.0, 5.0, 4.0
        w = math.exp(-(((a - b) / h) ** 2))
        want0 = (m1 * a + w * m2 * b) / (m1 + w * m2)
        want1 = (w * m1 * a + m2 * b) / (w * m1 + m2)
        out = step_self(Rearrangement([a, b], [m1, m2]), make_kernel("gaussian", h))
        assert out.values[0] == pytest.approx(want0, rel=1e-15)
        assert out.values[1] == pytest.approx(want1, rel=1e-15)

    def test_huge_bandwidth_gives_weighted_mean(self, gauss):
        vals = np.array([80.0, 50.0, 10.0])
        mass = np.array([1.0, 3.0, 2.0])
        out = step_self(Rearrangement(vals, mass), gauss(1e9))
        mean = float(vals @ mass / mass.sum())
        assert np.allclose(out.values, mean, rtol=1e-12, atol=0)

    def test_tiny_bandwidth_is_identity(self, gauss):
        vals = np.array([80.0, 50.0, 10.0])
        out = step_self(Rearrangement(vals, np.ones(3)), gauss(1e-3))
        assert np.allclose(out.values, vals, rtol=0, atol=1e-12)

    def test_mass_mismatch_rejected(self, gauss):
        r1 = Rearrangement([5.0, 1.0], [1.0, 1.0])
        r2 = Rearrangement([5.0, 1.0], [2.0, 1.0])
        with pytest.raises(ValueError):
            nf_step(r1, r2, gauss(1.0))

    def test_output_is_rearrangement(self, gauss):
        # ordering must survive the step for the log-concave kernel
        levels = decreasing_rearrangement(random_quantized(5))[0]
        for h in (0.5, 8.0, 64.0):
            out = step_self(levels, gauss(h))
            assert np.all(np.diff(out.values) <= 0)

    def test_range_shrinks(self, gauss):
        levels = decreasing_rearrangement(random_quantized(6))[0]
        out = step_self(levels, gauss(30.0))
        assert out.values[0] <= levels.values[0]
        assert out.values[-1] >= levels.values[-1]

    def test_shift_equivariance(self, gauss):
        k = gauss(7.0)
        vals = np.array([100.0, 60.0, 35.0, 5.0])
        mass = np.array([2.0, 1.0, 4.0, 1.0])
        base = step_self(Rearrangement(vals, mass), k)
        shifted = step_self(Rearrangement(vals + 1000.0, mass), k)
        assert np.allclose(shifted.values, base.values + 1000.0, rtol=1e-12)

    def test_scale_equivariance(self, gauss):
        vals = np.array([100.0, 60.0, 35.0, 5.0])
        mass = np.array([2.0, 1.0, 4.0, 1.0])
        base = step_self(Rearrangement(vals, mass), gauss(7.0))
        scaled = step_self(Rearrangement(vals * 3.0, mass), gauss(21.0))
        assert np.allclose(scaled.values, base.values * 3.0, rtol=1e-13)

    def test_fixed_weights_differ_after_first_step(self, gauss):
        k = gauss(20.0)
        v0 = decreasing_rearrangement(random_quantized(9))[0]
        v1 = step_self(v0, k)
        fixed2 = nf_step(v0, v1, k)
        varying2 = nf_step(v1, v1, k)
        assert not np.array_equal(fixed2.values, varying2.values)


class TestFunctionalJ:
    def test_constant_is_zero(self):
        r = Rearrangement(np.full(4, 7.0), np.ones(4))
        for kernel in ("gaussian", "power"):  # +0.0, not -0.0
            j = functional_j(r, make_kernel(kernel, 3.0))
            assert j == 0.0 and not np.signbit(j), kernel

    def test_two_point_closed_form(self):
        # diagonal terms vanish, the two cross terms are equal:
        # J = 2 m1 m2 g((a-b)^2) with g the kernel primitive
        a, b, m1, m2, h = 10.0, 4.0, 3.0, 2.0, 5.0
        k = make_kernel("gaussian", h)
        want = 2.0 * m1 * m2 * g_primitive(k, (a - b) ** 2)
        got = functional_j(Rearrangement([a, b], [m1, m2]), k)
        assert got == pytest.approx(want, rel=1e-14)

    def test_nonnegative(self, gauss):
        k = gauss(12.0)
        for seed in range(4):
            r = decreasing_rearrangement(random_quantized(seed))[0]
            assert functional_j(r, k) >= 0.0

    def test_grows_with_spread(self, gauss):
        k = gauss(50.0)
        r1 = Rearrangement([60.0, 40.0], [1.0, 1.0])
        r2 = Rearrangement([80.0, 20.0], [1.0, 1.0])
        assert functional_j(r2, k) > functional_j(r1, k)

    def test_step_decreases_j(self, gauss):
        k = gauss(15.0)
        r = decreasing_rearrangement(random_quantized(2))[0]
        assert functional_j(step_self(r, k), k) < functional_j(r, k)

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_power_j_sums_one_triangle(self, p, monkeypatch):
        k = make_kernel("power", 10.0, p)
        r = decreasing_rearrangement(random_quantized(5))[0]
        q = r.values.size
        full = full_j(r, k)
        seen = []

        def counting(k, s):
            seen.append(np.size(s))
            return g_primitive(k, s)

        monkeypatch.setattr(nfr.filter1d, "g_primitive", counting)
        assert functional_j(r, k) == pytest.approx(full, rel=1e-12)
        assert sum(seen) == q * (q - 1) // 2

    @pytest.mark.parametrize("p, rule_share", [(2.0, 0), (4.0, 0), (3.0, 1)])
    def test_power_j_rule_only_without_closed_form(self, p, rule_share, monkeypatch):
        # p = 2 and 4 take the profile's closed form; p = 3 shows the
        # counting wrapper does see the rule when it runs
        rule = nfr.kernels._log_panel_primitive
        seen = []

        def counting(profile, h, s):
            seen.append(np.size(s))
            return rule(profile, h, s)

        monkeypatch.setattr(nfr.kernels, "_log_panel_primitive", counting)
        r = decreasing_rearrangement(random_quantized(11))[0]
        q = r.values.size
        assert functional_j(r, make_kernel("power", 25.0, p)) > 0.0
        assert sum(seen) == rule_share * q * (q - 1) // 2


def loop_guard(out, x):
    """`_guard_step_values` as one left-to-right loop over every entry."""
    lo, hi = float(x.min()), float(x.max())
    out = np.clip(out, lo, hi)
    tol = 4.0 * out.size * np.finfo(np.float64).eps * max(abs(lo), abs(hi))
    for i in range(1, out.size):
        gap = out[i] - out[i - 1]
        if 0.0 < gap <= tol:
            out[i] = out[i - 1]
    return out


class TestGuard:
    def test_matches_loop(self):
        rng = np.random.default_rng(17)
        snapped = 0
        for _ in range(300):
            n = int(rng.integers(2, 80))
            x = np.sort(rng.uniform(-100.0, 100.0, n))[::-1]
            tol = 4.0 * n * np.finfo(np.float64).eps * float(np.max(np.abs(x)))
            out = x + rng.uniform(-1e-3, 1e-3, n) * rng.integers(0, 2, n)
            for _ in range(int(rng.integers(0, 4))):  # chains of near-ties
                a = int(rng.integers(0, n))
                run = out[a:a + int(rng.integers(1, 12))]
                run[:] = out[a] + tol * rng.uniform(-2.0, 2.0, run.size)
            for _ in range(int(rng.integers(0, 4))):  # gaps just above and below tol
                i = int(rng.integers(1, n))
                out[i] = out[i - 1] + tol * (1.0 + rng.choice([-1e-6, 1e-6]))
            out[rng.integers(0, n)] += 300.0 * rng.choice([-1.0, 1.0])  # clamped
            want = loop_guard(out.copy(), x)
            snapped += int(np.any(want != np.clip(out, x.min(), x.max())))
            assert np.array_equal(nfr.filter1d._guard_step_values(out.copy(), x), want)
        assert snapped > 100


class TestIterate:
    def test_constant_stops_immediately(self, gauss):
        r = Rearrangement(np.full(6, 9.0), np.ones(6))
        trace = iterate(r, FilterConfig(gauss(5.0)))
        assert trace.stop_reason == "tolerance"
        assert trace.iterations == 0
        assert len(trace.iterates) == 1

    @pytest.mark.parametrize("max_iterations, reason",
                             [(1, "max_iterations"), (2, "tolerance")])
    def test_collapse_to_constant(self, gauss, max_iterations, reason):
        # at h = 1e9 every weight rounds to 1, so the first step gives a
        # constant iterate (J = 0); that stops with "tolerance" only when a
        # step was left, as the relative rule is then 1
        r = Rearrangement([2.0, 1.0], [1.0, 3.0])
        trace = iterate(r, FilterConfig(gauss(1e9), max_iterations=max_iterations))
        assert trace.iterations == 1
        assert trace.j_values[-1] == 0.0 and not np.signbit(trace.j_values[-1])
        assert trace.stop_reason == reason

    def test_max_iterations_cap(self, gauss):
        r = decreasing_rearrangement(random_quantized(4))[0]
        cfg = FilterConfig(gauss(10.0), stop_tolerance=1e-300, max_iterations=3)
        trace = iterate(r, cfg)
        assert trace.stop_reason == "max_iterations"
        assert trace.iterations == 3
        assert len(trace.iterates) == len(trace.j_values) == len(trace.sup_norms) == 4

    def test_tolerance_stop(self, gauss):
        r = decreasing_rearrangement(random_quantized(4))[0]
        cfg = FilterConfig(gauss(10.0), stop_tolerance=1e-3, max_iterations=500)
        trace = iterate(r, cfg)
        assert trace.stop_reason == "tolerance"
        j = trace.j_values
        assert abs(j[-1] - j[-2]) / abs(j[-2]) < 1e-3

    def test_schemes_agree_on_first_step(self, gauss):
        r = decreasing_rearrangement(random_quantized(8))[0]
        k = gauss(12.0)
        tv = iterate(r, FilterConfig(k, scheme="varying", max_iterations=1,
                                     stop_tolerance=1e-300))
        tf = iterate(r, FilterConfig(k, scheme="fixed", max_iterations=1,
                                     stop_tolerance=1e-300))
        assert np.array_equal(tv.iterates[1].values, tf.iterates[1].values)

    @pytest.mark.parametrize("scheme", ["varying", "fixed"])
    def test_iterates_share_one_mass_partition(self, gauss, scheme):
        # a step is a contrast change: the level sets, so the masses, stay
        r = decreasing_rearrangement(random_quantized(6))[0]
        trace = iterate(r, FilterConfig(gauss(15.0), scheme=scheme, max_iterations=4,
                                        stop_tolerance=1e-300))
        assert trace.iterations == 4
        assert all(v.masses is r.masses for v in trace.iterates)
        assert nf_step(r, r, gauss(15.0)).masses is r.masses

    def test_sup_norms_never_grow(self, gauss):
        r = decreasing_rearrangement(random_quantized(1))[0]
        trace = iterate(r, FilterConfig(gauss(25.0), max_iterations=20,
                                        stop_tolerance=1e-300))
        assert np.all(np.diff(trace.sup_norms) <= 0)

    def test_bad_config(self, gauss):
        with pytest.raises(ValueError):
            FilterConfig(gauss(1.0), scheme="wandering")
        with pytest.raises(ValueError):
            FilterConfig(gauss(1.0), stop_tolerance=0.0)
        with pytest.raises(ValueError):
            FilterConfig(gauss(1.0), max_iterations=0)
        with pytest.raises(ValueError, match="stop_tolerance must be finite"):
            FilterConfig(gauss(1.0), stop_tolerance=math.inf)

    def test_non_finite_j_is_refused(self):
        # h^2 is finite, but h^2 times the pair sum overflows
        v0 = Rearrangement(np.array([1e150, 0.0]), np.array([1e5, 1e5]))
        with pytest.raises(ValueError, match="J is inf at iteration 0"):
            iterate(v0, FilterConfig(make_kernel("gaussian", 1e150)))


def reference_iterate(v0, cfg):
    """`iterate` spelled out from nf_step and `full_j`."""
    k = cfg.kernel
    iterates, j_values, reason = [v0], [full_j(v0, k)], "max_iterations"
    for _ in range(cfg.max_iterations):
        if j_values[-1] == 0.0:
            reason = "tolerance"
            break
        weights = v0 if cfg.scheme == "fixed" else iterates[-1]
        iterates.append(nf_step(weights, iterates[-1], k))
        j_values.append(full_j(iterates[-1], k))
        if abs(j_values[-1] - j_values[-2]) / abs(j_values[-2]) < cfg.stop_tolerance:
            reason = "tolerance"
            break
    return iterates, j_values, reason


def noisy_squares_32():
    return add_gaussian_noise(synthetic.squares(32), NoiseSpec(10.0, 7))


def full_row_gaussian_pass(k, v, w):
    """`_pass`'s Gaussian branch with every row block against all Q columns,
    so each unordered pair is evaluated twice: the reference for the pass
    that takes the columns [a, Q) only."""
    x, m, h = v.values, v.masses, k.h
    rows = max(1, nfr.filter1d._BLOCK_BYTES // (8 * x.size))
    nd = np.empty((x.size, 2))
    rhs = np.stack((m * x, m), axis=1)
    total = 0.0
    for a in range(0, x.size, rows):
        b = min(a + rows, x.size)
        d = np.subtract.outer(x[a:b], x)
        d /= h
        e = np.expm1(-(d * d))
        total += float(m[a:b] @ (e @ m))
        if w is not x:
            d = np.subtract.outer(w[a:b], w)
            d /= h
            e = np.expm1(-(d * d))
        e += 1.0
        nd[a:b] = e @ rhs
    return -(h * h) * total, nd


def pass_inputs(q, scheme):
    """Levels over [0, 255) with masses 1..8, and the weight levels of the
    scheme: the levels themselves (varying) or other ones (fixed)."""
    rng = np.random.default_rng(q)
    v = Rearrangement(np.sort(rng.uniform(0, 255, q))[::-1],
                      rng.integers(1, 9, q).astype(float))
    w = v.values if scheme == "varying" else np.sort(rng.uniform(0, 255, q))[::-1]
    return v, w


class TestGaussianPass:
    """The blocked passes of `iterate` against their definition."""

    @pytest.mark.parametrize("scheme", ["varying", "fixed"])
    @pytest.mark.parametrize("h", [5.0, 25.0, 80.0])
    @pytest.mark.parametrize("image", [lambda: random_quantized(11), noisy_squares_32],
                             ids=["random16", "noisy_squares32"])
    def test_matches_reference_loop(self, scheme, h, image):
        v0 = decreasing_rearrangement(image())[0]
        cfg = FilterConfig(make_kernel("gaussian", h), scheme=scheme, max_iterations=25)
        trace = iterate(v0, cfg)
        iterates, j_values, reason = reference_iterate(v0, cfg)
        assert trace.iterations == len(iterates) - 1
        assert trace.stop_reason == reason
        # Tolerances are relative to the scale of the input: noisy values
        # cross zero, and J of a nearly collapsed iterate is a sum of squared
        # level gaps ~1e-5, so entrywise relative errors mean nothing there.
        np.testing.assert_allclose(trace.j_values, j_values, rtol=1e-12,
                                   atol=1e-12 * j_values[0])
        scale = float(np.max(np.abs(v0.values)))
        for got, want in zip(trace.iterates, iterates):
            np.testing.assert_allclose(got.values, want.values, rtol=1e-12,
                                       atol=1e-12 * scale)

    @pytest.mark.parametrize("scheme", ["varying", "fixed"])
    @pytest.mark.parametrize("name, h", [("gaussian", 25.0), ("power", 1000.0)])
    def test_multi_block_matches_reference_loop(self, name, h, scheme, monkeypatch):
        # 4 rows per block at Q = 128, so every pass sums 32 blocks
        monkeypatch.setattr(nfr.filter1d, "_BLOCK_BYTES", 4 * 8 * 128)
        v0 = Rearrangement(np.sort(np.random.default_rng(5).uniform(0, 255, 128))[::-1],
                           np.random.default_rng(6).integers(1, 9, 128).astype(float))
        cfg = FilterConfig(make_kernel(name, h), scheme=scheme,
                           stop_tolerance=1e-300, max_iterations=5)
        trace = iterate(v0, cfg)
        iterates, j_values, reason = reference_iterate(v0, cfg)
        assert trace.stop_reason == reason
        for got, want in zip(trace.iterates, iterates, strict=True):
            np.testing.assert_allclose(got.values, want.values, rtol=1e-12)
        # J of the engine's own iterates: the last nonzero J (6e-7 against
        # J_0 = 4e9) is a sum of squared level gaps, which amplify the step's
        # roundoff far beyond the J pass's own
        np.testing.assert_allclose(trace.j_values, [full_j(v, cfg.kernel) for v in trace.iterates],
                                   rtol=1e-12)

    @pytest.mark.parametrize("scheme", ["varying", "fixed"])
    @pytest.mark.parametrize("h", [5.0, 25.0])
    def test_one_block_is_the_full_row_pass(self, scheme, h):
        # Q = 362 is one block: the columns [0, Q) are every column
        k = make_kernel("gaussian", h)
        v, w = pass_inputs(362, scheme)
        assert nfr.filter1d._BLOCK_BYTES // (8 * 362) >= 362
        j, nd, _ = nfr.filter1d._pass(k, v, w)
        j_ref, nd_ref = full_row_gaussian_pass(k, v, w)
        assert j == j_ref
        assert np.array_equal(nd, nd_ref)

    @pytest.mark.parametrize("scheme", ["varying", "fixed"])
    @pytest.mark.parametrize("h", [5.0, 25.0])
    @pytest.mark.parametrize("q, rows", [(363, None), (1000, 3), (1000, 5)],
                             ids=["363-two-blocks", "1000-3-rows", "1000-5-rows"])
    def test_blocks_match_the_full_row_pass(self, q, rows, scheme, h, monkeypatch):
        # Q = 363 is blocks of 361 and 2 rows; the tolerance is set by the
        # summation order of float64 dot products, not fitted to the result
        if rows is not None:
            monkeypatch.setattr(nfr.filter1d, "_BLOCK_BYTES", rows * 8 * q)
        k = make_kernel("gaussian", h)
        v, w = pass_inputs(q, scheme)
        j, nd, _ = nfr.filter1d._pass(k, v, w)
        j_ref, nd_ref = full_row_gaussian_pass(k, v, w)
        np.testing.assert_allclose(j, j_ref, rtol=1e-12, atol=1e-12 * abs(j_ref))
        for col in range(2):
            scale = float(np.max(np.abs(nd_ref[:, col])))
            np.testing.assert_allclose(nd[:, col], nd_ref[:, col], rtol=1e-12,
                                       atol=1e-12 * scale)

    @pytest.mark.parametrize("scheme, buffers", [("varying", 1.5), ("fixed", 2.5)])
    def test_peak_memory(self, scheme, buffers):
        # never above the dense passes: one Q x Q float64 buffer for the
        # varying scheme, K(v0) plus one for the fixed scheme (the few-block
        # bound is TestMemoryBudget's)
        q = 1024
        v0 = Rearrangement(np.linspace(255.0, 0.0, q), np.ones(q))
        cfg = FilterConfig(make_kernel("gaussian", 25.0), scheme=scheme,
                           stop_tolerance=1e-300, max_iterations=3)
        tracemalloc.start()
        try:
            trace = iterate(v0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.iterations == 3
        assert peak <= buffers * 8 * q * q

    @pytest.mark.parametrize("scheme, weight_sets", [("varying", 4), ("fixed", 4)])
    def test_evaluation_count(self, scheme, weight_sets):
        v0 = decreasing_rearrangement(random_quantized(12))[0]
        q = v0.values.size
        k = make_kernel("gaussian", 20.0)
        trace = iterate(v0, FilterConfig(k, scheme=scheme, stop_tolerance=1e-300,
                                         max_iterations=4))
        assert trace.iterations == 4
        assert k.evaluations == weight_sets * q * q


def full_column_pass(k, v, w):
    """`_pass`'s Gaussian branch before the band: every row block [a, b),
    of _BLOCK_BYTES / 8Q rows, takes all the columns [a, Q).  The reference
    for the band, which drops the columns whose weights are exact zeros."""
    x, m, h = v.values, v.masses, k.h
    rows = max(1, nfr.filter1d._BLOCK_BYTES // (8 * x.size))
    nd = None if w is None else np.zeros((x.size, 2))
    rhs = None if w is None else np.stack((m * x, m), axis=1)
    total, pairs = 0.0, 0
    for a in range(0, x.size, rows):
        b = min(a + rows, x.size)
        d = np.subtract.outer(x[a:b], x[a:]) / h
        e = np.expm1(-(d * d))
        c = m[a:].copy()
        c[b - a:] *= 2.0
        total += float(m[a:b] @ (e @ c))
        pairs += e.size
        if w is not None:
            if w is not x:
                d = np.subtract.outer(w[a:b], w[a:]) / h
                e = np.expm1(-(d * d))
                pairs += e.size
            e += 1.0
            nd[a:b] += e @ rhs[a:]
            nd[b:] += e[:, b - a:].T @ rhs[a:b]
    return 0.0 - (h * h) * total, nd, pairs


def spread_levels(q, ratio):
    """q distinct levels over [0, 255) with masses 1..8, and h = 255 / ratio."""
    rng = np.random.default_rng(int(ratio * 10) + q)
    return (Rearrangement(np.sort(rng.uniform(0, 255, q))[::-1],
                          rng.integers(1, 9, q).astype(float)), 255.0 / ratio)


def record_gaussian_blocks(monkeypatch):
    """The shapes of the Gaussian blocks `_pass` computes from now on."""
    shapes, minus_one = [], nfr.filter1d._gauss_minus_one

    def recording(d):
        shapes.append(d.shape)
        return minus_one(d)

    monkeypatch.setattr(nfr.filter1d, "_gauss_minus_one", recording)
    return shapes


RATIOS = [0.1, 1.0, 13.0, 31.0, 300.0, 2600.0]  # range / h


class TestExactBand:
    """The Gaussian pass skips only pairs whose float64 weight is 0.0."""

    @pytest.mark.parametrize("h", [1e-3, 0.098, 1.0, 25.0, 250.0, 3e5])
    @pytest.mark.parametrize("xi", [0.0, 1.0, -17.5, 255.0, 65535.0])
    def test_cut_rounds_to_minus_one(self, xi, h):
        # the levels one ulp either side of fl(x_i - fl(6.2 h)), the cut
        x = xi * h
        t = x - nfr.filter1d._CUT * h
        xs = np.array([x, np.nextafter(t, np.inf), t, np.nextafter(t, -np.inf)])
        # as _pass finds reach: only the last level is more than 6.2 h below
        assert np.searchsorted(-xs, nfr.filter1d._CUT * h - xs[:1], side="right")[0] == 3
        d = np.subtract.outer(xs[:1], xs[1:])
        d /= h
        assert np.all(np.abs(d - 6.2) < 1e-9)
        e = np.expm1(-(d * d))
        assert e.tolist() == [[-1.0, -1.0, -1.0]]
        assert (e + 1.0).tolist() == [[0.0, 0.0, 0.0]]

    def test_cut_has_a_margin(self):
        # exp(-d^2) < 2^-54 from d = sqrt(54 ln 2) = 6.118 on; short of that
        # the weight is not zero, so the cut cannot move much further in
        d = np.concatenate((np.linspace(6.2, 40.0, 1001), [1e10, np.inf]))
        assert np.all(np.expm1(-(d * d)) == -1.0)
        assert np.expm1(-(6.0 * 6.0)) > -1.0
        assert math.sqrt(54.0 * math.log(2.0)) < 6.12 < nfr.filter1d._CUT

    @pytest.mark.parametrize("scheme", ["varying", "fixed"])
    @pytest.mark.parametrize("ratio", RATIOS[2:])  # a band narrower than 6.2 h
    def test_dropped_pairs_are_exact_zeros(self, ratio, scheme, monkeypatch):
        q = 1500  # at least 87 rows per block, 18 MB per full Q x Q matrix
        v, h = spread_levels(q, ratio)
        w = v.values if scheme == "varying" else spread_levels(q, ratio + 1.0)[0].values
        shapes = record_gaussian_blocks(monkeypatch)
        nfr.filter1d._pass(make_kernel("gaussian", h), v, w)
        # blocks come in row order, for the fixed scheme as (v, w) pairs
        shapes = shapes[::2] if scheme == "fixed" else shapes
        assert len(shapes) > 1
        hi, a = np.empty(q, dtype=int), 0
        for rows, cols in shapes:
            hi[a:a + rows] = a + cols
            a += rows
        assert a == q
        dropped = np.arange(q) >= hi[:, None]  # pairs j > i right of the band
        assert dropped.any()
        for values in (v.values, w):
            d = np.subtract.outer(values, values) / h
            k_full = np.expm1(-(d * d)) + 1.0
            assert np.all(k_full[dropped] == 0.0)

    @pytest.mark.parametrize("scheme", ["varying", "fixed"])
    @pytest.mark.parametrize("ratio", RATIOS)
    def test_band_matches_the_full_column_pass(self, ratio, scheme, monkeypatch):
        # Q = 2000: blocks of 65 rows (the floor), or of 68 and 163 rows
        # where the band is 13 and 31 h over 255 (width about 950 and 400)
        v0, h = spread_levels(2000, ratio)
        cfg = FilterConfig(make_kernel("gaussian", h), scheme=scheme,
                           stop_tolerance=1e-6, max_iterations=5)
        band = iterate(v0, cfg)
        monkeypatch.setattr(nfr.filter1d, "_pass", full_column_pass)
        ref = iterate(v0, cfg)
        assert (band.iterations, band.stop_reason) == (ref.iterations, ref.stop_reason)
        assert band.pairs_computed <= ref.pairs_computed
        np.testing.assert_allclose(band.j_values, ref.j_values, rtol=1e-12,
                                   atol=1e-12 * ref.j_values[0])
        for got, want in zip(band.iterates, ref.iterates, strict=True):
            np.testing.assert_allclose(got.values, want.values, rtol=1e-12,
                                       atol=1e-12 * 255.0)

    @pytest.mark.parametrize("scheme", ["varying", "fixed"])
    def test_multi_block_band_matches_direct_nf(self, scheme):
        # 64^2 float noisy squares: Q = N = 4096, 32-row blocks, and plateaus
        # far enough apart that a third of the pairs are computed
        img = add_gaussian_noise(synthetic.squares(64), NoiseSpec(10.0, 7))
        rearr, levels = decreasing_rearrangement(img)
        q, k = rearr.values.size, make_kernel("gaussian", 25.0)
        trace = iterate(rearr, FilterConfig(k, scheme=scheme, stop_tolerance=1e-300,
                                            max_iterations=3))
        assert q == 4096 and trace.pairs_computed < 0.5 * 4 * q * q
        got = reconstruct(levels, trace.iterates[-1].values).data
        want = direct_nf(img, make_kernel("gaussian", 25.0), 3, scheme, workers=1).data
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("scheme, blocks", [("varying", 5), ("fixed", 8)])
    def test_pairs_computed(self, scheme, blocks, monkeypatch):
        # one block: each Q x Q block is computed whole, as the full-column
        # pass does, though the band is narrower than Q.  Four steps and a
        # last J: the fixed scheme's w block is its own after the first pass
        v0 = decreasing_rearrangement(random_quantized(12))[0]
        q = v0.values.size
        cfg = FilterConfig(make_kernel("gaussian", 20.0), scheme=scheme,
                           stop_tolerance=1e-300, max_iterations=4)
        band = iterate(v0, cfg)
        assert np.searchsorted(-v0.values, 124.0 - v0.values[0], side="right") < q
        assert band.pairs_computed == blocks * q * q
        # several plateaus and blocks: below the full-column count
        squares = decreasing_rearrangement(noisy_squares_32())[0]
        band_squares = iterate(squares, cfg)
        monkeypatch.setattr(nfr.filter1d, "_pass", full_column_pass)
        assert iterate(v0, cfg).pairs_computed == band.pairs_computed
        full = iterate(squares, cfg).pairs_computed
        assert band_squares.pairs_computed < full


class PlainGaussian:
    """exp(-s^2) as a custom profile without `minus_one` and `primitive`, so
    `iterate` takes J from the quadrature rule over i < j pairs."""

    def __call__(self, s):
        s = np.asarray(s, dtype=np.float64)
        return np.exp(-(s * s))

    def derivative(self, s):
        s = np.asarray(s, dtype=np.float64)
        return -2.0 * s * np.exp(-(s * s))


class TestEngines:
    @pytest.mark.parametrize("scheme", ["varying", "fixed"])
    @pytest.mark.parametrize("h, image", [
        (5.0, lambda: random_quantized(11)), (25.0, lambda: random_quantized(11)),
        (80.0, lambda: random_quantized(11)), (25.0, noisy_squares_32)],
        ids=["5.0", "25.0", "80.0", "noisy_squares32-25.0"])
    def test_dense_engine_matches_gaussian_engine(self, scheme, h, image):
        # noisy squares: Q = 1024, so PlainGaussian's pass is 8 blocks
        v0 = decreasing_rearrangement(image())[0]
        kg, kd = make_kernel("gaussian", h), Kernel(PlainGaussian(), h)
        tg = iterate(v0, FilterConfig(kg, scheme=scheme, max_iterations=25))
        td = iterate(v0, FilterConfig(kd, scheme=scheme, max_iterations=25))
        assert td.iterations == tg.iterations
        assert td.stop_reason == tg.stop_reason
        assert kd.evaluations == kg.evaluations
        scale = float(np.max(np.abs(v0.values)))
        for got, want in zip(td.iterates, tg.iterates, strict=True):
            np.testing.assert_allclose(got.values, want.values, rtol=0,
                                       atol=1e-12 * scale)
        np.testing.assert_allclose(td.j_values, tg.j_values, rtol=0,
                                   atol=1e-12 * tg.j_values[0])


class Laplace:
    """K(s) = exp(-|s|): log-concave, not Gaussian, and without `primitive`."""

    def __call__(self, s):
        return np.exp(-np.abs(np.asarray(s, dtype=np.float64)))

    def derivative(self, s):
        s = np.asarray(s, dtype=np.float64)
        return -np.sign(s) * np.exp(-np.abs(s))


class LaplaceMinusOne(Laplace):
    """Laplace with a `minus_one(e)` = K(e) - 1 in place: an attribute of the
    Gaussian's form, which must not give this profile the Gaussian band."""

    def minus_one(self, e):
        np.abs(e, out=e)
        np.negative(e, out=e)
        return np.expm1(e, out=e)


class TestOtherProfiles:
    """Only the Gaussian takes the band; any other profile takes the
    primitive path, whatever attributes it carries."""

    def test_the_gaussian_has_no_hook(self):
        assert not hasattr(GaussianProfile(), "minus_one")

    @pytest.mark.parametrize("scheme", ["varying", "fixed"])
    def test_minus_one_attribute_is_ignored(self, scheme):
        # the 32^2 ramp of 1024 levels at h = 25: 8 blocks of 128 rows, where
        # the Gaussian's cut and J applied to this profile leave its output
        # 0.2 off direct_nf and J_0 at half its value
        img = Image.from_array(np.arange(1024.0).reshape(32, 32))
        rearr, levels = decreasing_rearrangement(img)
        assert nfr.filter1d._BLOCK_BYTES // (8 * rearr.values.size) == 128
        traces = [iterate(rearr, FilterConfig(Kernel(profile, 25.0), scheme=scheme,
                                              stop_tolerance=1e-300, max_iterations=2))
                  for profile in (LaplaceMinusOne(), Laplace())]
        assert traces[0].iterations == 2
        assert traces[0].j_values == traces[1].j_values
        got = reconstruct(levels, traces[0].iterates[-1].values).data
        want = direct_nf(img, Kernel(Laplace(), 25.0), 2, scheme, workers=1).data
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


class TestMemoryBudget:
    """Peak memory follows the block budget, not Q x Q."""

    @pytest.mark.parametrize("scheme", ["varying", "fixed"])
    @pytest.mark.parametrize("name, h", [("gaussian", 25.0), ("power", 1000.0)])
    def test_peak_is_a_few_blocks(self, name, h, scheme, monkeypatch):
        budget, q = 1 << 16, 4096  # 2-row blocks; 8 Q^2 is 128 MiB
        monkeypatch.setattr(nfr.filter1d, "_BLOCK_BYTES", budget)
        v0 = Rearrangement(np.linspace(255.0, 0.0, q), np.ones(q))
        cfg = FilterConfig(make_kernel(name, h), scheme=scheme,
                           stop_tolerance=1e-300, max_iterations=1)
        tracemalloc.start()
        try:
            trace = iterate(v0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.iterations == 1
        assert peak <= 16 * budget <= 8 * q * q / 100


class TestPowerKernel:
    """Non-Gaussian profiles share the step path of `iterate`."""

    def test_fixed_scheme_counts_every_step(self):
        # K(v0) is formed again for each step, so Q^2 weights per step
        v0 = decreasing_rearrangement(random_quantized(11))[0]
        q = v0.values.size
        k = make_kernel("power", 200.0, 2.0)
        cfg = FilterConfig(k, scheme="fixed", stop_tolerance=1e-300, max_iterations=4)
        trace = iterate(v0, cfg)
        assert trace.iterations == 4
        assert k.evaluations == 4 * q * q
        iterates, j_values, reason = reference_iterate(v0, cfg)
        assert trace.stop_reason == reason
        for got, want in zip(trace.iterates, iterates, strict=True):
            assert np.array_equal(got.values, want.values)
        np.testing.assert_allclose(trace.j_values, j_values, rtol=1e-12)

    @pytest.mark.parametrize("scheme", ["varying", "fixed"])
    def test_pairs_computed(self, scheme, monkeypatch):
        # 5-row blocks at Q = 128, the last of 3 rows: each pass takes g of
        # the Q(Q - 1)/2 pairs i < j once, and each step the weights of its
        # blocks' columns [a, Q), whose transposes give the rows [b, Q)
        q, rows, steps = 128, 5, 3
        monkeypatch.setattr(nfr.filter1d, "_BLOCK_BYTES", rows * 8 * q)
        v0 = pass_inputs(q, "varying")[0]
        cfg = FilterConfig(make_kernel("power", 1000.0), scheme=scheme,
                           stop_tolerance=1e-300, max_iterations=steps)
        trace = iterate(v0, cfg)
        assert trace.iterations == steps
        weights = sum((min(a + rows, q) - a) * (q - a) for a in range(0, q, rows))
        assert trace.pairs_computed == (steps + 1) * q * (q - 1) // 2 + steps * weights

    @pytest.mark.parametrize("scheme", ["varying", "fixed"])
    def test_multi_block_matches_direct_nf(self, scheme):
        # the 32^2 ramp of 1024 levels at p = 3: 8 blocks of 128 rows, and
        # J from the log-radius rule
        img = Image.from_array(np.arange(1024.0).reshape(32, 32))
        rearr, levels = decreasing_rearrangement(img)
        assert nfr.filter1d._BLOCK_BYTES // (8 * rearr.values.size) == 128
        cfg = FilterConfig(make_kernel("power", 1000.0, 3.0), scheme=scheme,
                           stop_tolerance=1e-300, max_iterations=2)
        trace = iterate(rearr, cfg)
        assert trace.iterations == 2
        got = reconstruct(levels, trace.iterates[-1].values).data
        want = direct_nf(img, make_kernel("power", 1000.0, 3.0), 2, scheme, workers=1).data
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("scheme", ["varying", "fixed"])
    def test_order_break_is_reported(self, scheme):
        # the power kernel is not log-concave: on noisy squares at h = 25 the
        # first step leaves upward gaps far above the guard's roundoff snap
        v0 = decreasing_rearrangement(add_gaussian_noise(synthetic.squares(16),
                                                         NoiseSpec(10.0, 7)))[0]
        cfg = FilterConfig(make_kernel("power", 25.0), scheme=scheme)
        with pytest.raises(ValueError, match=r"Kernel\(power, h=25\.0\) breaks "
                           r"the level order.*log-concave.*--filter nf-direct"):
            iterate(v0, cfg)


class TestExpansionResidual:
    M = 512

    def grid(self):
        t = (np.arange(self.M) + 0.5) / self.M
        return np.exp(-t)

    def test_linear_profile_has_flat_model(self):
        # for v0 = 1 - t/2 the curvature term vanishes and the interior
        # border profile is flat, so the residual collapses with h; the grid
        # must resolve the bandwidth well (the mass-weighted sums converge
        # exponentially in h/dt) for the collapse to reach roundoff
        m = 1024
        t = (np.arange(m) + 0.5) / m
        v0 = 1.0 - 0.5 * t
        peaks = [float(np.max(np.abs(expansion_residual(v0, make_kernel("gaussian", h))[0])))
                 for h in (0.08, 0.04, 0.02)]
        assert peaks[2] < peaks[1] < peaks[0]
        assert peaks[2] < 1e-12

    def test_shapes(self):
        res, ktilde = expansion_residual(self.grid(), make_kernel("gaussian", 0.05))
        assert ktilde.shape == (self.M,)
        assert res.shape == (self.M - 2 * (self.M // 4),)

    def test_requires_gaussian(self):
        with pytest.raises(ValueError):
            expansion_residual(self.grid(), make_kernel("power", 0.05))

    def test_requires_decreasing(self):
        v = self.grid()[::-1].copy()
        with pytest.raises(ValueError):
            expansion_residual(v, make_kernel("gaussian", 0.05))

    def test_requires_enough_samples(self):
        t = (np.arange(128) + 0.5) / 128
        with pytest.raises(ValueError):
            expansion_residual(np.exp(-t), make_kernel("gaussian", 0.05))

    def test_requires_slope_away_from_zero(self):
        t = (np.arange(self.M) + 0.5) / self.M
        v = 1.0 - 1e-12 * t  # decreasing, but derivative ~1e-12
        with pytest.raises(ValueError):
            expansion_residual(v, make_kernel("gaussian", 0.05))
