"""Kernel profiles, scaling, primitive, decay condition."""

import math
import tracemalloc

import numpy as np
import pytest

from nfr import (
    Kernel,
    PowerDecayProfile,
    check_decay_condition,
    eval_scaled,
    g_primitive,
    make_kernel,
)
from nfr.kernels import _BLOCK, _PANEL, _TAIL, _log_panel_primitive


class IncreasingProfile:
    """K(s) = s^2 + 1: grows away from the origin; must fail the decay check."""

    def __call__(self, s):
        s = np.asarray(s, dtype=np.float64)
        return s * s + 1.0

    def derivative(self, s):
        return 2.0 * np.asarray(s, dtype=np.float64)


def per_element_rule(profile, h, s):
    """The log-radius rule with a fresh quadrature per element: the reference.

    Each positive s gets the fewest uniform panels of width <= _PANEL on its
    own [min(ln R, 0) - _TAIL, ln R], 16 Gauss-Legendre nodes each; elements
    are grouped by panel count and the nodes taken in chunks.
    """
    chunk_nodes = 1 << 19
    x, w = np.polynomial.legendre.leggauss(16)
    flat = s.ravel()
    out = np.zeros_like(flat)
    for b in range(0, flat.size, _BLOCK):
        pos = b + np.flatnonzero(flat[b:b + _BLOCK] > 0.0)
        upper = 0.5 * np.log(flat[pos]) - np.log(h)
        lower = np.minimum(upper, 0.0) - _TAIL
        width = upper - lower
        panels = np.ceil(width / _PANEL).astype(np.intp)
        for n in np.unique(panels):
            sel = np.flatnonzero(panels == n)
            # n uniform panels on [0, 1]: node positions and weights
            t = ((np.arange(n)[:, None] + 0.5 * (x + 1.0)) / n).ravel()
            tw = np.tile(w, n) / (2 * n)
            step = max(1, chunk_nodes // t.size)
            for i in range(0, sel.size, step):
                j = sel[i:i + step]
                r = np.exp(lower[j, None] + width[j, None] * t)
                f = profile(r) * (r * r)
                f *= tw
                out[pos[j]] = (2.0 * h * h) * width[j] * f.sum(axis=1)
    return out.reshape(s.shape)


class CountingProfile(PowerDecayProfile):
    """A power profile that counts the quadrature nodes it is called on."""

    def __init__(self, p):
        super().__init__(p)
        self.nodes = 0

    def __call__(self, s):
        self.nodes += np.size(s)
        return super().__call__(s)


class TestEvalScaled:
    def test_gaussian_at_zero(self):
        assert eval_scaled(make_kernel("gaussian", 10.0), 0.0) == 1.0

    def test_gaussian_at_h(self):
        got = eval_scaled(make_kernel("gaussian", 10.0), 10.0)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_power_decay_half(self):
        got = eval_scaled(make_kernel("power", 5.0), 5.0)
        assert got == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("name", ["gaussian", "power"])
    def test_symmetry(self, name):
        k = make_kernel(name, 3.0)
        xi = np.linspace(-20, 20, 41)
        assert np.array_equal(eval_scaled(k, xi), eval_scaled(k, -xi))

    @pytest.mark.parametrize("name", ["gaussian", "power"])
    def test_monotone_decay(self, name):
        k = make_kernel(name, 2.5)
        xi = np.linspace(0.0, 30.0, 100)
        vals = eval_scaled(k, xi)
        assert np.all(np.diff(vals) <= 0)
        assert np.all(vals >= 0)

    @pytest.mark.parametrize("name", ["gaussian", "power"])
    def test_scale_consistency(self, name):
        h = 7.0
        kh = make_kernel(name, h)
        k1 = make_kernel(name, 1.0)
        xi = np.linspace(-15, 15, 31)
        assert np.allclose(eval_scaled(kh, xi), eval_scaled(k1, xi / h),
                           rtol=0, atol=0)

    def test_evaluation_counter(self):
        k = make_kernel("gaussian", 1.0)
        eval_scaled(k, np.zeros((6, 7)))
        eval_scaled(k, 1.0)
        assert k.evaluations == 43
        k.reset_evaluations()
        assert k.evaluations == 0


class TestGPrimitive:
    def test_zero_everywhere(self):
        for name in ("gaussian", "power"):
            assert g_primitive(make_kernel(name, 4.0), 0.0) == 0.0

    def test_gaussian_closed_form(self):
        got = g_primitive(make_kernel("gaussian", 1.0), 1.0)
        assert got == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)

    def test_gaussian_scaled_closed_form(self):
        h, s = 3.0, 5.0
        got = g_primitive(make_kernel("gaussian", h), s)
        assert got == pytest.approx(h * h * (1 - math.exp(-s / (h * h))), rel=1e-14)

    def test_power_matches_midpoint_brute_force(self):
        # oracle: midpoint rule at 1e6 points, including exponents without a
        # closed form; a loop rather than parametrize keeps the test id
        s = 1.0
        n = 1_000_000
        t = (np.arange(n) + 0.5) * (s / n)
        for p in (1.5, 2.0, 3.0):
            k = make_kernel("power", 1.0, p=p)
            brute = float(np.sum(1.0 / (1.0 + t ** (p / 2))) * (s / n))  # K(sqrt(t))
            assert g_primitive(k, s) == pytest.approx(brute, abs=1e-8), p

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", [0.05, 1.0, 25.0])
    @pytest.mark.parametrize("p, exact", [(2.0, np.log1p), (4.0, np.arctan)])
    def test_power_matches_closed_forms(self, p, exact, h):
        # the log-panel rule against g(s) = h^2 log1p(s/h^2) at p = 2 and
        # h^2 arctan(s/h^2) at p = 4 (g_primitive returns those directly)
        u = np.geomspace(1e-12, 1e7, 200)
        got = _log_panel_primitive(PowerDecayProfile(p), h, u * h * h)
        want = h * h * exact(u)
        assert np.max(np.abs(got - want) / want) <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_rule_on_16bit_range(self):
        # the rule over the squared range of a 16-bit image at p = 4, h = 2:
        # non-decreasing, bounded by s * K(0), and on h^2 arctan(s/h^2)
        h = 2.0
        s = np.linspace(0.0, 65535.0 ** 2, 60)
        g = _log_panel_primitive(PowerDecayProfile(4.0), h, s)
        assert g[0] == 0.0
        assert np.all(np.diff(g) >= 0)
        assert np.all(g <= s)
        np.testing.assert_allclose(g[1:], h * h * np.arctan(s[1:] / (h * h)),
                                   rtol=1e-12, atol=0)

    def test_negative_argument_rejected(self):
        for s in (-0.5, np.array([1.0, np.nan])):
            with pytest.raises(ValueError, match="nonnegative"):
                g_primitive(make_kernel("gaussian", 1.0), s)

    @pytest.mark.parametrize("name, p, s_max", [
        pytest.param("gaussian", 2.0, 40.0, id="gaussian"),
        pytest.param("power", 2.0, 40.0, id="power"),
        # a 16-bit range: g must stay positive at large s
        pytest.param("power", 4.0, 65535.0 ** 2, id="power-p4-16bit"),
    ])
    def test_non_decreasing_and_bounded(self, name, p, s_max):
        k = make_kernel(name, 2.0, p=p)
        s = np.linspace(0.0, s_max, 60)
        g = g_primitive(k, s)
        assert np.all(np.diff(g) >= 0)
        assert np.all(g <= s * 1.0 + 1e-12)  # integrand bounded by K(0) = 1

    def test_array_input(self):
        k = make_kernel("gaussian", 2.0)
        s = np.array([[0.0, 1.0], [4.0, 9.0]])
        out = g_primitive(k, s)
        assert out.shape == s.shape
        assert out[0, 0] == 0.0


class TestPanelTable:
    """The one-table rule against the per-element rule it replaced."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [1.5, 3.0, 6.0, 10.0, 20.0])
    def test_matches_per_element_rule(self, p):
        u = np.concatenate(([0.0], np.geomspace(1e-14, 1e10, 3000)))
        for h in (0.05, 1.0, 25.0, 1000.0):
            s = u * h * h
            want = per_element_rule(PowerDecayProfile(p), h, s)
            got = _log_panel_primitive(PowerDecayProfile(p), h, s)
            assert got[0] == 0.0
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=f"h={h}")

    @pytest.mark.parametrize("s", [0.0, 1e-14, 3.0, 1e10])
    def test_zero_dimensional_input(self, s):
        profile = PowerDecayProfile(3.0)
        got = _log_panel_primitive(profile, 2.0, np.array(s))
        assert got.shape == ()
        want = per_element_rule(profile, 2.0, np.array([s]))[0]
        assert float(got) == pytest.approx(want, rel=1e-12, abs=0)

    def test_equal_arguments_equal_values(self):
        # on a ramp s depends on |i - j| only, so g is symmetric and constant
        # along each diagonal, across the two element blocks as well
        x = np.arange(300.0)
        s = np.square(np.subtract.outer(x, x))
        g = _log_panel_primitive(PowerDecayProfile(3.0), 7.0, s)
        assert np.array_equal(g, g.T)
        for d in range(1, x.size):
            assert np.all(np.diag(g, d) == g[0, d])

    def test_infinite_argument(self):
        # an overflowing squared difference: the integral diverges for p <= 2,
        # and the rule's K(inf) * inf is NaN
        for p in (1.5, 3.0):
            with pytest.raises(ValueError, match="needs finite arguments"):
                _log_panel_primitive(PowerDecayProfile(p), 2.0,
                                     np.array([0.0, 4.0, np.inf]))
        with pytest.raises(ValueError, match="needs finite arguments"):
            g_primitive(make_kernel("power", 2.0, 3.0), np.inf)

    def test_other_calls_agree_to_the_ulp(self):
        # the partial panel of an s starts at the same multiple of _PANEL in
        # every call; only the table's rounding may differ
        profile = PowerDecayProfile(3.0)
        s = np.geomspace(1e-6, 1e8, 5000)
        alone = _log_panel_primitive(profile, 2.0, s)
        for smaller in (1e-30, 1e-12):
            g = _log_panel_primitive(profile, 2.0, np.append(s, smaller))
            np.testing.assert_array_max_ulp(g[:-1], alone, maxulp=1)

    def test_peak_memory(self):
        s = np.geomspace(1e-10, 1e10, 1 << 20)
        tracemalloc.start()
        try:
            _log_panel_primitive(PowerDecayProfile(3.0), 25.0, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_node_budget(self):
        # the i < j pairs of a 512-level ramp: 16 nodes per positive element
        # plus 16 per table panel; a quadrature per element needs >= 80 panels
        x = np.arange(512.0)
        s = np.square(np.subtract.outer(x, x)[np.triu_indices(x.size, 1)])
        h = 1000.0
        profile = CountingProfile(3.0)
        _log_panel_primitive(profile, h, s)
        y = 0.5 * np.log(s) - np.log(h)
        lo = min(y.min(), 0.0) - _TAIL
        panels = math.ceil((y.max() - lo) / _PANEL) + 1  # one for rounding
        assert profile.nodes <= 16 * (s.size + panels)


class TestDecayCondition:
    def test_gaussian_passes(self):
        assert check_decay_condition(make_kernel("gaussian", 17.0)) is True

    def test_gaussian_passes_any_scale(self):
        for h in (0.05, 1.0, 250.0):
            assert check_decay_condition(make_kernel("gaussian", h), samples=20_000)

    def test_power_decay_fails(self):
        # log-concavity breaks for |s| > sqrt(p-1), well inside [-4h, 4h]
        assert check_decay_condition(make_kernel("power", 17.0)) is False

    def test_increasing_profile_fails(self):
        k = Kernel(IncreasingProfile(), 2.0)
        assert check_decay_condition(k, samples=10_000) is False

    def test_equal_offsets_contribute_zero(self):
        # the (xi1 - xi2) factor kills the expression identically
        k = make_kernel("gaussian", 5.0)
        xi, xi1 = 1.3, -2.0

        def kv(x):
            return k.profile(x / k.h)

        def kd(x):
            return k.profile.derivative(x / k.h) / k.h

        r1 = (xi1 - xi1) * (kd(xi - xi1) * kv(xi - xi1)
                            - kd(xi - xi1) * kv(xi - xi1))
        assert r1 == 0.0

    def test_deterministic_under_seed(self):
        k = make_kernel("power", 3.0)
        a = check_decay_condition(k, samples=5_000, seed=11)
        b = check_decay_condition(k, samples=5_000, seed=11)
        assert a == b

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            check_decay_condition(make_kernel("gaussian", 1.0), samples=0)

    def test_does_not_touch_counter(self):
        k = make_kernel("gaussian", 2.0)
        check_decay_condition(k, samples=1_000)
        assert k.evaluations == 0


class TestConstruction:
    def test_bad_scale(self):
        for h in (0.0, float("nan")):
            with pytest.raises(ValueError, match="scale h must be positive"):
                make_kernel("gaussian", h)
        # g and J scale with h^2, which must neither overflow nor underflow
        for h in (math.inf, 1e200, 1e-200):
            with pytest.raises(ValueError, match="positive finite square"):
                make_kernel("gaussian", h)

    def test_bad_power_exponent(self):
        for p in (1.0, float("nan")):
            with pytest.raises(ValueError, match="exponent must satisfy p > 1"):
                PowerDecayProfile(p)
        with pytest.raises(ValueError, match="exponent must be finite"):
            PowerDecayProfile(math.inf)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_kernel("triangle", 1.0)

    @pytest.mark.parametrize("k0", [0.0, -1.0, float("nan")])
    def test_profile_not_positive_at_zero(self, k0):
        def profile(s):
            return np.full(np.shape(s), k0)

        with pytest.raises(ValueError, match="positive at 0"):
            Kernel(profile, 1.0)
