"""Kernel profiles, scaling, primitive, decay condition."""

import math

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
from nfr.kernels import _log_panel_primitive


class IncreasingProfile:
    """K(s) = s^2 + 1: grows away from the origin; must fail the decay check."""

    def __call__(self, s):
        s = np.asarray(s, dtype=np.float64)
        return s * s + 1.0

    def derivative(self, s):
        return 2.0 * np.asarray(s, dtype=np.float64)


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
        with pytest.raises(ValueError):
            g_primitive(make_kernel("gaussian", 1.0), -0.5)

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
        with pytest.raises(ValueError):
            make_kernel("gaussian", 0.0)

    def test_bad_power_exponent(self):
        with pytest.raises(ValueError):
            PowerDecayProfile(1.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_kernel("triangle", 1.0)
