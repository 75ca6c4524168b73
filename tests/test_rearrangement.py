"""Distribution function, rearrangement, reconstruction, histogram."""

import numpy as np
import pytest

from nfr import (
    Image,
    LevelStructure,
    Rearrangement,
    decreasing_rearrangement,
    distribution_function,
    histogram,
    reconstruct,
)
from nfr import synthetic

from conftest import random_quantized

TWO_BY_TWO = Image.from_array([[255.0, 170.0], [85.0, 0.0]])


class TestDistributionFunction:
    def test_two_by_two(self):
        assert distribution_function(TWO_BY_TWO, 100.0) == 2

    def test_at_max_is_zero(self):
        img = random_quantized(1)
        assert distribution_function(img, float(img.data.max())) == 0

    def test_below_min_is_total(self):
        img = random_quantized(2)
        assert distribution_function(img, float(img.data.min()) - 1.0) == img.n

    def test_matches_brute_force_scan(self):
        # oracle: dumb per-pixel count
        img = random_quantized(3, size=8)
        rng = np.random.Generator(np.random.PCG64(4))
        for q in rng.uniform(-10, 300, 25):
            assert distribution_function(img, q) == int(
                sum(1 for u in img.data if u > q)
            )

    def test_non_increasing_in_threshold(self):
        img = random_quantized(5, size=8)
        qs = np.sort(np.unique(img.data))
        counts = [distribution_function(img, q) for q in qs]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestDecreasingRearrangement:
    def test_constant_image(self):
        img = Image.from_array(np.full((3, 5), 7.0))
        r, levels = decreasing_rearrangement(img)
        assert r.values.tolist() == [7.0]
        assert r.masses.tolist() == [15.0]
        assert levels.masses.tolist() == [15]

    def test_two_by_two_all_distinct(self):
        r, _ = decreasing_rearrangement(TWO_BY_TWO)
        assert r.values.tolist() == [255.0, 170.0, 85.0, 0.0]
        assert r.masses.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_matches_full_descending_sort(self):
        # oracle: expand (value, mass) pairs and compare the full multiset
        img = random_quantized(6)
        r, _ = decreasing_rearrangement(img)
        expanded = np.repeat(r.values, r.masses.astype(int))
        assert np.array_equal(expanded, np.sort(img.data)[::-1])

    def test_generalized_inverse_evaluation(self):
        # u_*(s) = inf{q : m_u(q) <= s}, right-continuous step function
        img = random_quantized(7, size=8)
        r, _ = decreasing_rearrangement(img)
        rng = np.random.Generator(np.random.PCG64(8))
        for s in rng.uniform(0.0, img.n, 40):
            candidates = np.sort(np.unique(img.data))
            exact = min(q for q in candidates if distribution_function(img, q) <= s)
            assert r.evaluate(s) == exact

    def test_evaluate_right_continuity_and_ends(self):
        r, _ = decreasing_rearrangement(TWO_BY_TWO)
        assert r.evaluate(0.0) == 255.0
        assert r.evaluate(1.0) == 170.0  # jump value from the right
        assert r.evaluate(0.999999) == 255.0
        assert r.evaluate(4.0) == 0.0
        with pytest.raises(ValueError):
            r.evaluate(4.5)

    def test_pixel_level_roundtrip(self):
        img = random_quantized(9)
        _, levels = decreasing_rearrangement(img)
        assert np.array_equal(levels.values[levels.pixel_level], img.data)


def unique_reference(x):
    """Level structure of x from np.unique: the sorting path, spelled out."""
    vals, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return vals[::-1], counts[::-1], (vals.size - 1) - inverse.ravel()


def _sixteen_bit_sparse():
    a = np.zeros((4, 4))
    a[0, :2] = 65535.0
    a[2, 1:] = 7.0
    return a


PARITY_CASES = {
    "u8": lambda: random_quantized(21, size=32, levels=256, scale=1.0).to_array(),
    "u16_sparse": _sixteen_bit_sparse,
    "negative": lambda: np.random.Generator(np.random.PCG64(22)).integers(
        -300, 301, (24, 24)).astype(np.float64),
    "single_level": lambda: np.full((3, 5), 42.0),
    "wider_than_bound": lambda: np.array([[0.0, 1e12], [1e12, 0.0]]),
    "extreme_range": lambda: np.array([[-1e308, 1e308, 0.0]]),
    "non_integral": lambda: random_quantized(23, levels=64, scale=1.0).to_array() + 0.5,
    "signed_zero": lambda: np.array([[-0.0, 0.0, 3.0], [0.0, -0.0, -2.0]]),
}


class TestLevelParity:
    """decreasing_rearrangement against a sort-based reference."""

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_matches_unique(self, case):
        img = Image.from_array(PARITY_CASES[case]())
        r, levels = decreasing_rearrangement(img)
        got = (levels.values, levels.masses, levels.pixel_level)
        expected = unique_reference(img.data)
        for g, ref in zip(got, expected):
            assert np.array_equal(g, ref)
            assert g.dtype == ref.dtype
        assert np.array_equal(r.values, levels.values)
        assert np.array_equal(r.masses, levels.masses.astype(np.float64))
        if case == "signed_zero":
            # -0.0 == 0.0 above; the zero level itself is +0.0
            assert not np.any(np.signbit(levels.values[levels.values == 0.0]))
        else:
            assert np.array_equal(np.signbit(levels.values),
                                  np.signbit(expected[0]))

    def test_integral_image_is_not_sorted(self, monkeypatch):
        calls = []
        unique = np.unique

        def counting(*args, **kwargs):
            calls.append(np.size(args[0]))
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting)
        decreasing_rearrangement(random_quantized(24, size=64, levels=256, scale=1.0))
        assert calls == []
        decreasing_rearrangement(Image.from_array(
            np.arange(64 * 64).reshape(64, 64) * 0.25 + 0.1))
        assert calls == [64 * 64]


class TestReconstruct:
    def test_identity_values(self):
        img = random_quantized(10)
        _, levels = decreasing_rearrangement(img)
        out = reconstruct(levels, levels.values)
        assert np.array_equal(out.data, img.data)
        assert out.shape == img.shape

    def test_constant_values(self):
        _, levels = decreasing_rearrangement(TWO_BY_TWO)
        out = reconstruct(levels, [3.0, 3.0, 3.0, 3.0])
        assert np.array_equal(out.data, np.full(4, 3.0))

    def test_merging_values_coarsens_partition(self):
        # mask-union oracle on the squares quadrants
        img = synthetic.squares(8)
        _, levels = decreasing_rearrangement(img)
        out = reconstruct(levels, [200.0, 200.0, 50.0, 50.0])
        arr = out.to_array()
        top = synthetic.squares_masks(8)
        assert np.array_equal(arr == 200.0, top[0] | top[1])
        assert np.array_equal(arr == 50.0, top[2] | top[3])

    def test_length_mismatch_rejected(self):
        _, levels = decreasing_rearrangement(TWO_BY_TWO)
        with pytest.raises(ValueError):
            reconstruct(levels, [1.0, 2.0])

    def test_idempotence_of_rearrangement(self):
        img = random_quantized(11)
        r, levels = decreasing_rearrangement(img)
        r2, _ = decreasing_rearrangement(reconstruct(levels, levels.values))
        assert np.array_equal(r2.values, r.values)
        assert np.array_equal(r2.masses, r.masses)


class TestHistogram:
    def test_constant(self):
        img = Image.from_array(np.full((4, 4), 9.0))
        assert histogram(img) == [(9.0, 16)]

    def test_squares_four_equal_bins(self):
        img = synthetic.squares(16)
        assert histogram(img) == [(0.0, 64), (85.0, 64), (170.0, 64), (255.0, 64)]

    def test_matches_per_value_counts(self):
        img = random_quantized(12, size=8)
        for v, m in histogram(img):
            assert m == int(np.count_nonzero(img.data == v))

    def test_total_mass(self):
        img = random_quantized(13)
        assert sum(m for _, m in histogram(img)) == img.n

    @pytest.mark.parametrize("case", ["u8", "non_integral", "wider_than_bound"])
    def test_types_and_order(self, case):
        img = Image.from_array(PARITY_CASES[case]())
        vals, counts = np.unique(img.data, return_counts=True)
        hist = histogram(img)
        assert hist == list(zip(vals.tolist(), counts.tolist()))
        assert all(type(v) is float and type(m) is int for v, m in hist)


class TestEquiMeasurability:
    @pytest.mark.parametrize("func", [lambda x: x, np.square,
                                      lambda x: np.exp(x / 300.0)])
    def test_pointwise_sums_agree(self, func):
        img = random_quantized(14)
        r, _ = decreasing_rearrangement(img)
        pixel_sum = float(np.sum(func(img.data)))
        level_sum = float(np.sum(r.masses * func(r.values)))
        assert level_sum == pytest.approx(pixel_sum, rel=1e-12)

    def test_lp_norms_agree(self, canonical_images):
        for img in canonical_images.values():
            r, _ = decreasing_rearrangement(img)
            assert float(np.sum(r.masses * np.abs(r.values))) == pytest.approx(
                float(np.sum(np.abs(img.data))), rel=1e-12)
            assert float(np.sqrt(np.sum(r.masses * r.values ** 2))) == pytest.approx(
                float(np.sqrt(np.sum(img.data ** 2))), rel=1e-12)
            assert float(np.max(np.abs(r.values))) == float(np.max(np.abs(img.data)))


class TestValidation:
    def test_shape_size_mismatch(self):
        with pytest.raises(ValueError):
            Image(np.zeros(5), (2, 3))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Image.from_array([[1.0, np.nan]])

    def test_rearrangement_must_be_non_increasing(self):
        with pytest.raises(ValueError):
            Rearrangement(np.array([1.0, 2.0]), np.array([1.0, 1.0]))

    def test_positive_masses(self):
        for bad in (0.0, np.nan):
            with pytest.raises(ValueError, match="masses must be positive"):
                Rearrangement(np.array([2.0, 1.0]), np.array([1.0, bad]))

    @pytest.mark.parametrize("values, message", [
        ([], "non-empty 1-D"),
        ([1.0, np.inf], "finite"),
    ], ids=["empty", "inf"])
    def test_rearrangement_values(self, values, message):
        values = np.array(values)
        with pytest.raises(ValueError, match=message):
            Rearrangement(values, np.ones(values.size))

    @pytest.mark.parametrize("shape", [(2, 0), (3, -1), ()])
    def test_image_extents_positive(self, shape):
        with pytest.raises(ValueError, match="positive extents"):
            Image(np.zeros(0), shape)

    @pytest.mark.parametrize("field, value, message", [
        ("values", [], "non-empty 1-D"),
        ("values", [1.0, 2.0], "strictly descending"),
        ("masses", [1, 0], "positive integer mass"),
        ("pixel_level", [0, 1], "does not match shape"),
        ("masses", [1, 1], "sum to the pixel count"),
        ("pixel_level", [0, 2, 1], "out-of-range"),
    ], ids=["empty", "ascending", "zero-mass", "size", "mass-sum", "index"])
    def test_level_structure(self, field, value, message):
        good = dict(values=[2.0, 1.0], masses=[1, 2], pixel_level=[0, 1, 1],
                    shape=(3,))
        LevelStructure(**good)
        with pytest.raises(ValueError, match=message):
            LevelStructure(**{**good, field: value})


class TestSyntheticSizes:
    @pytest.mark.parametrize("make, size", [
        (synthetic.squares, 0), (synthetic.squares, 7), (synthetic.squares_masks, 5),
        (synthetic.gradient, 1), (synthetic.texture, 1),
    ], ids=["squares-0", "squares-odd", "masks-odd", "gradient-1", "texture-1"])
    def test_rejects_bad_size(self, make, size):
        with pytest.raises(ValueError, match="size must be"):
            make(size)
