"""Distribution function, rearrangement, reconstruction, histogram."""

import tracemalloc

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
        assert pixel_level(levels).tolist() == [0] * 15

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
        r, levels = decreasing_rearrangement(img)
        assert np.array_equal(r.values[pixel_level(levels)], img.data)


def pixel_level(levels):
    """The level index of every pixel, composed from the image's codes."""
    return levels.level_of_code[levels.image.raster]


def unique_reference(x):
    """Levels of x from np.unique: the sorting path, spelled out."""
    vals, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return vals[::-1], counts[::-1].astype(np.float64), (vals.size - 1) - inverse.ravel()


def assert_same_levels(img):
    """The levels of `img` have the bytes and dtypes of those of its float64
    copy, the level index of every pixel included; returns the rearrangement."""
    got, got_levels = decreasing_rearrangement(img)
    ref, ref_levels = decreasing_rearrangement(Image(img.data, img.shape))
    for field, g, r in (("values", got.values, ref.values),
                        ("masses", got.masses, ref.masses),
                        ("pixel_level", pixel_level(got_levels), pixel_level(ref_levels))):
        assert g.dtype == r.dtype and g.tobytes() == r.tobytes(), field
    assert pixel_level(got_levels).dtype == np.intp
    return got


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
    "range_65535": lambda: np.array([[-1000.0, 64535.0], [7.0, -1000.0]]),
    "range_65536": lambda: np.array([[-1000.0, 64536.0], [7.0, -1000.0]]),
}


class TestLevelParity:
    """decreasing_rearrangement against a sort-based reference."""

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_matches_unique(self, case):
        img = Image.from_array(PARITY_CASES[case]())
        r, levels = decreasing_rearrangement(img)
        got = (r.values, r.masses, pixel_level(levels))
        expected = unique_reference(img.data)
        for g, ref in zip(got, expected):
            assert np.array_equal(g, ref)
            assert g.dtype == ref.dtype
        if case == "signed_zero":
            # -0.0 == 0.0 above; the zero level itself is +0.0
            assert not np.any(np.signbit(r.values[r.values == 0.0]))
        else:
            assert np.array_equal(np.signbit(r.values),
                                  np.signbit(expected[0]))

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_float_data_is_the_merged_sort(self, case):
        # the sort's table through the general merge gives the same bytes
        img = Image.from_array(PARITY_CASES[case]())
        table, codes = np.unique(img.data, return_inverse=True)
        r, got = decreasing_rearrangement(img)
        r_ref, ref = decreasing_rearrangement(Image(codes, img.shape, table))
        for a, b in ((got.level_of_code, ref.level_of_code),
                     (got.image.raster, ref.image.raster), (got.image.table, ref.image.table),
                     (r.values, r_ref.values), (r.masses, r_ref.masses)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_unique_sorts_a_table_or_the_data_never_a_raster(self, monkeypatch):
        calls = []
        unique = np.unique

        def counting(*args, **kwargs):
            calls.append(np.size(args[0]))
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting)
        # PGM rasters: counted, then one np.unique over the 2^8 or 2^16
        # entries of the identity table, never over the N pixels
        decreasing_rearrangement(Image.from_array(
            random_quantized(24, size=64, levels=256, scale=1.0).to_array().astype(np.uint8)))
        decreasing_rearrangement(Image.from_array(_sixteen_bit_sparse().astype(np.uint16)))
        assert calls == [1 << 8, 1 << 16]
        calls.clear()
        # codes with a value table: one np.unique over its Q entries
        codes = np.random.Generator(np.random.PCG64(26)).integers(0, 3, (64, 64))
        decreasing_rearrangement(Image(codes.astype(np.uint16), (64, 64), [3.25, -0.5, 0.1]))
        assert calls == [3]
        # float data, integral or not: sorted and counted, all N values at
        # once; the sort's distinct values are the table, with no merge
        img = random_quantized(24, size=64, levels=256, scale=1.0)
        calls.clear()
        decreasing_rearrangement(img)
        decreasing_rearrangement(Image.from_array(
            np.arange(64 * 64).reshape(64, 64) * 0.25 + 0.1))
        assert calls == [64 * 64, 64 * 64]
        # a reconstructed image, new values with ties and both zeros: its
        # codes are counted, one np.unique over its table of new values
        r, levels = decreasing_rearrangement(random_quantized(27, size=64, levels=6, scale=1.0))
        calls.clear()
        v = [2.5, 0.0, 2.5, -0.0, -1.0, 0.0]
        assert r.values.size == len(v)
        assert_same_levels(reconstruct(levels, v))
        # then the float64 copy: sorted, and its 3 distinct values the table
        assert calls == [levels.image.table.size, 64 * 64]

    def test_peak_memory_is_the_counts(self):
        # a 2048^2 uint8 raster: the bins and tables of its 2^8 codes, no
        # N-sized array (an intp level index would take 32 MiB)
        raster = np.random.default_rng(28).integers(0, 256, (2048, 2048), dtype=np.uint8)
        img = Image.from_array(raster)
        tracemalloc.start()
        try:
            r, levels = decreasing_rearrangement(img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, peak
        assert levels.image is img and r.masses.sum() == raster.size


class TestValueTable:
    """8/16-bit codes that stand for the entries of a float64 table."""

    def test_codes_stand_for_table_entries(self):
        table = [-1.5, 0.25, 7.0, 9.5]  # 9.5 is never used
        img = Image(np.array([[2, 0], [1, 2]], dtype=np.uint8), (2, 2), table)
        assert img.data.tolist() == [7.0, -1.5, 0.25, 7.0]
        assert img.to_array().tolist() == [[7.0, -1.5], [0.25, 7.0]]
        r, levels = decreasing_rearrangement(img)
        assert r.values.tolist() == [7.0, 0.25, -1.5]
        assert r.masses.tolist() == [2.0, 1.0, 1.0]
        assert pixel_level(levels).tolist() == [0, 2, 1, 0]
        assert levels.level_of_code.tolist() == [2, 1, 0, 0]  # 9.5: absent, level 0

    def test_negative_zero_level_is_positive(self):
        img = Image(np.array([0, 1, 0], dtype=np.uint16), (3,), [-0.0, 2.0])
        assert np.signbit(img.data).tolist() == [True, False, True]
        r, _ = decreasing_rearrangement(img)
        assert r.values.tolist() == [2.0, 0.0]
        assert not np.signbit(r.values[1])

    @pytest.mark.parametrize("table", [[1.0, 1.0], [-0.0, 0.0],
                                       [0.0, 2.5, -0.0, 2.5, -1.0, 0.0, 7.0]],
                             ids=["tie", "signed-zeros", "unsorted"])
    def test_equal_entries_are_one_level(self, table):
        # entries need not be sorted or distinct; each keeps its bits in data
        codes = np.arange(len(table), dtype=np.uint8).repeat(3)[::-1].copy()
        img = Image(codes, codes.shape, table)
        assert img.data.view(np.int64).tolist() == np.array(table)[codes].view(np.int64).tolist()
        r = assert_same_levels(img)
        assert r.values.tolist() == sorted(set(table), reverse=True)
        assert r.masses.tolist() == [3 * table.count(v) for v in r.values.tolist()]
        # -0.0 and 0.0 are one level, +0.0
        assert not np.any(np.signbit(r.values[r.values == 0.0]))

    @pytest.mark.parametrize("codes, table, message", [
        (np.array([0, 1], dtype=np.uint8), [1.0, np.inf], "intensities must be finite"),
        (np.array([0, 1], dtype=np.uint8), [[1.0, 2.0]], "must be 1-D"),
        (np.array([0, 2], dtype=np.uint16), [1.0, 2.0], "codes reach 2"),
        (np.array([0.0, 1.0]), [1.0, 2.0], "integer codes"),
        (np.array([0, -1]), [1.0, 2.0], "codes reach -1"),
    ], ids=["inf", "2-d", "short", "float-codes", "negative"])
    def test_rejects_bad_tables(self, codes, table, message):
        with pytest.raises(ValueError, match=message):
            Image(codes, codes.shape, table)


class TestReconstruct:
    def test_coded_output(self):
        # the image's codes, a table of each code's new value: no N-sized gather
        r, levels = decreasing_rearrangement(random_quantized(12))
        v = np.random.default_rng(12).standard_normal(r.values.size)
        out = reconstruct(levels, v)
        assert out.raster is levels.image.raster
        assert np.array_equal(out.table, v[levels.level_of_code])
        assert out.data.view(np.int64).tolist() == v[pixel_level(levels)].view(np.int64).tolist()

    @pytest.mark.parametrize("case", ["pgm", "csv", "float"])
    def test_keeps_the_input_codes(self, case):
        # a PGM raster's or a coded CSV's own codes; float data: the sort's
        a = random_quantized(13, size=32, levels=40, scale=1.0).to_array()
        if case == "pgm":
            img = Image.from_array(a.astype(np.uint8))
        elif case == "csv":
            table, codes = np.unique(a, return_inverse=True)  # a descending table
            img = Image((table.size - 1 - codes).astype(np.uint16), a.shape, table[::-1])
        else:
            img = Image.from_array(a)
        r, levels = decreasing_rearrangement(img)
        v = np.linspace(1.0, -1.0, r.values.size)
        out = reconstruct(levels, v)
        if case == "float":
            assert img.raster is None and out.raster.dtype == np.intp
            assert np.array_equal(out.raster, np.unique(a, return_inverse=True)[1].ravel())
        else:
            assert out.raster is img.raster
        assert np.array_equal(out.data, v[pixel_level(levels)])

    def test_identity_values(self):
        img = random_quantized(10)
        r, levels = decreasing_rearrangement(img)
        out = reconstruct(levels, r.values)
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

    @pytest.mark.parametrize("count", [2, 6], ids=["too-few", "too-many"])
    def test_length_mismatch_rejected(self, count):
        _, levels = decreasing_rearrangement(TWO_BY_TWO)  # 4 levels
        with pytest.raises(ValueError, match=f"expected 4 level values, got {count}"):
            reconstruct(levels, np.ones(count))

    def test_idempotence_of_rearrangement(self):
        img = random_quantized(11)
        r, levels = decreasing_rearrangement(img)
        r2, _ = decreasing_rearrangement(reconstruct(levels, r.values))
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
        ("level_of_code", [0, 1], "one level per table entry"),
        ("level_of_code", [0, -1, 1], "negative levels"),
        ("image", Image(np.array([3.0, 1.0, 1.0]), (3,)), "coded image"),
    ], ids=["size", "index", "uncoded"])
    def test_level_structure(self, field, value, message):
        image = Image(np.array([0, 1, 1]), (3,), [3.0, 1.0, 7.0])  # 7.0 is absent
        good = dict(level_of_code=[0, 1, 0], image=image)
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
