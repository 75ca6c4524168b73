"""The filter sees only the distribution of values, whatever the grid.

The nf path depends on an image through its level multiset alone, so any
reshape (1-D, 2-D, 3-D) or pixel permutation of an image must give the same
output after the inverse map, bit for bit, with the same J trace and
iteration count.  An 8/16-bit raster, kept in its own dtype, must give the
same level structure, output and segmentation as its float64 copy.
"""

import numpy as np
import pytest

from nfr import (
    FilterConfig,
    Image,
    decreasing_rearrangement,
    direct_nf,
    iterate,
    make_kernel,
    reconstruct,
    segment_with_trace,
)


def nf(img, cfg):
    """(pixel output, J trace, iteration count) of the nf path."""
    rearr, levels = decreasing_rearrangement(img)
    trace = iterate(rearr, cfg)
    out = reconstruct(levels, trace.iterates[-1].values)
    return out.data, trace.j_values, trace.iterations


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@pytest.fixture(scope="module")
def flat(noisy_squares):
    return noisy_squares.data  # 48 x 48, Q = N


# (shape, permuted): each layout's pixel order and its inverse map
LAYOUTS = {
    "1d": ((48 * 48,), False),
    "2d": ((48, 48), False),
    "2d_other_extents": ((24, 96), False),
    "3d": ((4, 24, 24), False),
    "permuted_2d": ((48, 48), True),
    "permuted_3d": ((12, 12, 16), True),
}


def layout(flat, name):
    """(image in that layout, permutation p with image.data == flat[p])."""
    shape, permuted = LAYOUTS[name]
    p = (np.random.default_rng(5).permutation(flat.size) if permuted
         else np.arange(flat.size))
    return Image(flat[p].reshape(shape), shape), p


class TestReshapeAndPermutation:
    @pytest.mark.parametrize("scheme", ["varying", "fixed"])
    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_nf_is_bit_identical(self, flat, name, scheme):
        cfg = FilterConfig(make_kernel("gaussian", 25.0), scheme=scheme,
                           max_iterations=20)
        out, js, its = nf(Image(flat, flat.shape), cfg)
        img, p = layout(flat, name)
        got, got_js, got_its = nf(img, cfg)
        back = np.empty_like(got)
        back[p] = got
        assert np.array_equal(bits(back), bits(out))
        assert np.array_equal(bits(got_js), bits(js))
        assert got_its == its

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_direct_nf(self, flat, name):
        # a permutation moves a pixel's row within the row blocks, and a
        # row's sums depend on its values alone (einsum, not BLAS); with
        # Q = N no level sums two pixels, so every layout is bit-identical
        k = make_kernel("gaussian", 25.0)
        out = direct_nf(Image(flat, flat.shape), k, 3, workers=1).data
        img, p = layout(flat, name)
        got = direct_nf(img, k, 3, workers=1).data
        back = np.empty_like(got)
        back[p] = got
        assert np.array_equal(bits(back), bits(out))


def _full_u8():
    rng = np.random.default_rng(31)
    return rng.permutation(np.arange(40 * 32) % 256).astype(np.uint8).reshape(40, 32)


def _sparse_u8():
    rng = np.random.default_rng(32)
    return rng.choice(np.array([3, 100, 101, 250], dtype=np.uint8), (17, 23))


def _u16_three():
    a = np.zeros((6, 7), dtype=np.uint16)
    a[1, 2:5] = 7
    a[4:, :3] = 65535
    return a


RASTERS = {
    "u8_full_range": _full_u8,
    "u8_sparse": _sparse_u8,
    "u16_0_7_65535": _u16_three,
    "single_level": lambda: np.full((5, 9), 42, dtype=np.uint8),
    "one_pixel": lambda: np.array([[200]], dtype=np.uint16),
}


class TestRasterAgainstFloat:
    @pytest.mark.parametrize("case", sorted(RASTERS))
    def test_same_results(self, case):
        r = RASTERS[case]()
        raster, copy = Image.from_array(r), Image.from_array(r.astype(np.float64))
        assert raster.raster is not None and copy.raster is None
        assert raster.n == copy.n and raster.shape == copy.shape
        assert "data" not in vars(raster)  # n comes from the shape

        (r1, l1), (r2, l2) = (decreasing_rearrangement(raster),
                              decreasing_rearrangement(copy))
        for field in ("values", "masses"):
            got, want = getattr(r1, field), getattr(r2, field)
            assert got.dtype == want.dtype, field
            assert got.tobytes() == want.tobytes(), field
        got, want = (lv.level_of_code[lv.image.raster] for lv in (l1, l2))
        assert got.dtype == want.dtype == np.intp
        assert got.tobytes() == want.tobytes()
        assert l1.image.raster is raster.raster  # the PGM's own codes
        assert l1.image.shape == l2.image.shape
        assert "data" not in vars(raster)  # counted on the raster

        cfg = FilterConfig(make_kernel("gaussian", 25.0), max_iterations=30)
        for got, want in zip(nf(raster, cfg), nf(copy, cfg)):
            assert np.array_equal(bits(got), bits(want))
        s1, s2 = (segment_with_trace(img, cfg)[0] for img in (raster, copy))
        assert s1.labels.dtype == s2.labels.dtype == np.uint16
        assert np.array_equal(s1.labels, s2.labels)

        k = make_kernel("gaussian", 25.0)
        assert np.array_equal(bits(direct_nf(raster, k, 3, workers=1).data),
                              bits(direct_nf(copy, k, 3, workers=1).data))
        assert raster.data.tobytes() == copy.data.tobytes()
