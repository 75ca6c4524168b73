"""Region extraction from converged filters, plus the mask/curvature helpers."""

import numpy as np
import pytest

from conftest import FIXTURE_SIZE
from nfr import (
    FilterConfig,
    Image,
    Rearrangement,
    dice,
    inflexion_points,
    make_kernel,
    segment,
    segment_with_trace,
)
from nfr.synthetic import squares_masks


class TestSegment:
    def test_clean_squares_recovers_quadrants(self, squares_clean):
        cfg = FilterConfig(make_kernel("gaussian", 25.0))
        seg = segment(squares_clean, cfg)
        assert seg.region_count == 4
        for i, mask in enumerate(squares_masks(FIXTURE_SIZE)):
            assert dice(seg.mask(i), mask) == 1.0

    def test_noisy_squares_recovers_quadrants(self, noisy_squares):
        cfg = FilterConfig(make_kernel("gaussian", 25.0))
        seg, trace = segment_with_trace(noisy_squares, cfg)
        assert seg.region_count == 4
        assert trace.stop_reason == "tolerance"
        for i, mask in enumerate(squares_masks(FIXTURE_SIZE)):
            assert dice(seg.mask(i), mask) >= 0.95

    def test_identity_filter_keeps_levels(self, squares_clean):
        # near-zero bandwidth: one step changes nothing measurable, every
        # level survives as its own region
        cfg = FilterConfig(make_kernel("gaussian", 1e-3), max_iterations=1,
                           stop_tolerance=1e-300)
        seg = segment(squares_clean, cfg, merge_tol=0.0)
        assert seg.region_count == 4
        assert np.allclose(seg.region_values, [255.0, 170.0, 85.0, 0.0],
                           rtol=0, atol=1e-9)

    def test_region_values_strictly_descending(self, noisy_gradient):
        seg = segment(noisy_gradient, FilterConfig(make_kernel("gaussian", 25.0)))
        assert np.all(np.diff(seg.region_values) < 0)

    def test_masks_partition_image(self, noisy_texture):
        seg = segment(noisy_texture, FilterConfig(make_kernel("gaussian", 25.0)))
        cover = np.zeros(noisy_texture.shape, dtype=int)
        for i in range(seg.region_count):
            cover += seg.mask(i).astype(int)
        assert np.all(cover == 1)

    def test_mass_is_preserved(self, noisy_squares):
        seg, trace = segment_with_trace(noisy_squares,
                                        FilterConfig(make_kernel("gaussian", 25.0)))
        assert int(seg.region_masses.sum()) == noisy_squares.n
        # merging levels into regions keeps the converged weighted sum: the
        # region value is the mass-weighted mean of its levels
        final = trace.iterates[-1]
        assert float(seg.region_masses @ seg.region_values) == pytest.approx(
            float(final.masses @ final.values), rel=1e-12)

    def test_constant_image(self):
        img = Image.from_array(np.full((5, 5), 7.0))
        seg, trace = segment_with_trace(img, FilterConfig(make_kernel("gaussian", 5.0)))
        assert seg.region_count == 1
        assert seg.region_values[0] == 7.0
        assert trace.iterations == 0

    def test_coarser_bandwidth_fewer_regions(self, noisy_squares):
        counts = [segment(noisy_squares,
                          FilterConfig(make_kernel("gaussian", h))).region_count
                  for h in (25.0, 40.0, 120.0)]
        assert counts[0] >= counts[1] >= counts[2]
        assert counts[2] == 1

    def test_mask_range_check(self, squares_clean):
        seg = segment(squares_clean, FilterConfig(make_kernel("gaussian", 25.0)))
        with pytest.raises(ValueError):
            seg.mask(-1)
        with pytest.raises(ValueError):
            seg.mask(seg.region_count)

    def test_negative_merge_tol_rejected(self, squares_clean):
        with pytest.raises(ValueError):
            segment(squares_clean, FilterConfig(make_kernel("gaussian", 25.0)),
                    merge_tol=-0.1)

    def test_nan_merge_tol_rejected(self, squares_clean):
        with pytest.raises(ValueError, match="merge_tol"):
            segment(squares_clean, FilterConfig(make_kernel("gaussian", 25.0)),
                    merge_tol=float("nan"))


class TestDice:
    def test_identical(self):
        m = np.zeros((4, 4), dtype=bool)
        m[:2] = True
        assert dice(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros(10, dtype=bool)
        b = np.zeros(10, dtype=bool)
        a[:3] = True
        b[7:] = True
        assert dice(a, b) == 0.0

    def test_partial_overlap(self):
        a = np.array([True, True, False, False])
        b = np.array([True, False, False, False])
        assert dice(a, b) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_both_empty(self):
        z = np.zeros(5, dtype=bool)
        assert dice(z, z) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dice(np.zeros(3, dtype=bool), np.zeros(4, dtype=bool))


class TestInflexionPoints:
    def test_five_level_staircase(self):
        # alternating steep/shallow drops force two curvature flips, at the
        # mass boundaries after the second and third level
        v = Rearrangement([10.0, 9.0, 5.0, 4.0, 0.0], np.ones(5))
        assert inflexion_points(v) == [2.0, 3.0]

    def test_too_few_levels(self):
        assert inflexion_points(Rearrangement([3.0, 1.0], [1.0, 1.0])) == []
        assert inflexion_points(Rearrangement([3.0], [2.0])) == []

    def test_convex_profile_has_none(self):
        v = Rearrangement([27.0, 8.0, 1.0, 0.5, 0.25], np.ones(5))
        assert inflexion_points(v) == []

    def test_logistic_profile_has_one(self):
        t = np.linspace(-3.0, 3.0, 15)
        v = Rearrangement(1.0 / (1.0 + np.exp(t)), np.ones(15))
        pts = inflexion_points(v)
        assert len(pts) == 1
        assert 6.0 <= pts[0] <= 9.0
