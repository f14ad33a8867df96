"""Tests for the dense vision-frontend algorithms: FAST, ORB, LK, stereo."""

import numpy as np
import pytest

from repro.frontend.fast import FastDetector, Keypoint, keypoints_to_array
from repro.frontend.filtering import (
    bilinear_sample,
    gaussian_blur,
    gaussian_kernel_1d,
    sobel_gradients,
)
from repro.frontend.optical_flow import LucasKanadeTracker
from repro.frontend.orb import (
    OrbDescriptor,
    descriptor_from_seed,
    hamming_distance,
    hamming_distance_matrix,
)
from repro.frontend.stereo import StereoMatcher


def checkerboard(width=96, height=72, square=6, low=40.0, high=210.0, spacing=16, seed=0):
    """A synthetic image of scattered bright squares with strong FAST corners.

    Isolated squares produce L-corners that pass the FAST segment test
    (checkerboard X-corners famously do not), while still giving the stereo
    and optical-flow tests plenty of texture to work with.
    """
    rng = np.random.default_rng(seed)
    image = np.full((height, width), low)
    for y in range(6, height - square - 6, spacing):
        for x in range(6, width - square - 6, spacing):
            jx, jy = rng.integers(0, 4, size=2)
            image[y + jy : y + jy + square, x + jx : x + jx + square] = high
    return image


class TestFiltering:
    def test_gaussian_kernel_normalized(self):
        kernel = gaussian_kernel_1d(1.5)
        assert np.isclose(kernel.sum(), 1.0)
        assert kernel[len(kernel) // 2] == kernel.max()

    def test_gaussian_kernel_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_kernel_1d(0.0)

    def test_blur_preserves_constant_image(self):
        image = np.full((20, 30), 87.0)
        assert np.allclose(gaussian_blur(image, 1.0), image)

    def test_blur_reduces_variance(self):
        rng = np.random.default_rng(0)
        image = rng.uniform(0, 255, size=(40, 40))
        assert gaussian_blur(image, 2.0).std() < image.std()

    def test_sobel_on_ramp(self):
        image = np.tile(np.arange(32, dtype=float), (16, 1))
        gx, gy = sobel_gradients(image)
        assert np.allclose(gx[4:-4, 4:-4], 1.0, atol=1e-6)
        assert np.allclose(gy[4:-4, 4:-4], 0.0, atol=1e-6)

    def test_bilinear_sample_exact_on_grid(self):
        image = np.arange(12, dtype=float).reshape(3, 4)
        assert bilinear_sample(image, np.array([2.0]), np.array([1.0]))[0] == image[1, 2]

    def test_bilinear_sample_interpolates(self):
        image = np.array([[0.0, 10.0], [0.0, 10.0]])
        value = bilinear_sample(image, np.array([0.5]), np.array([0.0]))[0]
        assert np.isclose(value, 5.0)


class TestFast:
    def test_detects_checkerboard_corners(self):
        detector = FastDetector(threshold=20.0, max_features=200)
        keypoints = detector.detect(checkerboard())
        assert len(keypoints) > 10

    def test_no_corners_on_flat_image(self):
        detector = FastDetector(threshold=10.0)
        assert detector.detect(np.full((48, 64), 100.0)) == []

    def test_max_features_respected(self):
        detector = FastDetector(threshold=10.0, max_features=5)
        keypoints = detector.detect(checkerboard())
        assert len(keypoints) <= 5

    def test_keypoints_inside_border(self):
        detector = FastDetector(threshold=15.0, border=4)
        image = checkerboard()
        for kp in detector.detect(image):
            assert 4 <= kp.x < image.shape[1] - 4
            assert 4 <= kp.y < image.shape[0] - 4

    def test_invalid_arc_length(self):
        with pytest.raises(ValueError):
            FastDetector(arc_length=20)

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            FastDetector().detect(np.ones(100))

    def test_tiny_image_returns_empty(self):
        assert FastDetector().detect(np.ones((4, 4))) == []

    def test_keypoints_to_array(self):
        array = keypoints_to_array([Keypoint(1.0, 2.0, 3.0), Keypoint(4.0, 5.0, 6.0)])
        assert array.shape == (2, 2)
        assert keypoints_to_array([]).shape == (0, 2)


class TestOrb:
    def test_hamming_distance_basics(self):
        a = np.zeros(32, dtype=np.uint8)
        b = np.zeros(32, dtype=np.uint8)
        assert hamming_distance(a, b) == 0
        b[0] = 0xFF
        assert hamming_distance(a, b) == 8

    def test_hamming_matrix_shape(self):
        a = np.random.default_rng(0).integers(0, 256, size=(3, 32), dtype=np.uint8)
        b = np.random.default_rng(1).integers(0, 256, size=(5, 32), dtype=np.uint8)
        d = hamming_distance_matrix(a, b)
        assert d.shape == (3, 5)
        assert d[1, 2] == hamming_distance(a[1], b[2])

    def test_hamming_mismatched_length_raises(self):
        with pytest.raises(ValueError):
            hamming_distance(np.zeros(32, dtype=np.uint8), np.zeros(16, dtype=np.uint8))

    def test_descriptor_shape(self):
        image = checkerboard()
        keypoints = FastDetector(threshold=15.0, max_features=20).detect(image)
        descriptors = OrbDescriptor(bits=256).compute(image, keypoints)
        assert descriptors.shape == (len(keypoints), 32)
        assert descriptors.dtype == np.uint8

    def test_descriptor_empty_keypoints(self):
        descriptors = OrbDescriptor().compute(checkerboard(), [])
        assert descriptors.shape == (0, 32)

    def test_descriptor_stable_across_identical_images(self):
        image = checkerboard()
        keypoints = FastDetector(threshold=15.0, max_features=10).detect(image)
        orb = OrbDescriptor(seed=3)
        a = orb.compute(image, keypoints)
        b = orb.compute(image.copy(), keypoints)
        assert np.array_equal(a, b)

    def test_descriptor_discriminative(self):
        image = checkerboard()
        keypoints = FastDetector(threshold=15.0, max_features=30).detect(image)
        orb = OrbDescriptor()
        descriptors = orb.compute(image, keypoints)
        if len(keypoints) >= 2:
            self_distance = hamming_distance(descriptors[0], descriptors[0])
            assert self_distance == 0

    def test_bits_must_be_multiple_of_eight(self):
        with pytest.raises(ValueError):
            OrbDescriptor(bits=100)

    def test_descriptor_from_seed_deterministic(self):
        a = descriptor_from_seed(1234)
        b = descriptor_from_seed(1234)
        c = descriptor_from_seed(9999)
        assert np.array_equal(a, b)
        assert hamming_distance(a, c) > 50

    def test_descriptor_from_seed_noise_bits(self):
        rng = np.random.default_rng(0)
        a = descriptor_from_seed(42)
        noisy = descriptor_from_seed(42, noise_bits=8, rng=rng)
        assert 0 < hamming_distance(a, noisy) <= 8


class TestStereoMatcher:
    def _pair_with_shift(self, shift=6):
        left = checkerboard()
        right = np.roll(left, -shift, axis=1)
        detector = FastDetector(threshold=15.0, max_features=60)
        orb = OrbDescriptor()
        left_kp = detector.detect(left)
        right_kp = detector.detect(right)
        return left, right, left_kp, orb.compute(left, left_kp), right_kp, orb.compute(right, right_kp)

    def test_matches_shifted_image(self):
        left, right, lkp, ld, rkp, rd = self._pair_with_shift(6)
        matcher = StereoMatcher(max_hamming=100, max_disparity=20)
        matches = matcher.match(lkp, ld, rkp, rd, left, right)
        assert len(matches) > 3
        disparities = [m.disparity for m in matches]
        assert 3.0 <= np.median(disparities) <= 9.0

    def test_no_matches_on_empty_inputs(self):
        matcher = StereoMatcher()
        assert matcher.match([], np.zeros((0, 32), np.uint8), [], np.zeros((0, 32), np.uint8)) == []

    def test_disparity_positive(self):
        left, right, lkp, ld, rkp, rd = self._pair_with_shift(6)
        matches = StereoMatcher(max_hamming=100).match(lkp, ld, rkp, rd)
        assert all(m.disparity > 0 for m in matches)

    def test_right_keypoints_not_reused(self):
        left, right, lkp, ld, rkp, rd = self._pair_with_shift(6)
        matches = StereoMatcher(max_hamming=100).match(lkp, ld, rkp, rd)
        right_indices = [m.right_index for m in matches]
        assert len(right_indices) == len(set(right_indices))


class TestLucasKanade:
    def test_tracks_translation(self):
        image = gaussian_blur(checkerboard(), 1.0)
        shifted = np.roll(image, 3, axis=1)
        points = keypoints_to_array(FastDetector(threshold=15.0, max_features=15).detect(image))
        tracker = LucasKanadeTracker(window=11, iterations=20)
        results = tracker.track(image, shifted, points)
        good = [r for r in results if r.converged]
        assert len(good) >= len(results) // 2
        dx = np.median([r.current[0] - r.previous[0] for r in good])
        assert 2.0 <= dx <= 4.0

    def test_empty_points(self):
        tracker = LucasKanadeTracker()
        assert tracker.track(checkerboard(), checkerboard(), np.zeros((0, 2))) == []

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            LucasKanadeTracker(window=8)

    def test_flat_region_fails_gracefully(self):
        image = np.full((64, 64), 100.0)
        tracker = LucasKanadeTracker()
        results = tracker.track(image, image, np.array([[32.0, 32.0]]))
        assert not results[0].converged
