"""Bit-exactness of the memoized and trimmed hot-path kernels.

Each kernel is compared with a verbatim copy of the implementation it
replaced (the ``_reference_*`` functions below): the memoized descriptor
base bits, the memoized vocabulary training, the MSCKF propagation loop and
the pixel-noise draw of the synthetic dataset.  Equality is byte for byte,
and any generator the kernel draws from must end in the same state.  The
memos are also checked for aliasing (a caller mutating its result must not
reach the next hit) and for their size bound.  Last, the script that pins
the servbench wave signatures in CI must reject any moved bit.
"""

import json
import subprocess
import sys
from pathlib import Path
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import bow
from repro.backend.bow import VOCABULARY_MEMO_SIZE, BinaryVocabulary
from repro.backend.msckf import Msckf
from repro.backend.state import IMU_ERROR_DIM
from repro.common.camera import world_to_camera
from repro.common.geometry import Pose, euler_to_rotation, skew, so3_exp
from repro.frontend import orb
from repro.frontend.orb import DESCRIPTOR_MEMO_SIZE, descriptor_from_seed, hamming_distance_matrix
from repro.sensors.dataset import SequenceBuilder, StereoObservation
from repro.sensors.imu import GRAVITY, ImuSample
from repro.sensors.world import camera_frame_from_body

# ------------------------------------------------- reference implementations


def _reference_descriptor_from_seed(appearance_seed, bits=256, noise_bits=0, rng=None):
    seed_rng = np.random.default_rng(appearance_seed)
    descriptor_bits = seed_rng.integers(0, 2, size=bits).astype(np.uint8)
    if noise_bits > 0:
        flip_rng = rng if rng is not None else np.random.default_rng()
        flip_positions = flip_rng.choice(bits, size=min(noise_bits, bits), replace=False)
        descriptor_bits[flip_positions] ^= 1
    return np.packbits(descriptor_bits)


def _reference_train(descriptors, num_words, iterations, seed):
    descriptors = np.asarray(descriptors, dtype=np.uint8)
    rng = np.random.default_rng(seed)
    initial = rng.choice(descriptors.shape[0], size=num_words, replace=False)
    centroids = descriptors[initial].copy()

    bits = np.unpackbits(descriptors, axis=1)
    for _ in range(iterations):
        distances = hamming_distance_matrix(descriptors, centroids)
        assignment = np.argmin(distances, axis=1)
        new_centroids = centroids.copy()
        for word in range(num_words):
            members = bits[assignment == word]
            if members.shape[0] == 0:
                continue
            majority = (members.mean(axis=0) >= 0.5).astype(np.uint8)
            new_centroids[word] = np.packbits(majority)
        if np.array_equal(new_centroids, centroids):
            break
        centroids = new_centroids
    words = centroids

    distances = hamming_distance_matrix(descriptors, centroids)
    assignment = np.argmin(distances, axis=1)
    counts = np.bincount(assignment, minlength=num_words).astype(float)
    idf = np.log((descriptors.shape[0] + 1.0) / (counts + 1.0))
    return words, idf


def _reference_propagate(self, imu_samples):
    if len(imu_samples) < 2:
        return
    imu = self.state.imu
    cfg = self.config
    for i in range(len(imu_samples) - 1):
        dt = imu_samples[i + 1].timestamp - imu_samples[i].timestamp
        if dt <= 0:
            continue
        gyro = imu_samples[i].angular_velocity - imu.gyro_bias
        accel = imu_samples[i].linear_acceleration - imu.accel_bias

        rotation = imu.rotation
        accel_world = rotation @ accel + GRAVITY

        state_dim = self.state.error_dim
        phi_imu = np.eye(IMU_ERROR_DIM)
        phi_imu[0:3, 9:12] = -rotation * dt
        phi_imu[3:6, 6:9] = np.eye(3) * dt
        phi_imu[6:9, 0:3] = -skew(rotation @ accel) * dt
        phi_imu[6:9, 12:15] = -rotation * dt

        noise = np.zeros((IMU_ERROR_DIM, IMU_ERROR_DIM))
        noise[0:3, 0:3] = np.eye(3) * cfg.imu_gyro_noise**2 * dt
        noise[6:9, 6:9] = np.eye(3) * cfg.imu_accel_noise**2 * dt
        noise[9:12, 9:12] = np.eye(3) * cfg.imu_gyro_bias_noise**2 * dt
        noise[12:15, 12:15] = np.eye(3) * cfg.imu_accel_bias_noise**2 * dt

        cov = self.state.covariance
        cov[:IMU_ERROR_DIM, :IMU_ERROR_DIM] = (
            phi_imu @ cov[:IMU_ERROR_DIM, :IMU_ERROR_DIM] @ phi_imu.T + noise
        )
        if state_dim > IMU_ERROR_DIM:
            cov[:IMU_ERROR_DIM, IMU_ERROR_DIM:] = phi_imu @ cov[:IMU_ERROR_DIM, IMU_ERROR_DIM:]
            cov[IMU_ERROR_DIM:, :IMU_ERROR_DIM] = cov[:IMU_ERROR_DIM, IMU_ERROR_DIM:].T

        imu.rotation = rotation @ so3_exp(gyro * dt)
        imu.position = imu.position + imu.velocity * dt + 0.5 * accel_world * dt * dt
        imu.velocity = imu.velocity + accel_world * dt
    self.state.symmetrize()


def _reference_observe(self, pose, world, rig, rng) -> Dict[int, StereoObservation]:
    if not len(world):
        return {}
    points_body = world_to_camera(pose, world.positions)
    points_camera = camera_frame_from_body(points_body)
    left_pixels, left_valid = rig.camera.project(points_camera)
    right_points = points_camera - np.array([rig.baseline, 0.0, 0.0])
    right_pixels, right_valid = rig.camera.project(right_points)
    max_depth = 40.0 if world.is_indoor else 80.0
    in_range = (points_camera[:, 2] > 0.3) & (points_camera[:, 2] < max_depth)
    valid = left_valid & right_valid & in_range

    observations: Dict[int, StereoObservation] = {}
    noise_std = self.config.pixel_noise_std
    for idx in np.nonzero(valid)[0]:
        left = left_pixels[idx] + rng.normal(0.0, noise_std, size=2)
        right = right_pixels[idx] + rng.normal(0.0, noise_std, size=2)
        landmark_id = world.landmarks[idx].landmark_id
        observations[landmark_id] = StereoObservation(landmark_id, left, right)
    return observations


def _same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


# ------------------------------------------------------ descriptor_from_seed


class TestDescriptorFromSeed:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           bits=st.sampled_from([8, 64, 256]),
           noise_bits=st.integers(min_value=0, max_value=300),
           rng_seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_and_rng_state(self, seed, bits, noise_bits, rng_seed):
        rng_new = np.random.default_rng(rng_seed)
        rng_ref = np.random.default_rng(rng_seed)
        for _ in range(2):  # the first call may miss the memo, the second hits
            got = descriptor_from_seed(seed, bits=bits, noise_bits=noise_bits, rng=rng_new)
            expected = _reference_descriptor_from_seed(seed, bits=bits, noise_bits=noise_bits,
                                                       rng=rng_ref)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            assert _same_state(rng_new, rng_ref)

    def test_noise_requires_rng(self):
        with pytest.raises(ValueError):
            descriptor_from_seed(7, noise_bits=4)
        assert descriptor_from_seed(7).tobytes() == _reference_descriptor_from_seed(7).tobytes()

    def test_mutating_a_result_does_not_reach_the_memo(self):
        first = descriptor_from_seed(1234)
        expected = first.tobytes()
        first[:] = 0
        noisy = descriptor_from_seed(1234, noise_bits=8, rng=np.random.default_rng(3))
        noisy ^= 0xFF
        assert descriptor_from_seed(1234).tobytes() == expected
        with pytest.raises(ValueError):
            orb._base_bits(1234, 256)[0] = 1

    def test_memo_is_bounded(self):
        assert orb._base_bits.cache_info().maxsize == DESCRIPTOR_MEMO_SIZE
        for seed in range(DESCRIPTOR_MEMO_SIZE + 64):
            descriptor_from_seed(10**6 + seed, bits=8)
        assert orb._base_bits.cache_info().currsize == DESCRIPTOR_MEMO_SIZE


# ---------------------------------------------------- vocabulary training


def _survey_descriptors(count: int, offset: int = 0) -> np.ndarray:
    return np.stack([descriptor_from_seed((offset + i) * 2654435761 % (2**31))
                     for i in range(count)])


class TestVocabularyTraining:
    @given(count=st.integers(min_value=8, max_value=160),
           offset=st.integers(min_value=0, max_value=10**6),
           num_words=st.integers(min_value=2, max_value=64),
           iterations=st.integers(min_value=0, max_value=8),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=40, deadline=None)
    def test_hit_and_miss_match_reference(self, count, offset, num_words, iterations, seed):
        num_words = min(num_words, count)
        descriptors = _survey_descriptors(count, offset)
        words, idf = _reference_train(descriptors, num_words, iterations, seed)
        bow._train_words.cache_clear()
        for expected_hits in (0, 1):
            vocabulary = BinaryVocabulary(num_words=num_words, iterations=iterations, seed=seed)
            vocabulary.train(descriptors)
            assert bow._train_words.cache_info().hits == expected_hits
            assert vocabulary.words.tobytes() == words.tobytes()
            assert vocabulary.words.shape == words.shape
            assert vocabulary.idf.tobytes() == idf.tobytes()

    def test_survey_map_vocabulary_matches_reference(self):
        descriptors = _survey_descriptors(150)
        words, idf = _reference_train(descriptors, 64, 8, 0)
        for _ in range(2):
            vocabulary = BinaryVocabulary(num_words=64, seed=0)
            vocabulary.train(descriptors)
            assert vocabulary.words.tobytes() == words.tobytes()
            assert vocabulary.idf.tobytes() == idf.tobytes()

    def test_mutating_a_vocabulary_does_not_reach_the_memo(self):
        descriptors = _survey_descriptors(40)
        words, idf = _reference_train(descriptors, 8, 8, 5)
        first = BinaryVocabulary(num_words=8, seed=5)
        first.train(descriptors)
        first.words[:] = 0
        first.idf[:] = -1.0
        second = BinaryVocabulary(num_words=8, seed=5)
        second.train(descriptors)
        assert second.words.tobytes() == words.tobytes()
        assert second.idf.tobytes() == idf.tobytes()
        assert second.words.flags.writeable and second.idf.flags.writeable

    def test_memo_is_bounded(self):
        assert bow._train_words.cache_info().maxsize == VOCABULARY_MEMO_SIZE
        for offset in range(VOCABULARY_MEMO_SIZE + 4):
            BinaryVocabulary(num_words=2, iterations=1).train(_survey_descriptors(4, 1000 + offset))
        assert bow._train_words.cache_info().currsize == VOCABULARY_MEMO_SIZE


# ----------------------------------------------------------- MSCKF propagate


def _imu_batch(rng: np.random.Generator, count: int, start: float):
    # Mostly regular steps with a jittered, a zero and a negative dt, so the
    # noise scaled per step sees varying dt and the loop skips steps.
    steps = np.full(count, 0.005)
    steps[rng.integers(0, count)] = 0.0
    steps[rng.integers(0, count)] = -0.001
    steps[rng.integers(0, count)] = 0.005 + rng.uniform(1e-6, 1e-3)
    timestamps = start + np.concatenate([[0.0], np.cumsum(steps)])
    return [ImuSample(float(t), rng.normal(0.0, 0.3, 3), rng.normal(0.0, 2.0, 3) - GRAVITY)
            for t in timestamps]


def _filter(rng: np.random.Generator, clones: int) -> Msckf:
    vio = Msckf()
    rotation = euler_to_rotation(*rng.uniform(-np.pi, np.pi, 3))
    vio.initialize(Pose(rotation, rng.normal(0.0, 5.0, 3)), velocity=rng.normal(0.0, 1.0, 3))
    vio.state.imu.gyro_bias = rng.normal(0.0, 0.01, 3)
    vio.state.imu.accel_bias = rng.normal(0.0, 0.05, 3)
    for frame in range(clones):
        vio.state.augment(frame, float(frame))
    noise = rng.normal(0.0, 1e-3, vio.state.covariance.shape)
    vio.state.covariance = vio.state.covariance + noise @ noise.T
    return vio


class TestPropagate:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           clones=st.integers(min_value=0, max_value=4),
           count=st.integers(min_value=2, max_value=24))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, seed, clones, count):
        batch = _imu_batch(np.random.default_rng(seed), count, start=1.0)
        trimmed = _filter(np.random.default_rng(seed), clones)
        reference = _filter(np.random.default_rng(seed), clones)
        for _ in range(2):
            trimmed._propagate(batch)
            _reference_propagate(reference, batch)
        assert trimmed.state.covariance.tobytes() == reference.state.covariance.tobytes()
        for name in ("rotation", "position", "velocity"):
            assert (getattr(trimmed.state.imu, name).tobytes()
                    == getattr(reference.state.imu, name).tobytes())


# ------------------------------------------------------- dataset pixel noise


class TestObservePixelNoise:
    def test_matches_reference_on_a_fixed_world(self, indoor_mapped_sequence, small_sensor_config):
        builder = SequenceBuilder(small_sensor_config)
        world = indoor_mapped_sequence.world
        rig = indoor_mapped_sequence.rig
        rng_new = np.random.default_rng(11)
        rng_ref = np.random.default_rng(11)
        seen = 0
        for frame in indoor_mapped_sequence.frames[:12]:
            got = builder._observe(frame.ground_truth, world, rig, rng_new)
            expected = _reference_observe(builder, frame.ground_truth, world, rig, rng_ref)
            assert list(got) == list(expected)
            for landmark_id, observation in expected.items():
                assert got[landmark_id].left_pixel.tobytes() == observation.left_pixel.tobytes()
                assert got[landmark_id].right_pixel.tobytes() == observation.right_pixel.tobytes()
            assert _same_state(rng_new, rng_ref)
            seen += len(expected)
        assert seen > 0

    def test_no_visible_landmark_draws_nothing(self, indoor_mapped_sequence, small_sensor_config):
        builder = SequenceBuilder(small_sensor_config)
        behind = Pose(np.eye(3), np.array([0.0, 0.0, 1e6]))
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        assert builder._observe(behind, indoor_mapped_sequence.world,
                                indoor_mapped_sequence.rig, rng) == {}
        assert rng.bit_generator.state == before


# ------------------------------------------------ servbench signature check


class TestServbenchSignatureCheck:
    SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_servbench_signatures.py"
    PINNED = json.loads((Path(__file__).resolve().parent / "data"
                         / "servbench_signatures.json").read_text())

    def _run(self, seed, waves):
        lines = [json.dumps({"host": {}, "workload": "map_lifecycle", "seed": seed, "passes": 2})]
        lines += [f"signature map_lifecycle wave={label} {signature} (checked on 2 passes)"
                  for label, signature in waves.items()]
        lines.append(json.dumps({"correct": True}))
        return subprocess.run([sys.executable, str(self.SCRIPT)], input="\n".join(lines) + "\n",
                              capture_output=True, text=True)

    def test_pinned_run_passes_and_output_passes_through(self):
        waves = self.PINNED["workloads"]["map_lifecycle"]
        done = self._run(self.PINNED["seed"], waves)
        assert done.returncode == 0, done.stderr
        assert '{"correct": true}' in done.stdout

    @pytest.mark.parametrize("change", ["moved_bit", "missing_wave", "other_seed"])
    def test_any_difference_fails(self, change):
        waves = dict(self.PINNED["workloads"]["map_lifecycle"])
        seed = self.PINNED["seed"]
        if change == "moved_bit":
            waves["warm"] = waves["warm"][::-1]
        elif change == "missing_wave":
            del waves["drift"]
        else:
            seed += 1
        assert self._run(seed, waves).returncode == 1
