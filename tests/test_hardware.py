"""Tests for the FPGA accelerator model: resources, memory, cycle models, energy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.mapping import SlamWorkload
from repro.backend.msckf import VioWorkload
from repro.backend.tracking import RegistrationWorkload
from repro.baselines.platforms import KABY_LAKE_MULTI
from repro.common.timing import LatencyRecord
from repro.frontend.frontend import FrontendWorkload
from repro.hardware.backend_accel import BackendAcceleratorModel
from repro.hardware.dma import AXI4, PCIE_3, DmaModel
from repro.hardware.energy import EnergyModel
from repro.hardware.frontend_accel import FrontendAcceleratorModel
from repro.hardware.memory import (
    FrontendMemoryPlan,
    StencilBufferSpec,
    replicated_buffer_bytes,
    replication_beneficial,
    shared_buffer_bytes,
)
from repro.hardware.platform import EDX_CAR, EDX_DRONE
from repro.hardware.resources import ResourceModel, ResourceUsage, VIRTEX_7_690T, ZYNQ_ZU9


def car_workload(features=200):
    return FrontendWorkload(
        image_width=1280, image_height=720,
        keypoints_left=features, keypoints_right=features,
        descriptors_computed=2 * features,
        stereo_candidates=features * features,
        stereo_matches=int(features * 0.75),
        tracked_points=int(features * 0.8),
        temporal_matches=int(features * 0.7),
    )


class TestDma:
    def test_transfer_time_monotonic(self):
        dma = DmaModel(bandwidth_gbps=1.0)
        assert dma.transfer_ms(1_000_000) > dma.transfer_ms(1_000)
        assert dma.transfer_ms(0) == 0.0

    def test_pcie_faster_than_axi(self):
        payload = 10_000_000
        assert PCIE_3.transfer_ms(payload) < AXI4.transfer_ms(payload)

    def test_round_trip(self):
        dma = DmaModel(bandwidth_gbps=1.0, fixed_latency_us=10.0)
        assert dma.round_trip_ms(1000, 1000) == pytest.approx(2 * dma.transfer_ms(1000))


class TestResources:
    def test_car_matches_table2(self):
        usage = EDX_CAR.resource_model().total()
        assert usage.lut == pytest.approx(350671, rel=0.05)
        assert usage.flip_flop == pytest.approx(239347, rel=0.05)
        assert usage.dsp == pytest.approx(1284, rel=0.05)
        assert usage.bram_mb == pytest.approx(5.0, rel=0.08)

    def test_drone_matches_table2(self):
        usage = EDX_DRONE.resource_model().total()
        assert usage.lut == pytest.approx(231547, rel=0.05)
        assert usage.dsp == pytest.approx(1072, rel=0.05)

    def test_utilization_below_capacity(self):
        for platform in (EDX_CAR, EDX_DRONE):
            usage = platform.resource_model().total()
            assert platform.device.fits(usage)
            utilization = platform.device.utilization(usage)
            assert all(0 < value <= 100 for value in utilization.values())

    def test_no_sharing_exceeds_device(self):
        for platform in (EDX_CAR, EDX_DRONE):
            no_sharing = platform.resource_model().total_no_sharing()
            shared = platform.resource_model().total()
            assert no_sharing.lut > 1.8 * shared.lut
            assert not platform.device.fits(no_sharing)

    def test_frontend_dominates(self):
        model = EDX_CAR.resource_model()
        assert model.frontend().lut > model.backend().lut
        assert model.feature_extraction().lut > 0.5 * model.frontend().lut

    def test_breakdown_sums_to_total(self):
        model = EDX_CAR.resource_model()
        breakdown = model.breakdown()
        total_lut = sum(usage.lut for usage in breakdown.values())
        assert total_lut == pytest.approx(model.total().lut, rel=0.05)

    def test_resource_usage_arithmetic(self):
        a = ResourceUsage(lut=10, flip_flop=20, dsp=2, bram_mb=0.1)
        b = a + a.scaled(0.5)
        assert b.lut == 15
        assert b.as_dict()["dsp"] == 3

    def test_devices_have_sensible_capacity(self):
        assert VIRTEX_7_690T.lut > ZYNQ_ZU9.lut
        assert VIRTEX_7_690T.dsp > ZYNQ_ZU9.dsp


class TestStencilBuffers:
    def test_basic_sizes(self):
        spec = StencilBufferSpec(image_width=1920, stencil_heights=[4, 3])
        assert spec.line_count == 4
        assert spec.fifo_bytes == 4 * 1920
        assert spec.shift_register_bytes == 16 + 9

    def test_shared_vs_replicated(self):
        # Fig. 14: when the second consumer reads much later, replication wins.
        shared = shared_buffer_bytes(0, [100, 1_000_000])
        replicated = replicated_buffer_bytes([0, 999_000], [100, 1_000_000])
        assert replicated < shared
        assert replication_beneficial([0, 999_000], [100, 1_000_000])

    def test_replication_not_beneficial_when_consumers_close(self):
        assert not replication_beneficial([0, 0], [100, 120])

    def test_replicated_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            replicated_buffer_bytes([0], [1, 2])

    def test_memory_plan_magnitudes(self):
        plan = EDX_CAR.memory_plan()
        summary = plan.summary()
        # SPM dominates; the optimized SB is small; the unoptimized SB would
        # add megabytes (the paper reports ~9 MB extra at 1280x720).
        assert summary["scratchpad_mb"] > summary["stencil_buffer_mb"]
        assert summary["stencil_buffer_unoptimized_mb"] > summary["stencil_buffer_mb"] + 1.0
        assert summary["total_mb"] < 10.0

    def test_drone_plan_smaller_than_car(self):
        assert EDX_DRONE.memory_plan().total_mb() < EDX_CAR.memory_plan().total_mb()


class TestFrontendAccelerator:
    def test_car_latency_magnitude(self):
        model = EDX_CAR.frontend_model()
        latency = model.frame_latency(car_workload())
        # Paper: ~42.7 ms frontend latency on EDX-CAR.
        assert 25.0 < latency.critical_path_ms < 60.0
        assert latency.stereo_matching_ms > latency.feature_extraction_ms

    def test_temporal_matching_off_critical_path(self):
        latency = EDX_CAR.frontend_model().frame_latency(car_workload())
        assert latency.temporal_matching_ms < latency.stereo_matching_ms

    def test_latency_scales_with_resolution(self):
        model = FrontendAcceleratorModel(clock_mhz=200.0)
        small = FrontendWorkload(image_width=640, image_height=480, keypoints_left=100,
                                 keypoints_right=100, descriptors_computed=200,
                                 stereo_matches=80, tracked_points=80)
        assert model.latency_ms(car_workload()) > model.latency_ms(small)

    @given(st.integers(min_value=10, max_value=400))
    @settings(max_examples=20, deadline=None)
    def test_latency_monotonic_in_features(self, features):
        model = EDX_CAR.frontend_model()
        smaller = model.latency_ms(car_workload(features=features))
        larger = model.latency_ms(car_workload(features=features + 50))
        assert larger >= smaller


class TestBackendAccelerator:
    def test_projection_scales_with_map_points(self):
        model = EDX_CAR.backend_model()
        small = model.projection_ms(RegistrationWorkload(map_points=100))
        large = model.projection_ms(RegistrationWorkload(map_points=10000))
        assert large > small

    def test_kalman_gain_scales_with_rows(self):
        model = EDX_CAR.backend_model()
        small = model.kalman_gain_ms(VioWorkload(kalman_gain_dim=30, state_dim=195))
        large = model.kalman_gain_ms(VioWorkload(kalman_gain_dim=180, state_dim=195))
        assert large > small

    def test_marginalization_scales(self):
        model = EDX_CAR.backend_model()
        small = model.marginalization_ms(SlamWorkload(marginalized_dim=20, keyframes=8, feature_points=20))
        large = model.marginalization_ms(SlamWorkload(marginalized_dim=200, keyframes=8, feature_points=200))
        assert large > small

    def test_dma_included_costs_more(self):
        model = EDX_CAR.backend_model()
        workload = VioWorkload(kalman_gain_dim=100, state_dim=195)
        assert model.kalman_gain_ms(workload, include_dma=True) > model.kalman_gain_ms(workload, include_dma=False)

    def test_kernel_dispatch(self):
        model = EDX_CAR.backend_model()
        assert model.accelerated_kernel_name("registration") == "projection"
        assert model.accelerated_kernel_name("vio") == "kalman_gain"
        assert model.accelerated_kernel_name("slam") == "marginalization"
        with pytest.raises(ValueError):
            model.kernel_ms("unknown", None)

    def test_bigger_block_is_faster(self):
        small_block = BackendAcceleratorModel(block_size=4)
        big_block = BackendAcceleratorModel(block_size=16)
        workload = VioWorkload(kalman_gain_dim=150, state_dim=195)
        assert big_block.kalman_gain_ms(workload, include_dma=False) < small_block.kalman_gain_ms(
            workload, include_dma=False)

    def test_structured_inverse_cheaper(self):
        model = EDX_CAR.backend_model()
        assert model.inverse_cycles(120, structured=True) < model.inverse_cycles(120, structured=False)


class TestEnergyModel:
    def _record(self, frontend_ms=90.0, backend_ms=25.0):
        record = LatencyRecord(frame_index=0)
        record.add_frontend("frontend", frontend_ms)
        record.add_backend("backend", backend_ms)
        return record

    def test_baseline_energy(self):
        model = EnergyModel(host=KABY_LAKE_MULTI)
        energy = model.baseline_energy_joules(self._record())
        assert energy == pytest.approx(KABY_LAKE_MULTI.power_watts * 0.115, rel=1e-6)

    def test_accelerated_energy_lower(self):
        model = EnergyModel(host=KABY_LAKE_MULTI)
        baseline = model.baseline_energy_joules(self._record())
        accelerated = model.accelerated_energy_joules(self._record(40.0, 15.0), fpga_active_ms=45.0)
        assert accelerated < baseline

    def test_platform_energy_models(self):
        assert EDX_CAR.energy_model().host is EDX_CAR.host
        assert EDX_DRONE.energy_model().fpga_static_watts < EDX_CAR.energy_model().fpga_static_watts + 1.0
