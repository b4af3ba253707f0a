"""Device catalog and occupancy calculator tests (incl. hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import (
    K20X,
    K40,
    DeviceSpec,
    available_devices,
    query_device,
    register_device,
)
from repro.gpu.occupancy import (
    calculate_occupancy,
    candidate_shapes,
    enumerate_block_sizes,
    tune_block_size,
)


# ----------------------------------------------------------------------- device


def test_catalog_contains_paper_devices():
    assert "K20X" in available_devices()
    assert "K40" in available_devices()


def test_query_device():
    assert query_device("K20X") is K20X
    with pytest.raises(KeyError):
        query_device("H100")


def test_register_custom_device():
    custom = DeviceSpec(
        name="CUSTOM-TEST",
        compute_capability="3.5",
        sm_count=1,
        peak_bandwidth_gbs=1.0,
        peak_gflops_dp=1.0,
        peak_gflops_sp=1.0,
        shared_mem_per_sm=1024,
        shared_mem_per_block=1024,
        regs_per_sm=1024,
        max_regs_per_thread=63,
        max_threads_per_sm=512,
        max_threads_per_block=256,
        max_blocks_per_sm=4,
    )
    register_device(custom)
    assert query_device("CUSTOM-TEST") is custom


def test_k20x_published_parameters():
    assert K20X.sm_count == 14
    assert K20X.peak_bandwidth_gbs == 250.0
    assert K20X.shared_mem_per_block == 48 * 1024
    assert K20X.max_warps_per_sm == 64


def test_k40_faster_than_k20x():
    assert K40.peak_bandwidth_gbs > K20X.peak_bandwidth_gbs
    assert K40.peak_gflops_dp > K20X.peak_gflops_dp


def test_effective_bandwidth_saturates():
    assert K20X.effective_bandwidth(1.0) == K20X.peak_bandwidth_gbs
    assert K20X.effective_bandwidth(K20X.saturation_occupancy) == pytest.approx(
        K20X.peak_bandwidth_gbs
    )
    low = K20X.effective_bandwidth(K20X.saturation_occupancy / 2)
    assert low == pytest.approx(K20X.peak_bandwidth_gbs / 2)


# -------------------------------------------------------------------- occupancy


def test_full_occupancy_small_kernel():
    # 256 threads, no smem, 32 regs: 8 blocks of 8 warps = 64 warps
    result = calculate_occupancy(K20X, 256, 0, 32)
    assert result.occupancy == 1.0


def test_warp_limited_small_blocks():
    # 64-thread blocks: 2 warps x 16 blocks max = 32 of 64 warps
    result = calculate_occupancy(K20X, 64, 0, 16)
    assert result.occupancy == 0.5
    assert result.limiter == "blocks"


def test_shared_memory_limits_blocks():
    # 24 KB per block: only 2 blocks fit in 48 KB
    result = calculate_occupancy(K20X, 256, 24 * 1024, 16)
    assert result.active_blocks_per_sm == 2
    assert result.limiter == "smem"
    assert result.occupancy == pytest.approx(16 / 64)


def test_register_limited():
    # 128 regs/thread at 256 threads: 128*32=4096 regs/warp, x8 warps = 32768
    # per block -> 2 blocks
    result = calculate_occupancy(K20X, 256, 0, 128)
    assert result.limiter == "regs"
    assert result.active_blocks_per_sm == 2


def test_block_too_large_rejected():
    with pytest.raises(ValueError):
        calculate_occupancy(K20X, 2048, 0, 32)


def test_smem_over_limit_rejected():
    with pytest.raises(ValueError):
        calculate_occupancy(K20X, 256, 64 * 1024, 32)


def test_regs_over_limit_rejected():
    with pytest.raises(ValueError):
        calculate_occupancy(K20X, 256, 0, 400)


def test_enumerate_block_sizes_multiples_of_warp():
    sizes = enumerate_block_sizes(K20X)
    assert all(s % 32 == 0 for s in sizes)
    assert max(sizes) == K20X.max_threads_per_block


def test_candidate_shapes_respect_limits():
    for shape in candidate_shapes(K20X, dims=2):
        assert shape.size <= K20X.max_threads_per_block
        assert shape.size >= K20X.warp_size


def test_tuner_improves_warp_limited_config():
    # a 64-thread block is warp-limited at 0.5; the tuner must find better
    shape, result = tune_block_size(K20X, smem_per_thread=0.0, regs_per_thread=32)
    assert result.occupancy > 0.5


def test_tuner_respects_smem_per_thread():
    # 96 B/thread: a 512-thread block would need 48 KB (exactly the limit)
    shape, result = tune_block_size(K20X, smem_per_thread=96.0, regs_per_thread=32)
    assert shape.size * 96 <= K20X.shared_mem_per_block


def test_tuner_never_worse_than_current():
    from repro.transform.blocksize import tune_kernel_block

    decision = tune_kernel_block(K20X, "k", (32, 8, 1), 8192, 48)
    assert decision.occupancy_after >= decision.occupancy_before - 1e-12


@given(
    threads=st.integers(min_value=1, max_value=1024),
    smem=st.integers(min_value=0, max_value=48 * 1024),
    regs=st.integers(min_value=16, max_value=255),
)
@settings(max_examples=200, deadline=None)
def test_occupancy_bounds_property(threads, smem, regs):
    try:
        result = calculate_occupancy(K20X, threads, smem, regs)
    except ValueError:
        # unlaunchable configuration (e.g. 255 regs x 1024 threads)
        return
    assert 0.0 < result.occupancy <= 1.0
    assert result.active_blocks_per_sm >= 1
    assert (
        result.active_warps_per_sm
        == result.active_blocks_per_sm * result.warps_per_block
    )


@given(smem=st.integers(min_value=0, max_value=16 * 1024))
@settings(max_examples=60, deadline=None)
def test_occupancy_monotone_in_smem(smem):
    """More shared memory per block never increases occupancy."""
    lo = calculate_occupancy(K20X, 256, smem, 32).occupancy
    hi = calculate_occupancy(K20X, 256, smem + 4096, 32).occupancy
    assert hi <= lo + 1e-12
