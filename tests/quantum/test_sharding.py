"""Tests for the sharded execution layer (DESIGN.md §14).

The load-bearing contract: a :class:`ShardedExecutor` is **bit-identical**
to the unsharded :class:`EnsembleExecutor` for the same inputs and seed, on
both the ensemble and the trajectory route, for every CPU shard backend and
any shard count.  Everything else — plan shapes, moment merging, pool
lifecycle — supports that contract.
"""

import numpy as np
import pytest

import repro.quantum.sharding as sharding
from repro.quantum.channels import NoiseSpec
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.engine import EnsembleExecutor
from repro.quantum.sharding import (
    SHARD_BACKENDS,
    ShardPlan,
    ShardedExecutor,
    get_shard_pool,
    merge_moments,
    moments_from_rows,
    moments_mean_and_sem,
    shutdown_shard_pools,
)

CPU_BACKENDS = ("serial", "thread", "process")


def _random_unitary(rng, k):
    m = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal((2**k, 2**k))
    q, _ = np.linalg.qr(m)
    return q


def _random_circuit(rng, num_qubits, num_gates, max_gate_qubits=2):
    circ = QuantumCircuit(num_qubits)
    for _ in range(num_gates):
        k = int(rng.integers(1, max_gate_qubits + 1))
        qubits = list(rng.choice(num_qubits, size=k, replace=False))
        circ.unitary(_random_unitary(rng, k), qubits)
    return circ


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("total,shards", [(1, 1), (7, 3), (16, 4), (16, 5), (3, 8)])
def test_shard_plan_balanced_covers_everything_once(total, shards):
    plan = ShardPlan.balanced(total, shards)
    assert plan.total == total
    assert plan.num_shards == min(shards, total)  # clamped: no empty shard
    covered = [i for start, stop in plan.bounds for i in range(start, stop)]
    assert covered == list(range(total))  # contiguous, ordered, exactly once
    sizes = [stop - start for start, stop in plan.bounds]
    assert max(sizes) - min(sizes) <= 1  # near-equal
    assert all(size >= 1 for size in sizes)
    # slices() is the same partition in slice form.
    assert [list(range(total))[s] for s in plan.slices()] == [
        list(range(start, stop)) for start, stop in plan.bounds
    ]


def test_shard_plan_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        ShardPlan.balanced(0, 2)
    with pytest.raises(ValueError):
        ShardPlan.balanced(4, 0)


# ---------------------------------------------------------------------------
# Exact moment merging (Chan / Welford)
# ---------------------------------------------------------------------------


def test_merge_moments_matches_concatenated_rows():
    rng = np.random.default_rng(42)
    blocks = [rng.random((t, 8)) for t in (1, 3, 5, 2)]
    merged = (0, np.zeros(8), np.zeros(8))
    for block in blocks:
        merged = merge_moments(merged, moments_from_rows(block))
    count, mean, m2 = merged
    all_rows = np.vstack(blocks)
    ref_count, ref_mean, ref_m2 = moments_from_rows(all_rows)
    assert count == ref_count == all_rows.shape[0]
    np.testing.assert_allclose(mean, ref_mean, atol=1e-13)
    np.testing.assert_allclose(m2, ref_m2, atol=1e-13)
    # And the SEM reduction equals the ddof=1 formula over all rows.
    got_mean, got_sem = moments_mean_and_sem(merged)
    expected_sem = all_rows.std(axis=0, ddof=1) / np.sqrt(all_rows.shape[0])
    np.testing.assert_allclose(got_mean, ref_mean, atol=1e-13)
    np.testing.assert_allclose(got_sem, expected_sem, atol=1e-13)


def test_merge_moments_with_empty_partition_is_identity():
    rows = np.random.default_rng(0).random((4, 3))
    moments = moments_from_rows(rows)
    empty = (0, np.zeros(3), np.zeros(3))
    assert merge_moments(empty, moments) is moments
    assert merge_moments(moments, empty) is moments


def test_moments_mean_and_sem_single_row_has_zero_sem():
    mean, sem = moments_mean_and_sem(moments_from_rows(np.ones((1, 4))))
    np.testing.assert_array_equal(mean, np.ones(4))
    np.testing.assert_array_equal(sem, np.zeros(4))


# ---------------------------------------------------------------------------
# Bit-identity: ensemble route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", CPU_BACKENDS)
@pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
def test_sharded_ensemble_distribution_is_bit_identical(backend, num_shards):
    # column_block=4 gives 4 evolution blocks over the 16 members, so every
    # shard count here actually distributes work (the default width of 16
    # would clamp them all to one shard at this batch size).
    rng = np.random.default_rng(2024)
    n = 4
    circuit = _random_circuit(rng, n, num_gates=10)
    basis = list(range(2**n))
    weights = rng.random(len(basis))
    reference = EnsembleExecutor(fuse=True, column_block=4).basis_ensemble_distribution(
        circuit, [0, 1], basis, weights=weights
    )
    sharded = ShardedExecutor(
        num_shards, backend=backend, column_block=4
    ).basis_ensemble_distribution(circuit, [0, 1], basis, weights=weights)
    assert np.array_equal(sharded, reference)  # bitwise, not approx


def test_sharded_ensemble_is_bit_identical_at_default_width():
    rng = np.random.default_rng(2025)
    n = 5
    circuit = _random_circuit(rng, n, num_gates=10)
    basis = list(range(2**n))  # 32 members = two default-width blocks
    reference = EnsembleExecutor(fuse=True).basis_ensemble_distribution(
        circuit, [0, 1], basis
    )
    sharded = ShardedExecutor(2, backend="serial").basis_ensemble_distribution(
        circuit, [0, 1], basis
    )
    assert np.array_equal(sharded, reference)


@pytest.mark.parametrize("backend", CPU_BACKENDS)
def test_sharded_member_marginals_match_unsharded(backend):
    rng = np.random.default_rng(99)
    n = 3
    circuit = _random_circuit(rng, n, num_gates=8)
    basis = list(range(2**n))
    reference = EnsembleExecutor(fuse=True, column_block=2).basis_ensemble_member_marginals(
        circuit, [0], basis
    )
    sharded = ShardedExecutor(3, backend=backend, column_block=2).basis_ensemble_member_marginals(
        circuit, [0], basis
    )
    assert np.array_equal(sharded, reference)


def test_sharded_ensemble_respects_memory_budget_sub_chunking():
    """A tight memory budget narrows the evolution block below column_block;
    the shard cut follows the narrowed width and the bytes still match."""
    rng = np.random.default_rng(5)
    n = 4
    circuit = _random_circuit(rng, n, num_gates=8)
    basis = list(range(2**n))
    budget = (2**n) * 16 * 3
    narrow = ShardedExecutor(2, backend="serial", memory_budget_bytes=budget)
    assert narrow._reference.evolution_block(n) == 3  # budget caps the pinned 16
    wide = EnsembleExecutor(fuse=True, memory_budget_bytes=budget)
    reference = wide.basis_ensemble_distribution(circuit, [0, 1], basis)
    assert np.array_equal(
        narrow.basis_ensemble_distribution(circuit, [0, 1], basis), reference
    )


# ---------------------------------------------------------------------------
# Bit-identity: trajectory route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", CPU_BACKENDS)
@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_sharded_trajectory_distribution_is_bit_identical(backend, num_shards):
    rng_ref = np.random.default_rng(7)
    rng_shard = np.random.default_rng(7)
    n = 3
    circuit = _random_circuit(np.random.default_rng(1), n, num_gates=6)
    spec = NoiseSpec(channel="depolarizing", strength=0.02)
    basis = list(range(2**n))
    ref_mean, ref_sem = EnsembleExecutor(fuse=True).trajectory_basis_distribution(
        circuit, [0], basis, spec, rng_ref, n_trajectories=6
    )
    got_mean, got_sem = ShardedExecutor(
        num_shards, backend=backend
    ).trajectory_basis_distribution(circuit, [0], basis, spec, rng_shard, n_trajectories=6)
    assert np.array_equal(got_mean, ref_mean)
    assert np.array_equal(got_sem, ref_sem)


def test_sharded_trajectory_with_weights_is_bit_identical():
    """Raw weights are shipped and each worker re-runs the shared
    normalisation — pre-normalising in the coordinator would double-divide."""
    rng_ref = np.random.default_rng(21)
    rng_shard = np.random.default_rng(21)
    n = 3
    circuit = _random_circuit(np.random.default_rng(2), n, num_gates=6)
    spec = NoiseSpec(channel="bit-flip", strength=0.05)
    basis = list(range(2**n))
    weights = list(np.random.default_rng(3).random(len(basis)))
    ref = EnsembleExecutor(fuse=True).trajectory_basis_distribution(
        circuit, [0, 2], basis, spec, rng_ref, n_trajectories=5, weights=weights
    )
    got = ShardedExecutor(3, backend="serial").trajectory_basis_distribution(
        circuit, [0, 2], basis, spec, rng_shard, n_trajectories=5, weights=weights
    )
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])


def test_trajectory_moments_reduction_matches_rows_reduction():
    rng_a = np.random.default_rng(33)
    rng_b = np.random.default_rng(33)
    n = 3
    circuit = _random_circuit(np.random.default_rng(4), n, num_gates=6)
    spec = NoiseSpec(channel="phase-flip", strength=0.03)
    basis = list(range(2**n))
    executor = ShardedExecutor(3, backend="serial")
    rows_mean, rows_sem = executor.trajectory_basis_distribution(
        circuit, [0], basis, spec, rng_a, n_trajectories=7, reduction="rows"
    )
    mom_mean, mom_sem = executor.trajectory_basis_distribution(
        circuit, [0], basis, spec, rng_b, n_trajectories=7, reduction="moments"
    )
    np.testing.assert_allclose(mom_mean, rows_mean, atol=1e-12)
    np.testing.assert_allclose(mom_sem, rows_sem, atol=1e-12)


def test_trajectory_rejects_unknown_reduction_and_bad_weights():
    circuit = QuantumCircuit(2).h(0)
    spec = NoiseSpec(channel="depolarizing", strength=0.01)
    executor = ShardedExecutor(2, backend="serial")
    with pytest.raises(ValueError, match="reduction"):
        executor.trajectory_basis_distribution(
            circuit, [0], [0, 1], spec, np.random.default_rng(0), reduction="median"
        )
    with pytest.raises(ValueError):
        executor.trajectory_basis_distribution(
            circuit, [0], [0, 1], spec, np.random.default_rng(0), weights=[1.0]
        )


# ---------------------------------------------------------------------------
# Construction and identity
# ---------------------------------------------------------------------------


def test_sharded_executor_validates_construction():
    with pytest.raises(ValueError):
        ShardedExecutor(0)
    for backend in ("mpi", "device"):
        with pytest.raises(ValueError):
            ShardedExecutor(2, backend=backend)
    assert SHARD_BACKENDS == CPU_BACKENDS


def test_cpu_executor_identity_and_close():
    executor = ShardedExecutor(2, backend="serial")
    assert (executor.num_shards, executor.backend) == (2, "serial")
    executor.close()  # documented no-op; must not raise


def test_gate_plan_is_computed_once_by_the_coordinator():
    rng = np.random.default_rng(8)
    circuit = _random_circuit(rng, 3, num_gates=12)
    executor = ShardedExecutor(2, backend="serial")
    plan = executor.gate_plan(circuit)
    assert len(plan) < circuit.num_gates  # fusion actually engaged
    # Passing the precomputed plan gives the same bytes as recomputing it.
    basis = list(range(8))
    assert np.array_equal(
        executor.basis_ensemble_distribution(circuit, [0], basis, plan=plan),
        executor.basis_ensemble_distribution(circuit, [0], basis),
    )


# ---------------------------------------------------------------------------
# Pool lifecycle
# ---------------------------------------------------------------------------


def test_shard_pools_are_cached_and_shutdown_is_idempotent():
    pool_a = get_shard_pool("thread", 2)
    pool_b = get_shard_pool("thread", 2)
    assert pool_a is pool_b
    assert get_shard_pool("thread", 3) is not pool_a
    with pytest.raises(ValueError):
        get_shard_pool("serial", 2)
    shutdown_shard_pools()
    shutdown_shard_pools()  # idempotent
    # Pools recreate on demand after shutdown.
    fresh = get_shard_pool("thread", 2)
    assert fresh is not pool_a
    shutdown_shard_pools()


# ---------------------------------------------------------------------------
# Once-per-shard IR shipping (worker-side fingerprint cache)
# ---------------------------------------------------------------------------


def test_repeated_process_requests_ship_ir_once_and_stay_bit_identical():
    """After the first request the coordinator sends only the fingerprint;
    the resident worker cache must reproduce the exact same bytes."""
    rng = np.random.default_rng(31)
    n = 4
    circuit = _random_circuit(rng, n, num_gates=10)
    basis = list(range(2**n))
    reference = EnsembleExecutor(fuse=True, column_block=4).basis_ensemble_distribution(
        circuit, [0, 1], basis
    )
    executor = ShardedExecutor(2, backend="process", column_block=4)
    pool = get_shard_pool("process", 2)
    first = executor.basis_ensemble_distribution(circuit, [0, 1], basis)
    assert executor._ensemble_ir_key(circuit) in sharding._shipped_ir_keys(pool)
    second = executor.basis_ensemble_distribution(circuit, [0, 1], basis)  # key-only send
    assert np.array_equal(first, reference)
    assert np.array_equal(second, reference)
    shutdown_shard_pools()


def test_process_ensemble_recovers_from_worker_cache_miss():
    """Pretend the plan was already shipped (it was not): every worker
    answers with the miss sentinel and the coordinator resends with IR."""
    rng = np.random.default_rng(32)
    n = 4
    circuit = _random_circuit(rng, n, num_gates=10)
    basis = list(range(2**n))
    reference = EnsembleExecutor(fuse=True, column_block=4).basis_ensemble_distribution(
        circuit, [0, 1], basis
    )
    shutdown_shard_pools()  # fresh pool: worker caches are empty
    executor = ShardedExecutor(2, backend="process", column_block=4)
    pool = get_shard_pool("process", 2)
    sharding._shipped_ir_keys(pool).add(executor._ensemble_ir_key(circuit))
    result = executor.basis_ensemble_distribution(circuit, [0, 1], basis)
    assert np.array_equal(result, reference)
    shutdown_shard_pools()


def test_process_trajectory_recovers_from_worker_cache_miss():
    rng = np.random.default_rng(33)
    n = 3
    circuit = _random_circuit(rng, n, num_gates=6)
    basis = list(range(2**n))
    spec = NoiseSpec(channel="depolarizing", strength=0.02)
    reference = EnsembleExecutor(fuse=False).trajectory_basis_distribution(
        circuit, [0], basis, spec, np.random.default_rng(7), n_trajectories=4
    )
    shutdown_shard_pools()
    executor = ShardedExecutor(2, backend="process")
    pool = get_shard_pool("process", 2)
    sharding._shipped_ir_keys(pool).add(executor._trajectory_ir_key(circuit))
    mean, sem = executor.trajectory_basis_distribution(
        circuit, [0], basis, spec, np.random.default_rng(7), n_trajectories=4
    )
    assert np.array_equal(mean, reference[0])
    assert np.array_equal(sem, reference[1])
    shutdown_shard_pools()


def test_worker_ir_cache_is_bounded():
    sharding._WORKER_IR_CACHE.clear()
    for index in range(sharding._WORKER_IR_CAPACITY + 3):
        sharding._worker_ir_put(f"plan:{index}", object())
    assert len(sharding._WORKER_IR_CACHE) == sharding._WORKER_IR_CAPACITY
    # FIFO: the oldest keys were evicted, the newest survive.
    assert "plan:0" not in sharding._WORKER_IR_CACHE
    assert f"plan:{sharding._WORKER_IR_CAPACITY + 2}" in sharding._WORKER_IR_CACHE
    sharding._WORKER_IR_CACHE.clear()
