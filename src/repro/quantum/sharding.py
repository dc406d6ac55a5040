"""Sharded execution of the ensemble engine: the batch axis across workers.

The two hot loops of the QTDA pipeline are embarrassingly parallel along one
axis each: the ``ensemble`` route evolves ``B = 2^q`` independent basis-state
columns, and the ``trajectory`` route repeats ``T`` independent stochastic
unravellings.  This module splits those axes across a pool of workers — CPU
processes or threads — while staying **bit-identical** to the unsharded run:

* *Ensemble route.*  The engine evolves ensembles in fixed column blocks
  (:meth:`~repro.quantum.engine.EnsembleExecutor.evolution_block` — pinned
  because GEMM results are width-sensitive at the ulp level), and shards are
  cut **along those block boundaries**, so every evolution runs at exactly
  the width the unsharded executor would use.  Workers return per-member
  marginal matrices; the coordinator reassembles the full ``(out_dim, B)``
  matrix and replays the unsharded executor's own block-by-block weighted
  contraction, so every floating-point operation happens in the same order
  on the same bytes.
* *Trajectory route.*  Per-trajectory seeds are derived up front from the
  estimator RNG (:func:`~repro.quantum.engine.derive_trajectory_seeds`);
  workers compute their seed slice's rows and the coordinator stacks them in
  trajectory order before the shared mean/SEM reduction.  A bounded-memory
  alternative merges per-shard ``(count, mean, M2)`` moments with the exact
  Chan/Welford update (:func:`merge_moments`) instead of shipping rows.

Worker payloads are the objects' existing serialisable forms: circuits and
fused gate plans pickle as plain dataclasses, noise goes over as the
:class:`~repro.quantum.channels.NoiseSpec` wire dict.  Process pools use the
spawn context (fork-safety with BLAS threads) and are cached per
``(backend, workers)`` for the life of the process — a service handling many
requests pays pool startup once (:func:`get_shard_pool` /
:func:`shutdown_shard_pools`).

IR is shipped **once per shard**, not once per request: process workers keep
a fingerprint-keyed cache of the gate plans / circuits they have executed,
so repeated requests against the same circuit send only the fingerprint and
the shard's index range (a few hundred bytes instead of megabytes of gate
matrices).  A worker that has not yet seen the fingerprint — pools outlive
executors and tasks are not assigned round-robin — answers with a cache-miss
sentinel and the coordinator resends that one shard with the IR attached.
"""

from __future__ import annotations

import multiprocessing
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.quantum.channels import NoiseSpec
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.engine import (
    DEFAULT_MAX_FUSE_QUBITS,
    DEFAULT_MEMORY_BUDGET_BYTES,
    EnsembleExecutor,
    derive_trajectory_seeds,
    trajectory_mean_and_sem,
    _normalised_weights,
)

#: Worker-pool flavours a :class:`ShardedExecutor` can run on.  ``"serial"``
#: executes shards in-process (the determinism reference), ``"thread"`` uses
#: a thread pool (BLAS releases the GIL inside the wide tensordots) and
#: ``"process"`` a spawn-context process pool.
SHARD_BACKENDS = ("serial", "thread", "process")

#: Reduction modes for the sharded trajectory route: ``"rows"`` ships every
#: per-trajectory distribution back (bit-identical to the serial reduction),
#: ``"moments"`` merges per-shard Welford moments (O(out_dim) per shard
#: regardless of trajectory count; equal up to float rounding).
TRAJECTORY_REDUCTIONS = ("rows", "moments")


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """A contiguous partition of ``total`` items into per-shard index ranges."""

    total: int
    bounds: Tuple[Tuple[int, int], ...]

    @classmethod
    def balanced(cls, total: int, num_shards: int) -> "ShardPlan":
        """Split ``total`` items into at most ``num_shards`` near-equal ranges.

        The first ``total % shards`` shards take one extra item; the shard
        count is clamped to ``total`` so no shard is ever empty.
        """
        total = int(total)
        if total < 1:
            raise ValueError("total must be >= 1")
        num_shards = int(num_shards)
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        shards = min(num_shards, total)
        base, extra = divmod(total, shards)
        bounds = []
        start = 0
        for index in range(shards):
            stop = start + base + (1 if index < extra else 0)
            bounds.append((start, stop))
            start = stop
        return cls(total=total, bounds=tuple(bounds))

    @property
    def num_shards(self) -> int:
        return len(self.bounds)

    def slices(self) -> Tuple[slice, ...]:
        return tuple(slice(start, stop) for start, stop in self.bounds)


# ---------------------------------------------------------------------------
# Exact parallel variance merging (Chan / Welford)
# ---------------------------------------------------------------------------

#: ``(count, mean, M2)`` running moments of a set of distribution rows.
Moments = Tuple[int, np.ndarray, np.ndarray]


def moments_from_rows(rows: np.ndarray) -> Moments:
    """Two-pass ``(count, mean, M2)`` moments of a ``(T, out_dim)`` row stack."""
    rows = np.asarray(rows, dtype=float)
    count = rows.shape[0]
    mean = rows.mean(axis=0)
    m2 = ((rows - mean) ** 2).sum(axis=0)
    return count, mean, m2


def merge_moments(a: Moments, b: Moments) -> Moments:
    """Chan et al.'s exact pairwise update for partitioned ``(count, mean, M2)``.

    ``M2`` is the sum of squared deviations from the mean, so the sample
    variance is ``M2 / (count - 1)``; merging two partitions' moments gives
    the same mean and M2 (up to float rounding) as computing them over the
    concatenated rows — the standard parallel-variance identity:

    ``M2 = M2_a + M2_b + delta² · n_a·n_b/n``  with ``delta = mean_b - mean_a``.
    """
    count_a, mean_a, m2_a = a
    count_b, mean_b, m2_b = b
    if count_a == 0:
        return b
    if count_b == 0:
        return a
    count = count_a + count_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (count_b / count)
    m2 = m2_a + m2_b + delta**2 * (count_a * count_b / count)
    return count, mean, m2


def moments_mean_and_sem(moments: Moments) -> Tuple[np.ndarray, np.ndarray]:
    """``(mean, std(ddof=1)/sqrt(count))`` from running moments (zeros at count 1)."""
    count, mean, m2 = moments
    if count > 1:
        sem = np.sqrt(m2 / (count - 1)) / np.sqrt(count)
    else:
        sem = np.zeros_like(mean)
    return mean, sem


# ---------------------------------------------------------------------------
# Worker functions (module level: spawn-context process pools pickle these
# by reference, payloads by value)
# ---------------------------------------------------------------------------

#: Per-worker-process IR cache: fingerprint key -> gate plan / circuit.  The
#: gate matrices dominate the payload (megabytes vs hundreds of bytes for the
#: rest), so keeping them resident turns repeated requests into near-zero-copy
#: dispatches.  Bounded FIFO so a long-lived pool serving many distinct
#: circuits cannot grow without limit.
_WORKER_IR_CACHE: Dict[str, object] = {}
_WORKER_IR_CAPACITY = 8


def _worker_ir_put(key: str, value) -> None:
    if key not in _WORKER_IR_CACHE and len(_WORKER_IR_CACHE) >= _WORKER_IR_CAPACITY:
        _WORKER_IR_CACHE.pop(next(iter(_WORKER_IR_CACHE)))
    _WORKER_IR_CACHE[key] = value


#: Coordinator-side record of which IR fingerprints have been shipped into a
#: given pool at least once (weakly keyed: a recreated pool starts fresh).
#: "Shipped once" is an optimisation, not a guarantee that *every* worker has
#: the IR — the cache-miss retry in ``_run_shards`` is the correctness path.
_SHIPPED_IR: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _shipped_ir_keys(pool) -> set:
    keys = _SHIPPED_IR.get(pool)
    if keys is None:
        keys = set()
        _SHIPPED_IR[pool] = keys
    return keys


def _with_ir(payload: tuple, slot: int, value) -> tuple:
    return payload[:slot] + (value,) + payload[slot + 1 :]


def _member_marginals_from_plan(
    num_qubits: int,
    plan,
    qubits: Sequence[int],
    basis_block: Sequence[int],
    memory_budget_bytes: int,
    column_block: int,
) -> np.ndarray:
    """One ensemble shard: ``(out_dim, len(basis_block))`` member marginals.

    The fused gate plan was computed once by the coordinator and shipped with
    the shard, so workers never re-run the fusion pass.  The shard starts on
    an evolution-block boundary (the coordinator cuts it there) and the same
    pinned block width is used here, so every evolution runs at exactly the
    width the unsharded executor would use.
    """
    executor = EnsembleExecutor(
        fuse=False,
        memory_budget_bytes=memory_budget_bytes,
        column_block=column_block,
        xp=np,
    )
    prepared = executor._prepare(plan)
    chunk = executor.evolution_block(num_qubits)
    block = list(basis_block)
    parts = []
    for start in range(0, len(block), chunk):
        sub = block[start : start + chunk]
        parts.append(executor._member_marginal_block(sub, prepared, num_qubits, qubits))
    return np.hstack(parts)


def _ensemble_shard_worker(payload) -> Optional[np.ndarray]:
    """Process-pool entry point for one ensemble shard (CPU, NumPy).

    ``plan`` is ``None`` when the coordinator believes this pool already
    holds the IR; a worker that missed it returns ``None`` (never an array)
    and the coordinator resends the shard with the plan attached.
    """
    num_qubits, ir_key, plan, qubits, basis_block, memory_budget_bytes, column_block = payload
    if plan is not None:
        _worker_ir_put(ir_key, plan)
    else:
        plan = _WORKER_IR_CACHE.get(ir_key)
        if plan is None:
            return None
    return _member_marginals_from_plan(
        num_qubits, plan, qubits, basis_block, memory_budget_bytes, column_block
    )


def _trajectory_shard_worker(payload) -> Optional[np.ndarray]:
    """Process-pool entry point for one trajectory shard: ``(T_shard, out_dim)`` rows.

    The circuit rides the same once-per-shard IR cache as the ensemble plan
    (``None`` circuit -> cache lookup -> ``None`` result on a miss).
    """
    ir_key, circuit, qubits, basis_states, spec_dict, seeds, weights, memory_budget_bytes = payload
    if circuit is not None:
        _worker_ir_put(ir_key, circuit)
    else:
        circuit = _WORKER_IR_CACHE.get(ir_key)
        if circuit is None:
            return None
    executor = EnsembleExecutor(fuse=False, memory_budget_bytes=memory_budget_bytes, xp=np)
    return executor.trajectory_rows(
        circuit,
        qubits,
        basis_states,
        NoiseSpec.from_dict(spec_dict),
        seeds,
        weights,
    )


# ---------------------------------------------------------------------------
# Shared worker pools
# ---------------------------------------------------------------------------

_POOLS: Dict[Tuple[str, int], object] = {}
_POOLS_LOCK = threading.Lock()


def get_shard_pool(backend: str, workers: int):
    """The process-wide pool for ``(backend, workers)``, created on first use.

    Pools are shared across every :class:`ShardedExecutor` (and every
    :class:`~repro.core.api.QTDAService` request), so repeated sharded runs
    pay interpreter spawn-up once.
    """
    if backend not in ("thread", "process"):
        raise ValueError(f"no pool for shard backend {backend!r}")
    key = (str(backend), int(workers))
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            if backend == "process":
                pool = ProcessPoolExecutor(
                    max_workers=key[1], mp_context=multiprocessing.get_context("spawn")
                )
            else:
                pool = ThreadPoolExecutor(
                    max_workers=key[1], thread_name_prefix=f"qtda-shard-{backend}"
                )
            _POOLS[key] = pool
    return pool


def shutdown_shard_pools() -> None:
    """Shut down every cached shard pool (idempotent; pools recreate on demand)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


# ---------------------------------------------------------------------------
# The sharded executor
# ---------------------------------------------------------------------------


class ShardedExecutor:
    """Splits :class:`~repro.quantum.engine.EnsembleExecutor` work across shards.

    Parameters
    ----------
    num_shards:
        Number of shards the batch / trajectory axis is split into (clamped
        per call so no shard is empty).
    backend:
        One of :data:`SHARD_BACKENDS`; ``"process"`` is the CPU scaling path.
    fuse, max_fuse_qubits, memory_budget_bytes, column_block:
        Forwarded to the underlying engine semantics: the coordinator runs
        the fusion pass once and ships the plan; each shard evolves at the
        same pinned column-block width under the same memory budget, and the
        fusion window stays pinned at ``max_fuse_qubits`` on every shard so
        plans are identical everywhere.
    """

    def __init__(
        self,
        num_shards: int,
        backend: str = "process",
        fuse: bool = True,
        max_fuse_qubits: int = DEFAULT_MAX_FUSE_QUBITS,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
        column_block: Optional[int] = None,
    ):
        self.num_shards = int(num_shards)
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if backend not in SHARD_BACKENDS:
            raise ValueError(f"backend must be one of {SHARD_BACKENDS}, got {backend!r}")
        self.backend = str(backend)
        self.fuse = bool(fuse)
        self.max_fuse_qubits = int(max_fuse_qubits)
        self.memory_budget_bytes = int(memory_budget_bytes)
        # The reference executor defines the coordinator-side reduction: the
        # chunk structure it would use unsharded is replayed over the
        # assembled marginal matrix so results match byte for byte.
        self._reference = EnsembleExecutor(
            fuse=self.fuse,
            max_fuse_qubits=self.max_fuse_qubits,
            memory_budget_bytes=self.memory_budget_bytes,
            column_block=column_block,
            xp=np,
        )
        self.column_block = self._reference.column_block

    def close(self) -> None:
        """Release executor-held resources.

        Worker pools are deliberately *not* owned by individual executors —
        they are process-wide and shared across requests (see
        :func:`get_shard_pool`); call :func:`shutdown_shard_pools` to tear
        those down (``QTDAService.close`` does).
        """

    def gate_plan(self, circuit: QuantumCircuit):
        """The (possibly fused) gate plan shards will execute — computed once
        in the coordinator and shipped once per shard (workers cache it by
        the key below; later requests send only the key)."""
        return self._reference.gate_plan(circuit)

    def _ensemble_ir_key(self, circuit: QuantumCircuit) -> str:
        """Cache key of the *plan* a worker would execute: the plan is a pure
        function of the circuit content and the fusion settings."""
        return f"plan:{circuit.fingerprint()}:fuse={int(self.fuse)}:window={self.max_fuse_qubits}"

    @staticmethod
    def _trajectory_ir_key(circuit: QuantumCircuit) -> str:
        """Cache key of the raw circuit the trajectory workers replay
        (trajectory execution never fuses, so content alone identifies it)."""
        return f"circuit:{circuit.fingerprint()}"

    # -- shard dispatch --------------------------------------------------------
    def _run_shards(self, worker, payloads, ir=None):
        """Run one payload per shard; results in shard order.

        ``ir=(key, value, slot)`` activates once-per-shard IR shipping on the
        process backend: payloads arrive here with the IR attached at
        ``slot``; if ``key`` has already been shipped into the pool the slot
        is blanked to ``None`` before pickling, and any worker that answers
        with the cache-miss sentinel (``None``) gets its shard resent with
        the IR attached.  Serial/thread shards share the coordinator's
        memory, so they always see the attached IR at zero serialisation cost.
        """
        if self.backend == "serial":
            return [worker(payload) for payload in payloads]
        pool = get_shard_pool(self.backend, self.num_shards)
        if self.backend == "process" and ir is not None:
            ir_key, ir_value, slot = ir
            shipped = _shipped_ir_keys(pool)
            if ir_key in shipped:
                payloads = [_with_ir(payload, slot, None) for payload in payloads]
            futures = [pool.submit(worker, payload) for payload in payloads]
            results = [future.result() for future in futures]
            for index, result in enumerate(results):
                if result is None:
                    resend = _with_ir(payloads[index], slot, ir_value)
                    results[index] = pool.submit(worker, resend).result()
            shipped.add(ir_key)
            return results
        futures = [pool.submit(worker, payload) for payload in payloads]
        return [future.result() for future in futures]

    # -- ensemble route --------------------------------------------------------
    def basis_ensemble_member_marginals(
        self,
        circuit: QuantumCircuit,
        qubits: Sequence[int],
        basis_states: Sequence[int],
        plan=None,
    ) -> np.ndarray:
        """Sharded ``(out_dim, B)`` member marginals (bit-identical to unsharded).

        Shards are cut along evolution-block boundaries: the unsharded
        executor evolves the batch in pinned-width blocks, so distributing
        whole blocks (never splitting one) keeps every GEMM at exactly the
        unsharded width.  The effective shard count is therefore clamped to
        the number of blocks — a batch narrower than one block runs on a
        single shard.
        """
        n = circuit.num_qubits
        basis = self._reference._validated_basis(circuit, basis_states)
        if plan is None:
            plan = self._reference.gate_plan(circuit)
        ir_key = self._ensemble_ir_key(circuit)
        width = self._reference.evolution_block(n)
        num_blocks = -(-len(basis) // width)
        block_plan = ShardPlan.balanced(num_blocks, self.num_shards)
        payloads = [
            (
                n,
                ir_key,
                plan,
                tuple(int(q) for q in qubits),
                basis[start * width : min(stop * width, len(basis))],
                self.memory_budget_bytes,
                self.column_block,
            )
            for start, stop in block_plan.bounds
        ]
        blocks = self._run_shards(_ensemble_shard_worker, payloads, ir=(ir_key, plan, 2))
        return np.hstack(blocks)

    def basis_ensemble_distribution(
        self,
        circuit: QuantumCircuit,
        qubits: Sequence[int],
        basis_states: Sequence[int],
        weights: Optional[Sequence[float]] = None,
        plan=None,
    ) -> np.ndarray:
        """Sharded readout distribution, bit-identical to the unsharded executor.

        Shards compute per-member marginal matrices at the pinned evolution
        width; the coordinator reassembles them and replays the unsharded
        executor's block-by-block weighted contraction — same block
        boundaries, same GEMV operands, same left-fold accumulation order —
        so the bytes match
        :meth:`EnsembleExecutor.basis_ensemble_distribution` exactly.
        """
        n = circuit.num_qubits
        basis = self._reference._validated_basis(circuit, basis_states)
        w = _normalised_weights(weights, len(basis))
        marginals = self.basis_ensemble_member_marginals(circuit, qubits, basis, plan=plan)
        chunk = self._reference.evolution_block(n)
        total: Optional[np.ndarray] = None
        for start in range(0, len(basis), chunk):
            stop = min(start + chunk, len(basis))
            partial = np.ascontiguousarray(marginals[:, start:stop]) @ w[start:stop]
            total = partial if total is None else total + partial
        assert total is not None
        return total / total.sum()

    # -- trajectory route ------------------------------------------------------
    def trajectory_basis_distribution(
        self,
        circuit: QuantumCircuit,
        qubits: Sequence[int],
        basis_states: Sequence[int],
        noise_spec: NoiseSpec,
        rng: np.random.Generator,
        n_trajectories: int = 8,
        weights: Optional[Sequence[float]] = None,
        reduction: str = "rows",
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sharded trajectory mean and standard error.

        Seeds are derived exactly as the unsharded path derives them
        (:func:`~repro.quantum.engine.derive_trajectory_seeds` on ``rng``),
        then split contiguously across shards; each worker runs its
        trajectories independently.  ``reduction="rows"`` stacks the rows in
        trajectory order and applies the shared mean/SEM reduction —
        bit-identical to :meth:`EnsembleExecutor.trajectory_basis_distribution`
        with the same ``rng``.  ``reduction="moments"`` merges per-shard
        Welford moments with :func:`merge_moments` (bounded shard-to-
        coordinator traffic; equal up to float rounding).
        """
        if reduction not in TRAJECTORY_REDUCTIONS:
            raise ValueError(
                f"reduction must be one of {TRAJECTORY_REDUCTIONS}, got {reduction!r}"
            )
        basis = self._reference._validated_basis(circuit, basis_states)
        # Validate eagerly (fast failure in the coordinator) but ship the RAW
        # weights: every worker re-runs the same normalisation the unsharded
        # executor runs, so the per-row float operations are byte-identical.
        _normalised_weights(weights, len(basis))
        raw_weights = None if weights is None else tuple(float(x) for x in weights)
        seeds = derive_trajectory_seeds(rng, n_trajectories)
        shard_plan = ShardPlan.balanced(len(seeds), self.num_shards)
        spec_dict = noise_spec.as_dict()
        ir_key = self._trajectory_ir_key(circuit)
        payloads = [
            (
                ir_key,
                circuit,
                tuple(int(q) for q in qubits),
                basis,
                spec_dict,
                seeds[start:stop],
                raw_weights,
                self.memory_budget_bytes,
            )
            for start, stop in shard_plan.bounds
        ]
        row_blocks = self._run_shards(_trajectory_shard_worker, payloads, ir=(ir_key, circuit, 1))
        if reduction == "moments":
            merged = (0, np.zeros(1), np.zeros(1))
            for block in row_blocks:
                merged = merge_moments(merged, moments_from_rows(block))
            return moments_mean_and_sem(merged)
        return trajectory_mean_and_sem(np.vstack(row_blocks))

