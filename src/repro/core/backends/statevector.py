"""The ``statevector`` backend — the explicit Fig. 6 circuit.

Builds the full QTDA circuit with exact controlled powers of ``U = exp(iH)``
and executes it over one of three routes (``QTDAConfig.circuit_engine``,
DESIGN.md §11):

* ``ensemble`` (the default for noise-free runs) — the maximally mixed input
  is simulated by evolving the ``2^q`` system basis states as *one batched
  ``(2^(t+q), B)`` statevector array* on the execution engine
  (:mod:`repro.quantum.engine`): every gate is a single ``tensordot`` across
  the whole batch, adjacent gates are fused, the batch is chunked to a
  memory budget, and the readout is the batch-averaged marginal.
  Mathematically identical to evolving ``|0><0| ⊗ I/2^q`` but
  ``O(2^(t+q) · 2^q)`` flops per gate on a flat array instead of a squared
  density matrix, with no purification qubits.
* ``ptm`` (the default for noisy runs up to ``PTM_AUTO_QUBIT_THRESHOLD``
  total qubits) — the circuit and its noise channels are lowered to
  Pauli-transfer matrices and fused into single superoperators
  (:mod:`repro.quantum.ptm`, DESIGN.md §16); a single real ``4^(t+q)``
  Pauli vector evolves through the fused program, so the result is *exact*
  (agrees with ``density`` to floating point) at gate-fusion speed.
* ``trajectory`` (the default for noisy runs above the PTM threshold) — the
  same batched ensemble, unravelled through the configured noise channels by
  stochastic Kraus-branch sampling (one branch per ensemble member after
  each gate), repeated ``n_trajectories`` times; the mean estimates the
  density result and the spread becomes ``p_zero_std``.
* ``purified`` — the Fig. 2 construction: auxiliary qubits and Bell pairs,
  statevector simulation on ``t + 2q`` qubits (legacy route,
  bit-identity-pinned).
* ``density`` — density-matrix evolution of ``|0><0| ⊗ I/2^q`` on ``t + q``
  qubits, gate by gate (legacy route, bit-identity-pinned; the exact Kraus
  contraction).  Only an explicit ``circuit_engine="density"`` selects it:
  it is the reference the ``ptm`` and ``trajectory`` routes are checked
  against.

NISQ runs are this backend with a noise configuration (``noise_channel`` and
friends, resolved to one :class:`~repro.quantum.channels.NoiseSpec` that
every noisy route places the same way).
This module also hosts the circuit-execution plumbing shared with the
``trotter`` backend, which differs only in how ``U`` is synthesised.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.backends.base import BackendResult, EstimationProblem, register_backend
from repro.core.qtda_circuit import QTDACircuitSpec, qtda_circuit
from repro.quantum.channels import NoiseSpec, apply_readout_error
from repro.quantum.density_matrix import DensityMatrix, DensityMatrixSimulator
from repro.quantum.engine import EnsembleExecutor
from repro.quantum.ptm import PTMExecutor
from repro.quantum.sharding import ShardedExecutor
from repro.quantum.statevector import StatevectorSimulator
from repro.utils.rng import as_rng

#: Concrete circuit-execution routes (``"auto"`` resolves to one of these).
CIRCUIT_ROUTES = ("ensemble", "trajectory", "ptm", "purified", "density")

#: Largest ``t + q`` for which ``auto`` prefers the exact ``ptm`` route for
#: declarative noise.  The PTM state is a real ``4^(t+q)`` vector (8 bytes an
#: entry: 134 MB at 12 qubits, 2 GB at 14), so above the threshold ``auto``
#: falls back to stochastic trajectories, whose state stays ``2^(t+q)``.
PTM_AUTO_QUBIT_THRESHOLD = 12


def resolve_circuit_route(config, total_qubits: Optional[int] = None) -> str:
    """Resolve ``config.circuit_engine`` to a concrete route.

    Gate noise (``config.resolved_noise_spec().has_gate_noise``) excludes the
    pure-state routes (an *explicit* ``ensemble`` or ``purified`` choice
    combined with noise raises instead of silently dropping either).
    ``"auto"`` resolves gate noise to the exact ``ptm`` route while the
    register fits the Pauli-vector budget (``total_qubits`` is the circuit's
    ``t + q``; ``None`` — callers that cannot know the size — counts as
    fitting), and to the stochastic ``trajectory`` route above
    :data:`PTM_AUTO_QUBIT_THRESHOLD`; it never picks ``density``.
    Noise-free runs resolve ``"auto"`` to ``ensemble``; a zero-strength
    channel counts as noise-free.
    """
    engine = config.circuit_engine
    if engine not in ("auto",) + CIRCUIT_ROUTES:
        raise ValueError(
            f"circuit_engine must be one of {('auto',) + CIRCUIT_ROUTES}, got {engine!r}"
        )
    if config.resolved_noise_spec().has_gate_noise:
        if engine in ("ensemble", "purified"):
            raise ValueError(
                f"circuit_engine={engine!r} cannot simulate noise channels; "
                "use 'ptm', 'trajectory', 'density' (or 'auto')"
            )
        if engine != "auto":
            return engine
        if total_qubits is not None and total_qubits > PTM_AUTO_QUBIT_THRESHOLD:
            return "trajectory"
        return "ptm"
    if engine == "auto":
        return "ensemble"
    return engine


def mixed_initial_state(spec: QTDACircuitSpec) -> DensityMatrix:
    """``|0><0|`` on the precision register, ``I/2^q`` on the system register."""
    rho_precision = DensityMatrix.zero_state(spec.precision_qubits).matrix
    rho_system = DensityMatrix.maximally_mixed(spec.system_qubits).matrix
    return DensityMatrix(np.kron(rho_precision, rho_system))


def _resolve_engine_executor(config, fuse: bool = True):
    """The engine executor a circuit route should run on.

    Returns ``(executor, shard_fields)`` where ``shard_fields`` holds the
    ``shards``/``shard_backend`` provenance (empty for the plain
    single-executor path).  ``config.shards > 1`` selects a
    :class:`~repro.quantum.sharding.ShardedExecutor` over the configured
    backend — sharded results are bit-identical to the unsharded executor's,
    so routing through here never changes numbers, only throughput.
    """
    shards = int(getattr(config, "shards", 1) or 1)
    if shards <= 1:
        return EnsembleExecutor(fuse=fuse), {}
    shard_backend = str(getattr(config, "shard_backend", "process"))
    executor = ShardedExecutor(shards, backend=shard_backend, fuse=fuse)
    return executor, {"shards": executor.num_shards, "shard_backend": executor.backend}


def _ensemble_route(circuit, circuit_spec: QTDACircuitSpec, config):
    """Batched-statevector execution of the mixed-state circuit.

    The ``2^q`` system basis states form the ensemble (full-register basis
    index ``b`` — the precision register reads ``|0...0>``, so the indices
    coincide); the engine fuses adjacent small gates (cached per circuit
    fingerprint) and chunks the batch to its memory budget.
    """
    executor, shard_fields = _resolve_engine_executor(config)
    plan = executor.gate_plan(circuit)
    distribution = executor.basis_ensemble_distribution(
        circuit,
        qubits=list(circuit_spec.precision_register),
        basis_states=range(2**circuit_spec.system_qubits),
        plan=plan,
    )
    return distribution, {"fused_gates": len(plan), **shard_fields}


def _trajectory_route(
    circuit, circuit_spec: QTDACircuitSpec, config, spec: NoiseSpec, rng: np.random.Generator
):
    """Stochastic Kraus-trajectory execution of the noisy mixed-state circuit.

    Both synthesis styles emit the same gate *sequence* as the legacy density
    route, so ``spec.channels_for_gate`` places noise at identical points and
    the trajectory mean converges to the density result.  Fusion is bypassed
    inside the executor for the same reason, and readout error is applied
    per trajectory row there.  The spread over ``config.n_trajectories``
    repetitions surfaces as ``p_zero_std``.
    """
    n_trajectories = int(getattr(config, "n_trajectories", 8))
    executor, shard_fields = _resolve_engine_executor(config, fuse=False)
    distribution, sem = executor.trajectory_basis_distribution(
        circuit,
        qubits=list(circuit_spec.precision_register),
        basis_states=range(2**circuit_spec.system_qubits),
        noise_spec=spec,
        rng=rng,
        n_trajectories=n_trajectories,
    )
    return distribution, {
        "p_zero_std": float(sem[0]) if n_trajectories > 1 else None,
        "n_trajectories": n_trajectories,
        "noise_spec": spec.as_dict(),
        **shard_fields,
    }


def _ptm_route(circuit, circuit_spec: QTDACircuitSpec, spec: NoiseSpec):
    """Exact noisy execution on the fused Pauli-transfer-matrix route.

    Gates and their attached noise channels are lowered to PTMs and fused
    into single superoperators (:func:`~repro.quantum.fusion.
    fuse_ptm_program`, cached per circuit+NoiseSpec fingerprint), then a
    single real ``4^(t+q)`` Pauli vector evolves through the program.  No
    sampling: the readout equals the density route's to floating point, and
    ``fused_gates`` carries the fused superoperator count.  The Pauli state
    is one column, so ``config.shards`` has no batch axis to split here —
    the route runs unsharded regardless.
    """
    executor = PTMExecutor()
    gate_spec = spec if spec.has_gate_noise else None
    program = executor.program(circuit, noise_spec=gate_spec)
    distribution = executor.qtda_distribution(
        circuit,
        precision_qubits=list(circuit_spec.precision_register),
        precision_count=circuit_spec.precision_qubits,
        system_count=circuit_spec.system_qubits,
        noise_spec=gate_spec,
        program=program,
    )
    return distribution, {"fused_gates": program.num_superops}


#: Routes that run on the execution engines; the remaining two are the legacy
#: single-simulator routes.
_ENGINE_ROUTES = ("ensemble", "trajectory", "ptm")


def circuit_backend_result(
    problem: EstimationProblem,
    config,
    synthesis: str,
    rng: Optional[np.random.Generator] = None,
) -> BackendResult:
    """Build and execute the Fig. 6 circuit, returning the readout distribution.

    The Hamiltonian and the circuit are built once per run.  The route comes
    from ``config.circuit_engine`` via :func:`resolve_circuit_route`.  Only
    the ``purified`` route carries the Fig. 2 auxiliary register; every other
    route runs ``t + q`` qubits.  Under exact synthesis the engine routes use
    spectral controlled powers (one ``eigh`` of ``H``, phases raised to
    ``2^j``), while the legacy ``purified``/``density`` routes keep the
    ``expm`` chain their bit-identity pins were captured on.  ``rng`` drives
    the trajectory route's branch sampling (falls back to a
    ``config.seed``-derived generator); a configured ``readout_error`` is
    applied to the final distribution on every route (exact per-bit
    confusion contraction).  Every route runs under one
    :class:`~repro.quantum.channels.NoiseSpec`,
    ``config.resolved_noise_spec()``.
    """
    hamiltonian = problem.dense_hamiltonian(config)
    # The auto PTM-vs-trajectory threshold needs the register size.
    total_qubits = config.precision_qubits + hamiltonian.num_qubits
    route = resolve_circuit_route(config, total_qubits=total_qubits)
    spec = config.resolved_noise_spec()
    circuit, circuit_spec = qtda_circuit(
        hamiltonian,
        precision_qubits=config.precision_qubits,
        use_purification=route == "purified",
        synthesis=synthesis,
        trotter_steps=config.trotter_steps,
        trotter_order=config.trotter_order,
        power_synthesis="spectral" if synthesis == "exact" and route in _ENGINE_ROUTES else "chain",
    )
    precision_register = list(circuit_spec.precision_register)
    fields = {}
    if route == "ensemble":
        distribution, fields = _ensemble_route(circuit, circuit_spec, config)
    elif route == "trajectory":
        if rng is None:
            rng = as_rng(getattr(config, "seed", None))
        distribution, fields = _trajectory_route(circuit, circuit_spec, config, spec, rng)
    elif route == "ptm":
        distribution, fields = _ptm_route(circuit, circuit_spec, spec)
    elif route == "density":
        final = DensityMatrixSimulator(spec).run(
            circuit, initial_state=mixed_initial_state(circuit_spec)
        )
        distribution = final.marginal_probabilities(precision_register)
    else:
        distribution = StatevectorSimulator().probabilities(circuit, qubits=precision_register)
    # Trajectory rows already carry readout error (applied per row in the engine).
    if route != "trajectory" and spec.readout_error > 0:
        distribution = apply_readout_error(distribution, spec.readout_error)
    fields.setdefault("noise_spec", None if spec.is_noiseless else spec.as_dict())
    return BackendResult(
        distribution=distribution,
        num_system_qubits=hamiltonian.num_qubits,
        lambda_max=hamiltonian.padded.lambda_max,
        engine_route=route,
        **fields,
    )


class StatevectorBackend:
    """Explicit Fig. 6 circuit with exact controlled powers of ``U``."""

    name = "statevector"
    description = "explicit Fig. 6 circuit with exact controlled powers of U (ensemble, ptm, trajectory, purified or density route)"
    prefers_sparse = False
    supported_formats = ("dense",)
    supports_noise = True

    def run(self, problem: EstimationProblem, config, rng: np.random.Generator) -> BackendResult:
        return circuit_backend_result(problem, config, "exact", rng=rng)


register_backend(StatevectorBackend.name, StatevectorBackend())
