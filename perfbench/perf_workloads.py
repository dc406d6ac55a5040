"""Seeded request documents, oracles and output checks for each workload.

Every input derives from the run seed alone; the server only ever sees the
generated JSON documents.  The ground truth for an estimate is computed here,
before the timed phase, from the benchmark's own inputs: the kernel dimension
of the flag-array Laplacian of ``repro.tda``.  It is never read back from a
response.

Workloads (closed loop, 2 keep-alive connections):

* ``cloud-exact`` - 60-point noisy circles on the default ``exact`` backend
  with ``compute_exact=True``, one distinct cloud per request: the Rips
  build, the Laplacian and the ground-truth Betti number dominate, the
  quantum layers do nothing, and the result/spectrum caches only fill.
* ``circuit-noisy`` - 22-point circles (q=5, beta_1=1) on ``statevector``
  with ``circuit_engine="auto"``; 3 of 4 requests carry depolarising noise
  (the PTM route), 1 of 4 is noiseless (the ensemble route).  Per-geometry
  circuit compile work and the evolution dominate.
* ``service-mix`` - the duplicate-heavy 4:2:2:1:1 class mix of the service
  load benchmark (seeded estimates, rotating high-dimensional frames,
  classical pipeline, sweep, an ``observe`` session).  Nine in ten requests
  are result-cache hits, so the serving and API layers do nearly all work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.api import (
    EstimationRequest,
    EstimationResult,
    ObserveRequest,
    PipelineRequest,
    SweepRequest,
)
from repro.core.pipeline import PipelineConfig
from repro.datasets import HighDimStreamConfig, generate_highdim_cloud_stream
from repro.datasets.point_clouds import circle_cloud
from repro.tda.distances import pairwise_distances
from repro.tda.laplacian import laplacian_from_flag_arrays
from repro.tda.rips import flag_complex_arrays

WORKLOADS = ("cloud-exact", "circuit-noisy", "service-mix")

#: Zero-eigenvalue tolerance of the oracle (the program's default atol).
KERNEL_ATOL = 1e-8

#: Provenance fields that legitimately differ between repeats of a document.
_VOLATILE_PROVENANCE = ("wall_time_s", "cache_hits", "cache_misses", "result_cache_hit")


@dataclass
class Document:
    route: str
    body: bytes
    #: Oracle Betti number and |S_k| (estimate documents only).
    betti: Optional[int] = None
    num_k_simplices: Optional[int] = None
    #: Repeats must return the first response's payload.
    deterministic: bool = True
    #: Sample chunk of an ``observe`` document.
    observe_samples: int = 0


@dataclass
class Workload:
    documents: List[Document]
    #: Document index of each request, in send order.
    schedule: List[int]
    warmup: List[Document]
    min_requests: int


def oracle_betti(points: np.ndarray, epsilon: float, k: int, max_dimension: int) -> Tuple[int, int]:
    """``(beta_k, |S_k|)`` from the flag-array Laplacian's kernel dimension."""
    arrays = flag_complex_arrays(pairwise_distances(np.asarray(points, dtype=float)), epsilon, max_dimension)
    laplacian = laplacian_from_flag_arrays(arrays, k)
    if laplacian.shape[0] == 0:
        return 0, 0
    eigenvalues = np.linalg.eigvalsh(laplacian)
    return int(np.count_nonzero(np.abs(eigenvalues) <= KERNEL_ATOL)), int(laplacian.shape[0])


def _encode(document: Mapping[str, Any]) -> bytes:
    return json.dumps(document).encode("utf-8")


def _estimate_document(points, epsilon: float, config: Dict[str, Any], k: int = 1) -> Document:
    request = EstimationRequest(points=points, epsilon=epsilon, k=k, config=config)
    betti, num_k = oracle_betti(np.asarray(request.points), request.epsilon, k, request.max_dimension)
    return Document("estimate", _encode(request.as_dict()), betti=betti, num_k_simplices=num_k)


def _seeds(seed: int, stream: int, count: int) -> List[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


# -- cloud-exact -----------------------------------------------------------------


def _cloud_exact_document(doc_seed: int) -> Document:
    points = circle_cloud(60, noise=0.05, seed=doc_seed)
    config = {"precision_qubits": 4, "shots": 4096, "seed": doc_seed}
    return _estimate_document(points, 0.75, config)


def cloud_exact(seed: int, pool: int, min_requests: int) -> Workload:
    documents = [_cloud_exact_document(s) for s in _seeds(seed, 1, pool)]
    warmup = [_cloud_exact_document(s) for s in _seeds(seed, 101, 2)]
    return Workload(documents, list(range(pool)), warmup, min_requests)


# -- circuit-noisy ---------------------------------------------------------------


def _circuit_document(doc_seed: int, noisy: bool) -> Document:
    points = circle_cloud(22, noise=0.03, seed=doc_seed)
    config: Dict[str, Any] = {
        "precision_qubits": 4,
        "shots": 4096,
        "seed": doc_seed,
        "backend": "statevector",
        "circuit_engine": "auto",
    }
    if noisy:
        strength = float(np.random.default_rng(doc_seed).uniform(0.001, 0.01))
        config.update(noise_channel="depolarizing", noise_strength=strength)
    return _estimate_document(points, 0.5, config)


def circuit_noisy(seed: int, pool: int, min_requests: int) -> Workload:
    documents = [_circuit_document(s, noisy=i % 4 != 3) for i, s in enumerate(_seeds(seed, 2, pool))]
    warmup = [_circuit_document(s, noisy=i == 0) for i, s in enumerate(_seeds(seed, 102, 2))]
    return Workload(documents, list(range(pool)), warmup, min_requests)


# -- service-mix -----------------------------------------------------------------

#: (class, weight) in the service load benchmark's 4:2:2:1:1 proportions.
_MIX_WEIGHTS = (("estimate-duplicates", 4), ("estimate-highdim", 2), ("pipeline", 2), ("sweep", 1), ("observe", 1))


def _mix_classes(seed: int, stream: int, session: str) -> Dict[str, List[Document]]:
    seeds = iter(_seeds(seed, stream, 16))
    classical = PipelineConfig(use_quantum=False)
    duplicates = [
        _estimate_document(
            circle_cloud(12, noise=0.03, seed=next(seeds)),
            0.8,
            {"precision_qubits": 6, "shots": 4096, "seed": next(seeds)},
        )
        for _ in range(4)
    ]
    frames = generate_highdim_cloud_stream(
        6,
        HighDimStreamConfig(shape="circle", ambient_dim=6, num_points=14, noise_std=0.01),
        seed=next(seeds),
    )
    highdim_seed = next(seeds)
    highdim = [
        _estimate_document(frame, 0.6, {"precision_qubits": 5, "shots": 2048, "seed": highdim_seed})
        for frame in frames
    ]
    clouds = [circle_cloud(10, noise=0.03, seed=next(seeds)) for _ in range(3)]
    pipeline = [
        Document("pipeline", _encode(PipelineRequest(point_clouds=clouds, epsilon=0.8, pipeline=classical).as_dict())),
        Document("pipeline", _encode(PipelineRequest(point_clouds=clouds[:1], epsilon=0.9, pipeline=classical).as_dict())),
    ]
    sweep = [
        Document(
            "sweep",
            _encode(SweepRequest(point_clouds=clouds[:2], epsilons=(0.5, 0.8), pipeline=classical).as_dict()),
        )
    ]
    # A 16-sample period: every 64-sample window at stride 32 holds the same
    # values, so every emitted window must carry the same features.
    samples = np.random.default_rng(next(seeds)).uniform(-1.0, 1.0, size=16)
    observe = [
        Document(
            "observe",
            _encode(
                ObserveRequest(
                    samples=tuple(float(x) for x in samples),
                    session=session,
                    window_length=64,
                    stride=32,
                    epsilons=(0.5,),
                    pipeline=classical,
                ).as_dict()
            ),
            deterministic=False,
            observe_samples=len(samples),
        )
    ]
    return {
        "estimate-duplicates": duplicates,
        "estimate-highdim": highdim,
        "pipeline": pipeline,
        "sweep": sweep,
        "observe": observe,
    }


def service_mix(seed: int, length: int, min_requests: int) -> Workload:
    classes = _mix_classes(seed, 3, session="perfbench")
    documents: List[Document] = []
    offsets: Dict[str, Tuple[int, int]] = {}
    for name, _ in _MIX_WEIGHTS:
        offsets[name] = (len(documents), len(classes[name]))
        documents.extend(classes[name])
    weights = np.array([w for _, w in _MIX_WEIGHTS], dtype=float)
    rng = np.random.default_rng([seed, 4])
    picks = rng.choice(len(_MIX_WEIGHTS), size=length, p=weights / weights.sum())
    within = rng.random(size=length)
    schedule = []
    for pick, u in zip(picks, within):
        start, count = offsets[_MIX_WEIGHTS[pick][0]]
        schedule.append(start + int(u * count))
    warm = _mix_classes(seed, 103, session="perfbench-warmup")
    warmup = [docs[0] for docs in warm.values()]
    return Workload(documents, schedule, warmup, min_requests)


def build(name: str, seed: int, seconds: float, min_requests: Optional[int] = None) -> Workload:
    """The workload's documents for one run of ``seconds`` seconds.

    The estimate pools hold more documents than today's program serves in
    ``seconds``; a run that exhausts its pool ends early, because a repeated
    cloud would hit the result cache these workloads are meant to bypass.
    """
    if name == "cloud-exact":
        floor = 100 if min_requests is None else min_requests
        return cloud_exact(seed, max(floor, math.ceil(8 * seconds)), floor)
    if name == "circuit-noisy":
        floor = 100 if min_requests is None else min_requests
        return circuit_noisy(seed, max(floor, math.ceil(20 * seconds)), floor)
    if name == "service-mix":
        floor = 1000 if min_requests is None else min_requests
        return service_mix(seed, max(floor, math.ceil(1000 * seconds)), floor)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


# -- output checks ---------------------------------------------------------------


def _stable(data: Mapping[str, Any]) -> Dict[str, Any]:
    """A response with its timing and cache provenance dropped."""
    provenance = {k: v for k, v in data["provenance"].items() if k not in _VOLATILE_PROVENANCE}
    return {"request": data["request"], "payload": data["payload"], "provenance": provenance}


def _check_estimate(document: Document, payload: Mapping[str, Any]) -> Optional[str]:
    if payload.get("exact_betti") != document.betti:
        return f"exact_betti {payload.get('exact_betti')!r} != oracle {document.betti}"
    shots = payload.get("shots")
    counts = payload.get("counts") or {}
    if shots is not None and sum(counts.values()) != shots:
        return f"counts sum to {sum(counts.values())}, not {shots} shots"
    return None


def _check_observe(document: Document, payload: Mapping[str, Any], seen: Dict[str, Any]) -> Optional[str]:
    samples_seen = payload.get("samples_seen")
    if not isinstance(samples_seen, int) or samples_seen % document.observe_samples:
        return f"samples_seen {samples_seen!r} is not a multiple of {document.observe_samples}"
    if samples_seen in seen["samples_seen"]:
        return f"samples_seen {samples_seen} reported twice"
    seen["samples_seen"].add(samples_seen)
    windows = payload.get("windows", [])
    if payload.get("new_windows") != len(windows):
        return "new_windows does not match the windows returned"
    for window in windows:
        if seen["features"] is None:
            seen["features"] = window["features"]
        elif window["features"] != seen["features"]:
            return "a window of the periodic stream has different features"
    return None


def check_responses(
    workload: Workload, responses: Sequence[Tuple[int, Optional[int], float, bytes]]
) -> List[Optional[str]]:
    """Failure reason (or ``None``) for each ``(doc, status, rtt_s, body)``.

    A response fails on a non-200 status or transport error, on an envelope
    ``EstimationResult.validate_dict`` rejects, on a request echo that is not
    the document sent, on an ``exact_betti`` that differs from the oracle,
    and on a repeat of a deterministic document whose payload differs from
    the first response's (timing and cache provenance dropped).
    """
    first: Dict[int, Dict[str, Any]] = {}
    observe_seen: Dict[int, Dict[str, Any]] = {}
    sent: Dict[int, Any] = {}
    reasons: List[Optional[str]] = []
    for doc_index, status, _, body in responses:
        document = workload.documents[doc_index]
        if status != 200:
            reasons.append(f"status {status}" if status is not None else f"transport error {body!r}")
            continue
        try:
            data = json.loads(body)
            EstimationResult.validate_dict(data)
        except (ValueError, TypeError) as exc:  # JSONDecodeError is a ValueError
            reasons.append(f"invalid envelope: {exc}")
            continue
        if doc_index not in sent:
            sent[doc_index] = json.loads(document.body)
        if data["request"] != sent[doc_index]:
            reasons.append("request echo differs from the document sent")
            continue
        payload = data["payload"]
        if document.betti is not None:
            reason = _check_estimate(document, payload)
        elif document.observe_samples:
            seen = observe_seen.setdefault(doc_index, {"samples_seen": set(), "features": None})
            reason = _check_observe(document, payload, seen)
        else:
            reason = None
        if reason is None and document.deterministic:
            stable = _stable(data)
            if doc_index not in first:
                first[doc_index] = stable
            elif stable != first[doc_index]:
                reason = "repeat differs from the first response"
        reasons.append(reason)
    return reasons
