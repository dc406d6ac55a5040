"""Caller-side HTTP benchmark of the QTDA service.

Run from the repository root::

    python3 perfbench/perf_run.py --workload cloud-exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/perf_run.py --workload all --seed 1 --seconds 20 --trace 0

Each run starts a default ``QTDAServer`` in a child process
(``perf_server.py``, BLAS pinned to one thread) and drives it over loopback
HTTP from this process with a closed loop of 2 keep-alive connections
(``perf_client.py``).  Inputs come from ``--seed`` alone
(``perf_workloads.py``), and every response is checked.

* ``--trace 0`` reports the end-to-end metrics: ``setup_s`` (spawn to the
  end of a warm-up pass on inputs outside the measured set, median of 3
  spawns), the median and p90 client round trip of successful requests,
  throughput, the server's own CPU per request and its peak RSS.
* ``--trace 1`` runs one traced server instead (``perf_layers.py``) and
  reports the per-layer metrics, per attempted request.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable table and the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perf_client import CONNECTIONS, ClosedLoopClient, percentile
from perf_layers import LAYER_MAP, ROOT_SPAN, SPAN_TARGETS
from perf_tracer import Span, totals_by_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Spawns per run whose set-up time is measured; the last one is measured on.
SETUP_REPEATS = 3
#: Hard cap on one timed phase, whatever the request floor.
MAX_TIMED_SECONDS = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "server_cpu_ms_per_req": "ms",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The run cannot produce a result (the program is missing or broken)."""


# ---------------------------------------------------------------------------
# Server child process
# ---------------------------------------------------------------------------


class ServerProcess:
    """``perf_server.py`` in a child process, spoken to over its stdin/stdout."""

    def __init__(self, trace: bool):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = "1"
        command = [sys.executable, str(HERE / "perf_server.py")] + (["--trace"] if trace else [])
        self.process = subprocess.Popen(
            command,
            cwd=str(ROOT),
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.port = int(self._read()["port"])

    def _read(self) -> Dict[str, Any]:
        line = self.process.stdout.readline()
        if not line:
            raise BenchmarkError(f"server process exited with code {self.process.wait()}")
        return json.loads(line)

    def command(self, name: str) -> Dict[str, Any]:
        self.process.stdin.write(name + "\n")
        self.process.stdin.flush()
        return self._read()

    def dump(self) -> Tuple[Dict[str, Any], List[list]]:
        counters = self.command("dump")
        spans = []
        while True:
            item = self._read()
            if isinstance(item, dict):
                return counters, spans
            spans.append(item)

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.write("quit\n")
                self.process.stdin.close()
                self.process.wait(timeout=20)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        else:
            self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def _start(workload, trace: bool):
    """Spawn a server, warm it up; returns ``(server, client, seconds taken)``."""
    start = time.perf_counter()
    server = ServerProcess(trace)
    client = None
    try:
        client = ClosedLoopClient("127.0.0.1", server.port)
        warm = client.run([(doc.route, doc.body) for doc in workload.warmup])
        failed = [o for o in warm.outcomes if o is None or o[0] != 200]
        if failed:
            raise BenchmarkError(f"warm-up failed: {failed[0]!r}")
        return server, client, time.perf_counter() - start
    except BaseException:
        if client is not None:
            client.close()
        server.close()
        raise


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _cache_delta(before: Optional[Dict[str, int]], after: Optional[Dict[str, int]]) -> Tuple[int, int]:
    if not before or not after:
        return 0, 0
    return after["hits"] - before["hits"], after["misses"] - before["misses"]


def end_to_end_metrics(setups: Sequence[float], rtts_s: Sequence[float], loop_wall_s: float,
                       completed: int, before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    rtts_ms = [r * 1e3 for r in rtts_s]
    try:
        p90: Optional[float] = percentile(rtts_ms, 90)
    except ValueError:
        p90 = None  # too few successes: main() refuses the run
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(rtts_ms),
        "latency_p90_ms": p90,
        "throughput_rps": len(rtts_ms) / loop_wall_s,
        "server_cpu_ms_per_req": (after["cpu_s"] - before["cpu_s"]) * 1e3 / completed,
        "peak_rss_mb": after["maxrss_mb"],
    }
    return {name: value for name, value in metrics.items() if value is not None}


def layer_metrics(workload, sent: Sequence[int], responses: Sequence[Optional[dict]],
                  rtts_s: Sequence[float], spans: Sequence[list],
                  before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of a traced run, per attempted request."""
    attempted = len(sent)
    totals = totals_by_name(Span(*span) for span in spans)
    metrics: Dict[str, float] = {}

    server_calls, _, server_s = totals.get(ROOT_SPAN, (0, 0.0, 0.0))
    metrics["serve.transport_ms"] = (sum(rtts_s) - server_s) * 1e3 / attempted
    metrics["serve.transport_ms.calls"] = len(rtts_s) / attempted
    metrics["serve.server_ms"] = server_s * 1e3 / attempted
    metrics["serve.server_ms.calls"] = server_calls / attempted
    for name in SPAN_TARGETS:
        calls, self_s, _ = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}_ms"] = self_s * 1e3 / attempted
        metrics[f"{name}_ms.calls"] = calls / attempted

    stats0, stats1 = before["stats"], after["stats"]
    served = stats1["requests"]["total"] - stats0["requests"]["total"]
    coalesced = sum(r.get("coalesced", 0) for r in stats1["requests"]["by_route"].values()) - sum(
        r.get("coalesced", 0) for r in stats0["requests"]["by_route"].values()
    )
    queue0, queue1 = stats0["queue"], stats1["queue"]
    rejected = sum(queue1[k] - queue0[k] for k in ("rejected_quota", "rejected_capacity", "rejected_draining"))
    metrics["serve.coalesced_ratio"] = _ratio(coalesced, served)
    metrics["serve.rejected_ratio"] = _ratio(rejected, served)
    service0, service1 = stats0["service"], stats1["service"]
    metrics["api.result_cache_hit_ratio"] = _ratio(
        service1["result_cache_hits"] - service0["result_cache_hits"], attempted
    )
    spectrum_hits = service1["spectrum_hits"] - service0["spectrum_hits"]
    spectrum_misses = service1["spectrum_misses"] - service0["spectrum_misses"]
    metrics["hamiltonian.spectrum_hit_ratio"] = _ratio(spectrum_hits, spectrum_hits + spectrum_misses)
    fusion = _cache_delta(before["fusion_cache"], after["fusion_cache"])
    ptm = _cache_delta(before["ptm_cache"], after["ptm_cache"])
    metrics["fusion.cache_hit_ratio"] = _ratio(fusion[0] + ptm[0], sum(fusion) + sum(ptm))

    k_simplices = [workload.documents[d].num_k_simplices for d in sent]
    k_simplices = [k for k in k_simplices if k is not None]
    metrics["tda.k_simplices"] = statistics.fmean(k_simplices) if k_simplices else 0.0
    fused_ops = 0
    state_mb: List[float] = []
    windows = full_builds = 0
    for data in responses:
        if data is None:
            continue
        payload, provenance = data["payload"], data["provenance"]
        fused_ops += provenance.get("fused_gates") or 0
        if provenance.get("engine_route") == "ptm":
            qubits = payload["precision_qubits"] + payload["num_system_qubits"]
            state_mb.append(8 * 4**qubits / 2**20)
        stats = payload.get("engine_stats")
        if stats and stats.get("windows", 0) > windows:  # cumulative per session
            windows, full_builds = stats["windows"], stats.get("full_builds", 0)
    metrics["fusion.fused_ops"] = fused_ops / attempted
    metrics["ptm.state_mb"] = statistics.fmean(state_mb) if state_mb else 0.0
    metrics["batch.stream_incremental_ratio"] = _ratio(windows - full_builds, windows)
    metrics["trace.latency_p50_ms"] = statistics.median(rtts_s) * 1e3
    return metrics


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def provenance(seed: int) -> Dict[str, Any]:
    import numpy
    import scipy

    blas = None
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a git repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "connections": CONNECTIONS,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        min_requests: Optional[int] = None, setup_repeats: int = SETUP_REPEATS) -> Dict[str, Any]:
    """One benchmark run; returns the result object (plus a ``report`` block)."""
    from perf_workloads import build, check_responses

    workload = build(workload_name, seed, seconds, min_requests)
    requests = [(workload.documents[d].route, workload.documents[d].body) for d in workload.schedule]

    setups: List[float] = []
    repeats = 1 if trace else setup_repeats
    for repeat in range(repeats):
        server, client, took = _start(workload, trace)
        setups.append(took)
        if repeat < repeats - 1:
            client.close()
            server.close()
    try:
        before = server.command("mark")
        loop = client.run(requests, seconds, workload.min_requests, MAX_TIMED_SECONDS)
        after, spans = server.dump()
    finally:
        client.close()
        server.close()

    sent = loop.attempted
    outcomes = [loop.outcomes[i] for i in sent]
    reasons = check_responses(
        workload, [(workload.schedule[i], *loop.outcomes[i]) for i in sent]
    )
    ok = [reason is None for reason in reasons]
    rtts_s = [outcome[1] for outcome, good in zip(outcomes, ok) if good]
    if not rtts_s:
        raise BenchmarkError(f"{workload_name}: no request succeeded; first failure: {reasons[0]}")
    completed = sum(1 for outcome in outcomes if outcome[0] is not None)
    wrong = sum(1 for outcome, reason in zip(outcomes, reasons) if outcome[0] == 200 and reason)
    failed = sum(1 for reason in reasons if reason)

    if trace:
        responses = [json.loads(o[2]) if good else None for o, good in zip(outcomes, ok)]
        metrics = layer_metrics(workload, [workload.schedule[i] for i in sent], responses,
                                rtts_s, spans, before, after)
    else:
        metrics = end_to_end_metrics(setups, rtts_s, loop.wall_s, completed, before, after)
    return {
        "correct": wrong == 0,
        "attempted": len(sent),
        "failed": failed,
        "metrics": metrics,
        "report": {
            "workload": workload_name,
            "failed_ratio": failed / len(sent),
            "first_failure": next((r for r in reasons if r), None),
            "timed_s": loop.wall_s,
        },
    }


def metric_unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".calls"):
        return "count/req"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def _print_table(result: Dict[str, Any]) -> None:
    report = result["report"]
    print(f"workload {report['workload']}: attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_ratio {report['failed_ratio']:.4g} (1), timed phase {report['timed_s']:.2f} s")
    if report["first_failure"]:
        print(f"  first failure: {report['first_failure']}")
    for name, value in result["metrics"].items():
        unit = metric_unit(name)
        moves = LAYER_MAP.get(name)
        hint = f"  -> {moves[0]} (mostly {moves[1]})" if moves else ""
        print(f"  {name:36s} {value:14.6g} {unit}{hint}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Caller-side HTTP benchmark of the QTDA service.")
    parser.add_argument("--workload", required=True, help="cloud-exact, circuit-noisy, service-mix or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf_run: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from perf_workloads import WORKLOADS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {WORKLOADS} or all")
    print("provenance " + json.dumps(provenance(args.seed)))
    results = []
    try:
        for name in names:
            result = run(name, args.seed, args.seconds, bool(args.trace))
            _print_table(result)
            missing = [m for m in END_TO_END_UNITS if not args.trace and m not in result["metrics"]]
            if missing:
                raise BenchmarkError(f"{name}: no {', '.join(missing)} (p90 needs 100 successes)")
            results.append(result)
    except BenchmarkError as exc:
        print(f"perf_run: {exc}", file=sys.stderr)
        return 1
    # With --workload all, metric names are prefixed "<workload>/".
    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['report']['workload']}/{name}" if prefix else name): {"value": value, "unit": metric_unit(name)}
            for r in results
            for name, value in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
