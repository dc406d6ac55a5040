"""Benchmark server process: a default ``QTDAServer`` driven over stdin/stdout.

Run from the repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/perf_server.py [--trace]

It prints ``{"port": N}`` once listening, then answers one JSON line per
command read from stdin:

* ``mark`` - start of the timed phase: drops recorded spans and returns the
  process's own counters (CPU, peak RSS, ``/v1/stats``, fusion caches);
* ``dump`` - end of the timed phase: the same counters, then (traced) one
  line per recorded span and a closing ``{"end": true}`` line;
* ``quit`` - drains the server and exits.

With ``--trace`` the layer entry points of :mod:`perf_layers` are wrapped
before the server is built; without it the program runs untouched.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
from typing import Any, Dict, Optional

from perf_layers import SPAN_TARGETS
from perf_tracer import Tracer, install


def _cache_info(module_name: str, func_name: str) -> Optional[Dict[str, int]]:
    try:
        return dict(getattr(importlib.import_module(module_name), func_name)())
    except (ImportError, AttributeError):
        return None


def counters(server) -> Dict[str, Any]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        # ru_maxrss is in KiB on Linux.
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "stats": server.stats(),
        "fusion_cache": _cache_info("repro.quantum.fusion", "fusion_cache_info"),
        "ptm_cache": _cache_info("repro.quantum.fusion", "ptm_cache_info"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer: Optional[Tracer] = None
    if args.trace:
        tracer = Tracer()
        for spec in install(tracer, SPAN_TARGETS):
            print(f"perf_server: entry point {spec} not found; it reports 0 calls", file=sys.stderr)

    from repro.serve import QTDAServer, ServeConfig

    server = QTDAServer(ServeConfig(port=0)).start()
    out = sys.stdout
    try:
        out.write(json.dumps({"port": server.port}) + "\n")
        out.flush()
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                if tracer is not None:
                    tracer.clear()
                out.write(json.dumps(counters(server)) + "\n")
            elif command == "dump":
                out.write(json.dumps(counters(server)) + "\n")
                for span in tracer.spans if tracer is not None else ():
                    out.write(json.dumps(span) + "\n")
                out.write(json.dumps({"end": True}) + "\n")
            elif command == "quit":
                break
            else:
                out.write(json.dumps({"error": f"unknown command {command!r}"}) + "\n")
            out.flush()
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
