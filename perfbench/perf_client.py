"""Closed-loop HTTP client: a fixed number of keep-alive connections, stdlib only.

Each connection sends a request and waits for the whole response before
sending the next, like the pipeline shims, the CLI and the example client
the server is written for.  The connection count is fixed (not read from the
machine) so numbers compare across machines.  The client deliberately does
not reuse ``repro.serve``'s load generator: a change to the program's client
must not change the instrument.
"""

from __future__ import annotations

import http.client
import itertools
import math
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

CONNECTIONS = 2
#: Socket timeout of one request, far above any request the workloads send.
TIMEOUT_S = 120.0
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: (status or None on a transport error, round trip in seconds, body or error text)
Outcome = Tuple[Optional[int], float, bytes]


@dataclass
class LoopResult:
    #: Outcome per attempted request, in send order (``None`` = never sent).
    outcomes: List[Optional[Outcome]]
    wall_s: float

    @property
    def attempted(self) -> List[int]:
        return [i for i, outcome in enumerate(self.outcomes) if outcome is not None]


class ClosedLoopClient:
    """``CONNECTIONS`` keep-alive HTTP/1.1 connections to one server."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._connections = [self._connect() for _ in range(CONNECTIONS)]

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=TIMEOUT_S)

    def close(self) -> None:
        for connection in self._connections:
            connection.close()

    def _send(self, slot: int, route: str, body: bytes) -> Outcome:
        connection = self._connections[slot]
        start = time.perf_counter()
        try:
            connection.request(
                "POST", f"/v1/{route}", body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            data = response.read()
            return response.status, time.perf_counter() - start, data
        except (OSError, http.client.HTTPException) as exc:
            elapsed = time.perf_counter() - start
            connection.close()
            self._connections[slot] = self._connect()
            return None, elapsed, repr(exc).encode("utf-8")

    def run(
        self,
        requests: Sequence[Tuple[str, bytes]],
        seconds: float = math.inf,
        min_requests: int = 0,
        max_seconds: float = math.inf,
    ) -> LoopResult:
        """Send ``requests`` in order until the run is over.

        A connection takes the next request unless every request was taken,
        or ``seconds`` have passed and ``min_requests`` were taken, or
        ``max_seconds`` have passed.
        """
        outcomes: List[Optional[Outcome]] = [None] * len(requests)
        tickets = itertools.count()
        start = time.perf_counter()

        def loop(slot: int) -> None:
            while True:
                elapsed = time.perf_counter() - start
                if elapsed >= max_seconds:
                    return
                index = next(tickets)
                if index >= len(requests) or (elapsed >= seconds and index >= min_requests):
                    return
                route, body = requests[index]
                outcomes[index] = self._send(slot, route, body)

        threads = [
            threading.Thread(target=loop, args=(slot,), name=f"perfbench-conn-{slot}", daemon=True)
            for slot in range(CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return LoopResult(outcomes, time.perf_counter() - start)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile, refused below ``MIN_BEYOND`` samples past it.

    The p90 of fewer than 100 samples rests on fewer than 10 values beyond it,
    so it raises ``ValueError`` instead of reporting a number.
    """
    n = len(values)
    if n == 0 or n * (100.0 - q) / 100.0 < MIN_BEYOND - 1e-9:
        raise ValueError(
            f"p{q:g} needs at least {math.ceil(MIN_BEYOND * 100 / (100 - q))} samples, got {n}"
        )
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * n) - 1)]
