"""``repro fleet serve``: a long-running capture inbox with live metrics.

The serve loop watches a directory the way a print spooler watches a
queue: every poll it re-plans the fleet, ingests whatever files are new
(or have changed — the seen-set is keyed ``(path, mtime_ns, size)``, the
same token the header-probe cache validates against), and folds the new
accumulators into the running fleet total in arrival order.  Each
capture's ``fleet.*`` metrics land in the telemetry registry as its row
comes back from the corpus walker, and a :class:`ThreadingHTTPServer`
renders that registry through the PR 5 Prometheus exporter at
``/metrics`` the whole time.

Shutdown is a contract, not an accident: SIGINT or SIGTERM mid-ingest
means workers drain the in-flight capture (they ignore SIGINT; the
parent owns the signal), the final merged fleet summary is printed to
stdout, and the process exits 0.  ``--max-polls`` bounds the loop for
CI smoke runs that cannot send signals portably.
"""

from __future__ import annotations

import functools
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.summary import SummaryAccumulator
from repro.fleet.ingest import (
    CaptureReport,
    FleetPlan,
    ingest_fleet,
    merge_fleet,
    plan_fleet,
    register_fleet_metrics,
    resolve_jobs,
)
from repro.instrument.namefile import NameTable
from repro.telemetry import TELEMETRY
from repro.telemetry.export import to_prometheus

#: Default seconds between inbox rescans.
DEFAULT_POLL_S = 1.0


class _MetricsHandler(BaseHTTPRequestHandler):
    """``GET /metrics``: render the server's metrics and expose them."""

    server: "MetricsHTTPServer"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path not in ("/", "/metrics"):
            self.send_error(404, "only /metrics lives here")
            return
        body = self.server.render().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        # Scrapes are routine; keep stderr for the serve loop's own lines.
        pass


class MetricsHTTPServer(ThreadingHTTPServer):
    """A `/metrics` endpoint around any Prometheus-text render callable.

    The shared scrape plumbing of ``repro fleet serve`` and ``repro live
    analyze``: bind (``port=0`` picks a free one, read it back from
    :attr:`port`), :meth:`start` a daemon thread, point Prometheus at
    ``/metrics``.  Renders are serialised behind a lock because a
    callable may flush shared state (the live accumulator snapshot)
    before formatting.
    """

    daemon_threads = True

    def __init__(
        self,
        render: Callable[[], str],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "metrics",
    ) -> None:
        super().__init__((host, port), _MetricsHandler)
        self._render = render
        self._render_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self.serve_forever, name=name, daemon=True
        )

    @property
    def port(self) -> int:
        return self.server_address[1]

    def render(self) -> str:
        with self._render_lock:
            return self._render()

    def start(self) -> "MetricsHTTPServer":
        self._thread.start()
        return self

    def close(self) -> None:
        self.shutdown()
        self.server_close()


class FleetServer:
    """The inbox watcher: poll, ingest new captures, publish metrics.

    Drive it with :meth:`run` (installs signal handlers, loops until
    stopped) or poke :meth:`poll_once` directly from tests.  The merged
    summary available from :meth:`merged` at any point is the
    deterministic fold of every capture ingested so far, in arrival
    order (plan order within one poll).
    """

    def __init__(
        self,
        root: str,
        names: NameTable,
        *,
        jobs: int = 1,
        salvage: bool = False,
        port: int = 0,
        poll_s: float = DEFAULT_POLL_S,
        max_polls: Optional[int] = None,
        log: Callable[[str], None] = lambda line: None,
    ) -> None:
        self.root = root
        self.names = names
        self.jobs = resolve_jobs(jobs)
        self.salvage = salvage
        self.poll_s = poll_s
        self.max_polls = max_polls
        self.log = log
        self.reports: List[CaptureReport] = []
        self._seen: Dict[str, Tuple[int, int]] = {}
        self._shards: List[Tuple[int, Optional[SummaryAccumulator]]] = []
        self._sequence = 0
        self._stop = threading.Event()
        # Telemetry must be live for the exporter to have anything to
        # say; a serve process exists to be scraped, so enable it.
        TELEMETRY.enable()
        register_fleet_metrics()
        self._http = MetricsHTTPServer(
            functools.partial(to_prometheus, TELEMETRY),
            port=port,
            name="fleet-metrics",
        )
        self.port = self._http.port

    # -- lifecycle -------------------------------------------------------------

    def stop(self, *_signal_args: object) -> None:
        """Request a graceful exit (signal-handler compatible)."""
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def close(self) -> None:
        self._http.close()

    # -- the loop --------------------------------------------------------------

    def _fresh_captures(self, plan: FleetPlan) -> FleetPlan:
        """The sub-plan of files not yet ingested (or changed since)."""
        fresh = []
        for capture in plan.captures:
            try:
                st = os.stat(capture.path)
            except OSError:
                continue
            token = (st.st_mtime_ns, st.st_size)
            if self._seen.get(capture.path) == token:
                continue
            self._seen[capture.path] = token
            fresh.append(capture)
        # Re-index the sub-plan 0..n-1: ingest_fleet merges by these
        # indices, and arrival order (sequence below) keeps the global
        # fold deterministic across polls.
        reindexed = tuple(
            type(capture)(i, capture.path, capture.meta, capture.probe_error)
            for i, capture in enumerate(fresh)
        )
        return FleetPlan(root=plan.root, captures=reindexed)

    def poll_once(self) -> int:
        """One inbox scan; returns how many new captures were ingested."""
        plan = self._fresh_captures(plan_fleet(self.root))
        if not len(plan):
            return 0
        result = ingest_fleet(
            plan,
            self.names,
            jobs=self.jobs,
            salvage=self.salvage,
        )
        for report in result.reports:
            self.reports.append(report)
            self.log(
                f"fleet serve: [{report.status}] {report.path} "
                f"({report.records} records)"
            )
        # Stash the per-poll merged accumulator under the next arrival
        # sequence number; the final summary folds these in order.
        self._shards.append((self._sequence, result.accumulator))
        self._sequence += 1
        return len(plan)

    def merged(self) -> Optional[SummaryAccumulator]:
        """The deterministic fold of everything ingested so far."""
        return merge_fleet(self.names, list(self._shards))

    def final_summary(self, *, limit: Optional[int] = 12) -> str:
        merged = self.merged()
        ingested = sum(1 for r in self.reports if r.ok)
        failed = len(self.reports) - ingested
        lines = [
            f"fleet serve: {len(self.reports)} capture(s) from {self.root} "
            f"(ingested={ingested} failed={failed})",
        ]
        if merged is not None:
            lines.append(merged.summary().format(limit=limit))
        else:
            lines.append("(no captures contributed events)")
        return "\n".join(lines)

    def run(self) -> int:
        """Serve until signalled; returns the process exit code (0)."""
        previous_int = signal.signal(signal.SIGINT, self.stop)
        previous_term = signal.signal(signal.SIGTERM, self.stop)
        self._http.start()
        self.log(
            f"fleet serve: watching {self.root} on "
            f"http://127.0.0.1:{self.port}/metrics "
            f"(jobs={self.jobs}, poll={self.poll_s}s)"
        )
        polls = 0
        try:
            while not self.stopping:
                self.poll_once()
                polls += 1
                if self.max_polls is not None and polls >= self.max_polls:
                    self.log(
                        f"fleet serve: --max-polls {self.max_polls} reached"
                    )
                    break
                # Sleep in small slices so a signal turns into an exit
                # within ~100ms instead of a full poll interval.
                deadline = time.monotonic() + self.poll_s
                while not self.stopping and time.monotonic() < deadline:
                    time.sleep(min(0.1, self.poll_s))
        finally:
            signal.signal(signal.SIGINT, previous_int)
            signal.signal(signal.SIGTERM, previous_term)
            self.close()
        return 0
