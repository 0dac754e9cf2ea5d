"""LIVE — a million events through the concurrent capture→analyze pipe.

The live pipeline's claim is that the consumer keeps up with the wire:
a producer thread streams an open-ended MPF2 capture into one end of a
socketpair while :class:`repro.live.analyzer.LiveAnalyzer` drains the
other end concurrently, folding batches into rolling windows as they
arrive.  This benchmark pushes one million synthetic records (the same
deterministic scheduling-block stream the SCALE benchmark uses) through
that pipe and asserts:

* **throughput** — the consumer sustains at least
  ``REPRO_LIVE_MIN_EVENTS_PER_SEC`` events/sec end to end (default
  100k/s; the measured rate is typically well past 1M/s);
* **bounded lag** — the peak batch lag (arrival-to-fold, the
  ``live.lag_ms.peak`` gauge) stays under
  ``REPRO_LIVE_MAX_LAG_MS`` (default 2000 ms) even with the producer
  running flat out ahead of the consumer;
* **identity** — the drained live summary is byte-identical to the
  summary of the same stream folded in memory (``summarize_capture``).

Results land in ``BENCH_live.json`` (``REPRO_LIVE_BENCH_OUT``) for the
EXPERIMENTS log and the CI live-smoke job.

Environment knobs::

    REPRO_LIVE_EVENTS              stream length (default 1000000)
    REPRO_LIVE_MIN_EVENTS_PER_SEC  asserted throughput floor (default 100000)
    REPRO_LIVE_MAX_LAG_MS          asserted peak-lag ceiling (default 2000)
    REPRO_LIVE_BENCH_OUT           where to write BENCH_live.json
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import warnings

from paperbench import once

from bench_streaming_scale import SCALE_NAMES, synthetic_stream
from stream_helpers import capture_from_records
from repro.analysis.summary import summarize_capture
from repro.atomicio import write_text_atomic
from repro.live.analyzer import LiveAnalyzer
from repro.profiler.upload import CaptureStreamWriter
from repro.telemetry import TELEMETRY


def live_events() -> int:
    return int(os.environ.get("REPRO_LIVE_EVENTS", "1000000"))


def live_min_rate() -> float:
    return float(os.environ.get("REPRO_LIVE_MIN_EVENTS_PER_SEC", "100000"))


def live_max_lag_ms() -> float:
    return float(os.environ.get("REPRO_LIVE_MAX_LAG_MS", "2000"))


def run_live_pipe(total_events: int) -> dict:
    """Producer thread → socketpair → LiveAnalyzer; measured end to end."""
    left, right = socket.socketpair()

    def produce() -> None:
        sink = left.makefile("wb")
        try:
            with CaptureStreamWriter(sink, label="bench: live") as writer:
                batch = []
                for record in synthetic_stream(total_events):
                    batch.append(record)
                    if len(batch) >= 8192:
                        writer.write_records(batch)
                        batch.clear()
                if batch:
                    writer.write_records(batch)
        finally:
            sink.close()
            left.close()  # EOF: the open-ended reader validates the trailer

    TELEMETRY.reset()
    TELEMETRY.enable()
    try:
        analyzer = LiveAnalyzer(SCALE_NAMES, window_s=0.25)
        producer = threading.Thread(target=produce, name="bench-live-producer")
        started = time.perf_counter()
        producer.start()
        source = right.makefile("rb")
        live_summary = analyzer.consume(source)
        wall_s = time.perf_counter() - started
        producer.join()
        source.close()
        right.close()
        gauges = {
            sample.name: sample.value
            for sample in TELEMETRY.samples()
            if sample.name.startswith("live.")
        }
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()

    batch_summary = summarize_capture(
        capture_from_records(synthetic_stream(total_events), SCALE_NAMES)
    )
    return {
        "events": total_events,
        "wall_s": round(wall_s, 4),
        "events_per_sec": round(total_events / wall_s, 1),
        "windows": analyzer.windows,
        "batches": analyzer.batches,
        "bytes_total": analyzer.bytes_total,
        "peak_lag_ms": round(gauges.get("live.lag_ms.peak", 0.0), 3),
        "final_lag_ms": round(gauges.get("live.lag_ms", 0.0), 3),
        "byte_identical": live_summary.format() == batch_summary.format(),
    }


def test_live_pipe_sustains_million_events(benchmark, comparison):
    total = live_events()
    result = once(benchmark, run_live_pipe, total)

    rate_floor = live_min_rate()
    lag_ceiling = live_max_lag_ms()

    comparison.row("stream length", str(total), result["events"])
    comparison.row(
        "sustained rate",
        f">= {rate_floor:,.0f}/s",
        f"{result['events_per_sec']:,.0f}/s",
    )
    comparison.row(
        "peak consumer lag",
        f"<= {lag_ceiling:.0f} ms",
        f"{result['peak_lag_ms']:.1f} ms",
    )
    comparison.row("rolling windows closed", "--", result["windows"])
    comparison.row("live vs batch summary", "byte-identical", result["byte_identical"])

    out_path = os.environ.get("REPRO_LIVE_BENCH_OUT", "BENCH_live.json")
    document = {
        "benchmark": "live_pipe_sustained",
        "cpu_count": os.cpu_count(),
        "rate_floor": rate_floor,
        "lag_ceiling_ms": lag_ceiling,
        **result,
    }
    write_text_atomic(out_path, json.dumps(document, indent=1))

    assert result["byte_identical"], (
        "drained live summary diverged from the batch report"
    )
    if result["events_per_sec"] < 1_000_000:
        warnings.warn(
            f"live pipe sustained {result['events_per_sec']:,.0f} events/s, "
            f"below the 1M/s target (cpu_count={os.cpu_count()})",
            stacklevel=1,
        )
    assert result["events_per_sec"] >= rate_floor, (
        f"live pipe sustained {result['events_per_sec']:,.0f} events/s, below "
        f"the {rate_floor:,.0f}/s floor (REPRO_LIVE_MIN_EVENTS_PER_SEC)"
    )
    assert result["peak_lag_ms"] <= lag_ceiling, (
        f"peak consumer lag {result['peak_lag_ms']:.1f} ms exceeds the "
        f"{lag_ceiling:.0f} ms ceiling (REPRO_LIVE_MAX_LAG_MS)"
    )
