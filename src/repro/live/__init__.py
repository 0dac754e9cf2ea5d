"""Live profiling: concurrent capture -> analyze over a wire.

The paper's headline claim is *real-time* hardware profiling; this
package makes the MPF2 stream boundary a real pipe.  A producer
(:mod:`repro.live.capture`) emits an open-ended MPF2 stream — sentinel
record count, end-of-stream trailer — to a pipe/FIFO/socket while
:class:`~repro.live.analyzer.LiveAnalyzer` consumes it concurrently:
columnar batches off the wire, folded straight into the streaming
accumulator, with rolling windowed summaries, live telemetry gauges, an
incremental Chrome-trace track and a Prometheus ``/metrics`` endpoint.
``repro top`` (:mod:`repro.live.top`) puts a refreshing operator view on
top.

The invariant everything here is tested against: the drained live
summary is byte-identical to batch ``repro analyze`` over the same
record stream.
"""
