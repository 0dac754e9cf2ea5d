"""Fleet-scale capture ingestion: many MPF files as one profiling corpus.

The throughput layer on top of the single-capture machinery: one corpus
walker (:func:`~repro.fleet.ingest.read_corpus`) reads every capture
under one fault and salvage rule, optionally across a fork process
pool; the fleet folds the per-capture summaries through a deterministic
merge, and each capture's metrics come back with its result into the
telemetry registry.  ``db ingest`` and ``coverage`` walk their corpora
through the same walker.  See :mod:`repro.fleet.ingest` for the engine
and :mod:`repro.fleet.serve` for the long-running inbox watcher behind
``repro fleet serve``.
"""
