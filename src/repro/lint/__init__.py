"""proflint — static verification of the tag→trigger→capture chain.

McRae's pipeline silently produces garbage when its invariants break: a
duplicated tag in the name/tag file, an entry trigger with no matching
exit on some return path, a ``_ProfileBase`` that lands outside the
remapped ISA window — every one of them corrupts all downstream reports
without a single exception being raised.  ``proflint`` checks those
properties *statically*, before (or instead of) a run:

1. :mod:`repro.lint.namefile_lint` — the name/tag file artifacts;
2. :mod:`repro.lint.ast_lint` — the kernel source (Python ``ast``):
   enter/leave and spl*/splx discipline on every return path;
3. :mod:`repro.lint.stream_lint` — raw/decoded capture files, and the
   stream faults (missing end-of-stream trailer, trailer CRC or count
   disagreement) of an open-ended capture the strict reader rejects;
4. :mod:`repro.lint.link_lint` — ``_ProfileBase`` resolution against the
   live bus map;
5. :mod:`repro.lint.telemetry_lint` — the profiler's own telemetry
   (unclosed spans, metric-name collisions);
6. :mod:`repro.lint.fleet_lint` — fleet ingestion plans and results
   (empty corpora, failed captures, mixed counter geometries);
7. :mod:`repro.lint.coverage_lint` — profile coverage of a capture
   corpus (dead instrumentation, blind spots, redundant workloads);
8. :mod:`repro.lint.db_lint` — profile-database integrity (schema
   drift, orphan rows, label collisions).

Every finding is a :class:`~repro.lint.diagnostics.Diagnostic` with a
stable ``P0xx``-style code and a severity; :mod:`repro.lint.runner`
orchestrates the passes and renders text or JSON reports with
CI-friendly exit codes (``python -m repro lint``).
"""
