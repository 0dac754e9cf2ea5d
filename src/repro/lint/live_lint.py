"""Pass 9 — open-ended (live wire) capture streams: the P8xx family.

The live wire form trades the header's authoritative count and CRC32
for an end-of-stream trailer, which moves the failure modes: a producer
killed mid-stream leaves no trailer at all (P801), wire corruption
shows up as a trailer CRC disagreement (P802), and a stream that
carries a different number of records than its trailer declares was cut
short or padded (P803).

:func:`lint_live_stream` inspects a finished stream *file* (a FIFO
capture teed to disk, an inbox drop) without raising.  It frames
nothing itself: it codes the faults the capture reader of
:mod:`repro.profiler.upload` records on the stream, the faults the
strict readers raise while a consumer drains it, so ``lint`` and
``capture doctor`` name each with the same text and code.

Ordinary backpatched-header captures are out of scope by design: the
stream pass (P2xx) owns them, and this pass reports nothing on them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.lint.diagnostics import LintReport
from repro.lint.stream_lint import STREAM_DEFECT_CODES, lint_capture_defects
from repro.profiler.upload import read_capture_meta, salvage_capture


def lint_live_stream(
    source: Union[str, Path],
    report: Optional[LintReport] = None,
) -> LintReport:
    """Code the stream faults of one open-ended capture file, non-raising.

    Emits nothing for non-streamed captures (the P2xx pass owns those)
    and nothing for unreadable/malformed headers (ditto: P200/P209 are
    already on the report when the passes run chained).
    """
    report = report if report is not None else LintReport()
    try:
        if not read_capture_meta(source).streamed:
            return report
        defects = salvage_capture(source).defects
    except (OSError, ValueError):
        return report
    return lint_capture_defects(
        [d for d in defects if STREAM_DEFECT_CODES.get(d.kind, "").startswith("P8")],
        source=str(source),
        report=report,
        streamed=True,
    )
