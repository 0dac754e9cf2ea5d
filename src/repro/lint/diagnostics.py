"""Diagnostic codes, severities and the report container.

Codes are stable API: scripts grep for them, tests assert them, and the
JSON reporter emits them verbatim.  The numbering mirrors the pass
structure — ``P0xx`` name/tag file, ``P1xx`` kernel source, ``P2xx``
capture stream, ``P3xx`` link/bus, ``P4xx`` telemetry, ``P5xx`` fleet
ingestion, ``P6xx`` profile coverage, ``P7xx`` profile database,
``P8xx`` live wire streams — so a code alone tells you which stage of
the tag→trigger→capture chain is broken.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterable, Iterator, Optional


class Severity(enum.Enum):
    """How bad a finding is for the downstream reports."""

    #: The capture/analysis chain is corrupt; reports cannot be trusted.
    ERROR = "error"
    #: Suspicious but survivable (often a capture-window truncation).
    WARNING = "warning"
    #: Worth knowing; no action needed.
    INFO = "info"


#: code -> (default severity, one-line title).  The single source of
#: truth for the diagnostic-code table in the README.
CODE_TABLE: dict[str, tuple[Severity, str]] = {
    # -- P0xx: name/tag file ------------------------------------------------
    "P001": (Severity.ERROR, "conflicting entries for one function name"),
    "P002": (Severity.ERROR, "tag value owned by two entries"),
    "P003": (Severity.ERROR, "entry tag breaks even-entry/odd-exit pairing"),
    "P004": (Severity.ERROR, "modifiers '!' and '=' combined on one tag"),
    "P005": (Severity.ERROR, "tag value outside the 16-bit tag space"),
    "P006": (Severity.WARNING, "16-bit tag space nearly exhausted"),
    "P007": (Severity.ERROR, "malformed name-file line"),
    "P008": (Severity.WARNING, "more than one context-switch (!) entry"),
    "P009": (Severity.WARNING, "tag dangles: no instrumented function uses it"),
    "P010": (Severity.ERROR, "instrumented function missing from name file"),
    # -- P1xx: kernel source ------------------------------------------------
    "P101": (Severity.ERROR, "enter() without leave() on some exit path"),
    "P102": (Severity.ERROR, "spl raise with no restoring splx/spl0"),
    "P103": (Severity.WARNING, "return path leaves a raised spl unrestored"),
    "P104": (Severity.WARNING, "leave() without a matching open enter()"),
    # -- P2xx: capture stream -----------------------------------------------
    "P200": (Severity.ERROR, "capture file unreadable or truncated"),
    "P201": (Severity.WARNING, "frames still open at end of capture"),
    "P202": (Severity.ERROR, "24-bit timer regression between records"),
    "P203": (Severity.ERROR, "captured tag is in no name file"),
    "P204": (Severity.WARNING, "trace RAM full or overflowed: run tail missing"),
    "P205": (Severity.ERROR, "kstack desync: exit does not match open frame"),
    "P206": (Severity.ERROR, "interrupt nesting deeper than priority levels"),
    "P207": (Severity.WARNING, "context-switch exit with no open swtch frame"),
    "P208": (Severity.INFO, "legacy MPF1 capture: metadata defaulted to stock"),
    "P209": (Severity.ERROR, "capture header truncated or malformed"),
    "P210": (Severity.ERROR, "record stream CRC32 disagrees with header"),
    "P211": (Severity.WARNING, "trailing partial record dropped by salvage"),
    "P212": (Severity.WARNING, "header record count disagrees with stream"),
    "P213": (Severity.ERROR, "capture magic corrupt; format resynchronised"),
    # -- P3xx: link / bus map -----------------------------------------------
    "P301": (Severity.ERROR, "EPROM base outside the ISA hole"),
    "P302": (Severity.ERROR, "_ProfileBase resolves to no mapped bus region"),
    "P303": (Severity.ERROR, "EPROM window has no read tap (board not seated)"),
    "P304": (Severity.ERROR, "16-bit tag space spills past the mapped window"),
    "P305": (Severity.ERROR, "two-pass link layouts disagree"),
    "P306": (Severity.WARNING, "kernel instrumented but no Profiler attached"),
    # -- P4xx: telemetry ------------------------------------------------------
    "P401": (Severity.WARNING, "telemetry span opened but never closed"),
    "P403": (Severity.WARNING, "metric names collide after Prometheus sanitisation"),
    "P404": (Severity.WARNING, "telemetry span records dropped (buffer full)"),
    # -- P5xx: fleet ingestion -----------------------------------------------
    "P501": (Severity.WARNING, "fleet plan matched no capture files"),
    "P502": (Severity.ERROR, "capture failed to ingest (nothing recoverable)"),
    "P503": (Severity.WARNING, "fleet mixes counter geometries across captures"),
    "P504": (Severity.WARNING, "capture label duplicated across the fleet"),
    "P505": (Severity.INFO, "capture auto-salvaged during fleet ingest"),
    "P506": (Severity.ERROR, "fleet root missing or not a directory"),
    # -- P6xx: profile coverage (static reachability x corpus observation) --
    "P601": (Severity.WARNING, "instrumented function statically unreachable"),
    "P602": (Severity.WARNING, "reachable function never observed in corpus"),
    "P603": (Severity.INFO, "workload contributes no unique tags"),
    "P604": (Severity.ERROR, "namefile tag absent from the call graph"),
    "P605": (Severity.ERROR, "capture unusable for coverage accounting"),
    # -- P7xx: profile corpus database ---------------------------------------
    "P701": (Severity.ERROR, "profile database schema version drift"),
    "P702": (Severity.ERROR, "function rows orphaned from any run"),
    "P703": (Severity.WARNING, "run label reused across workloads"),
    "P704": (Severity.WARNING, "ingested run has no function rows"),
    "P705": (Severity.INFO, "label has a single run (no noise estimate)"),
    # -- P8xx: live wire streams ----------------------------------------------
    "P801": (Severity.ERROR, "open-ended capture missing its end-of-stream trailer"),
    "P802": (Severity.ERROR, "stream trailer CRC32 disagrees with the records"),
    "P803": (Severity.ERROR, "drained record count disagrees with the trailer"),
}


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code, a location, and the story.

    ``source`` names the artifact (a file path, ``<kernel-ast>``,
    ``<link>`` …); ``line`` is a 1-based source line for text artifacts
    and ``index`` a 0-based record number for capture streams — each is
    ``None`` when it does not apply.
    """

    code: str
    message: str
    source: str = ""
    line: Optional[int] = None
    index: Optional[int] = None
    severity: Severity = dataclasses.field(default=Severity.ERROR)

    def __post_init__(self) -> None:
        if self.code not in CODE_TABLE:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @classmethod
    def build(
        cls,
        code: str,
        message: str,
        source: str = "",
        line: Optional[int] = None,
        index: Optional[int] = None,
    ) -> "Diagnostic":
        """Construct with the code's default severity from the table."""
        severity, _ = CODE_TABLE[code]
        return cls(
            code=code,
            message=message,
            source=source,
            line=line,
            index=index,
            severity=severity,
        )

    @property
    def title(self) -> str:
        """The code's one-line title from the table."""
        return CODE_TABLE[self.code][1]

    def location(self) -> str:
        """Human-readable ``source:line`` / ``source[record]`` position."""
        if self.line is not None:
            return f"{self.source}:{self.line}"
        if self.index is not None:
            return f"{self.source}[{self.index}]"
        return self.source

    def format(self) -> str:
        """One report line: ``source:line: error P001: message``."""
        where = self.location()
        prefix = f"{where}: " if where else ""
        return f"{prefix}{self.severity.value} {self.code}: {self.message}"


class LintReport:
    """An ordered collection of diagnostics from one or more passes."""

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()) -> None:
        self._diagnostics: list[Diagnostic] = list(diagnostics)

    def __len__(self) -> int:
        return len(self._diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self._diagnostics)

    def __getitem__(self, index: int) -> Diagnostic:
        return self._diagnostics[index]

    def add(
        self,
        code: str,
        message: str,
        source: str = "",
        line: Optional[int] = None,
        index: Optional[int] = None,
    ) -> Diagnostic:
        """Append a diagnostic built with its default severity."""
        diagnostic = Diagnostic.build(
            code, message, source=source, line=line, index=index
        )
        self._diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, other: Iterable[Diagnostic]) -> "LintReport":
        self._diagnostics.extend(other)
        return self

    @property
    def diagnostics(self) -> tuple[Diagnostic, ...]:
        return tuple(self._diagnostics)

    def codes(self) -> tuple[str, ...]:
        """Every code present, in emission order (with duplicates)."""
        return tuple(d.code for d in self._diagnostics)

    @property
    def error_count(self) -> int:
        return sum(1 for d in self._diagnostics if d.severity is Severity.ERROR)

    @property
    def warning_count(self) -> int:
        return sum(1 for d in self._diagnostics if d.severity is Severity.WARNING)

    @property
    def info_count(self) -> int:
        return sum(1 for d in self._diagnostics if d.severity is Severity.INFO)

    @property
    def ok(self) -> bool:
        """True when nothing error-severity was found."""
        return self.error_count == 0

    @property
    def exit_code(self) -> int:
        """CI convention: 0 clean (warnings allowed), 1 any error."""
        return 0 if self.ok else 1
