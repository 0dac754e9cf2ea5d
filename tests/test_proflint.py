"""Tests for proflint, the static verifier of the tag->trigger->capture
chain.

The backbone is mutation testing: start from a known-good artifact (the
shipped name files, the real kernel source, the golden captures, the
case-study link), seed one deliberate corruption per test, and assert
the *exact* diagnostic code the corruption must produce.  A linter that
merely "finds problems" is useless for CI gating; one that names them
stably can be asserted against.

The flip side is the clean-run guarantee: every checked-in golden
capture and shipped name file must lint with zero errors, and the real
kernel source must pass the AST discipline pass.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.instrument.linker import KernelLayout, layout_for
from repro.instrument.namefile import NameTable, parse_name_file
from repro.instrument.tags import MAX_TAG, TagEntry
from repro.lint.ast_lint import lint_kernel_source, lint_source_text
from repro.lint.diagnostics import CODE_TABLE, LintReport, Severity
from repro.lint.link_lint import lint_layout, lint_link
from repro.lint.namefile_lint import lint_name_file_text, lint_name_table
from repro.lint.runner import (
    LintOptions,
    lint_capture_file,
    lint_paths,
    lint_self_check,
    render_json,
    render_text,
)
from repro.lint.stream_lint import lint_records, verify_capture
from repro.profiler.ram import RawRecord
from repro.sim.bus import ISA_HOLE_START
from stream_helpers import columns_of

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_CAPTURES = sorted(GOLDEN_DIR.glob("*.mpf"))
GOLDEN_NAMES = GOLDEN_DIR / "case_study.tags"


def codes(report: LintReport) -> list[str]:
    return [diagnostic.code for diagnostic in report]


# -- pass 1: name/tag files --------------------------------------------------


class TestNamefileLint:
    def test_clean_paper_sample(self):
        report = lint_name_file_text("main/502\nswtch/600!\nMGET/1002=\n")
        assert report.ok and len(report) == 0

    def test_p001_conflicting_entries(self):
        report = lint_name_file_text("main/502\nmain/510\n")
        assert codes(report) == ["P001"]
        assert report[0].line == 2

    def test_p002_tag_value_collision(self):
        # 503 is main's exit tag; an inline claim on it collides.
        report = lint_name_file_text("main/502\nMFREE/503=\n")
        assert codes(report) == ["P002"]
        assert "main" in report[0].message

    def test_p003_odd_entry_tag(self):
        report = lint_name_file_text("broken/501\n")
        assert codes(report) == ["P003"]

    def test_p004_inline_and_context_switch(self):
        assert codes(lint_name_file_text("x/600!=\n")) == ["P004"]
        assert codes(lint_name_file_text("x/600=!\n")) == ["P004"]

    def test_p005_outside_tag_space(self):
        report = lint_name_file_text(f"huge/{MAX_TAG + 3}\n")
        assert codes(report) == ["P005"]
        assert codes(lint_name_file_text("negative/-2\n")) == ["P005"]

    def test_p006_near_exhaustion_is_warning(self):
        report = lint_name_file_text(f"last/{MAX_TAG - 1}\n")
        assert codes(report) == ["P006"]
        assert report[0].severity is Severity.WARNING
        assert report.ok  # warnings do not fail the run

    def test_p007_malformed_line(self):
        report = lint_name_file_text("no-slash-here\nf/notanumber\n")
        assert codes(report) == ["P007", "P007"]

    def test_p008_second_context_switch(self):
        report = lint_name_file_text("swtch/600!\nidle/700!\n")
        assert codes(report) == ["P008"]
        assert report[0].severity is Severity.WARNING

    def test_lint_keeps_going_past_defects(self):
        """Unlike the strict loader, the linter reports every defect in
        one pass — the whole point of re-walking the text."""
        text = "main/502\nmain/510\nbroken/501\nMFREE/503=\njunk\n"
        report = lint_name_file_text(text)
        assert codes(report) == ["P001", "P003", "P002", "P007"]

    def test_cross_file_collision_points_at_both_files(self, tmp_path):
        (tmp_path / "a.tags").write_text("main/502\n")
        (tmp_path / "b.tags").write_text("tcp_input/502\n")
        from repro.lint.namefile_lint import lint_name_files

        report = lint_name_files([tmp_path / "a.tags", tmp_path / "b.tags"])
        # tcp_input claims 502 and 503; main owns both — two collisions.
        assert codes(report) == ["P002", "P002"]
        assert "a.tags" in report[0].message
        assert report[0].source.endswith("b.tags")

    def test_identical_line_in_two_files_is_clean(self, tmp_path):
        (tmp_path / "a.tags").write_text("main/502\n")
        (tmp_path / "b.tags").write_text("main/502\n")
        from repro.lint.namefile_lint import lint_name_files

        report = lint_name_files([tmp_path / "a.tags", tmp_path / "b.tags"])
        assert report.ok and len(report) == 0

    def test_p009_dangling_tag(self):
        names = parse_name_file("main/502\nghost/504\n")
        report = lint_name_table(names, instrumented={"main"})
        assert codes(report) == ["P009"]
        assert "ghost" in report[0].message

    def test_p010_instrumented_but_unnamed(self):
        names = parse_name_file("main/502\n")
        report = lint_name_table(names, instrumented={"main", "tcp_input"})
        assert codes(report) == ["P010"]
        assert "tcp_input" in report[0].message

    def test_dummy_seed_entry_is_exempt(self):
        names = NameTable()
        names.seed(500)
        names.allocate("main")
        report = lint_name_table(names, instrumented={"main"})
        assert report.ok and len(report) == 0


# -- pass 2: kernel source AST -----------------------------------------------


LEAKY = """
class K:
    def f(self, kernel):
        kernel.enter("f")
        return 1
"""

SHIELDED = """
class K:
    def f(self, kernel):
        kernel.enter("f")
        try:
            return work()
        finally:
            kernel.leave("f")
"""

MULTI_PATH = """
def f(kernel, flag):
    kernel.enter("f")
    if flag:
        kernel.leave("f")
        return 1
    kernel.leave("f")
    return 2
"""

SPL_NO_RESTORE = """
def intr(kernel):
    s = splnet(kernel)
    kernel.queue.append(1)
"""

SPL_HELD_RETURN = """
def intr(kernel):
    s = splbio(kernel)
    if kernel.busy:
        return None
    splx(kernel, s)
    return kernel.pop()
"""

STRAY_LEAVE = """
def f(kernel):
    kernel.leave("f")
"""

RAISE_LEAKS = """
def f(kernel):
    kernel.enter("f")
    if kernel.bad:
        raise RuntimeError("boom")
    kernel.leave("f")
"""

LOOP_BREAK = """
def intr(kernel):
    s = splnet(kernel)
    while True:
        if kernel.empty():
            break
        kernel.pop()
    splx(kernel, s)
"""


class TestAstLint:
    def test_p101_enter_without_leave(self):
        report = lint_source_text(LEAKY, source="leaky.py")
        assert codes(report) == ["P101"]

    def test_try_finally_shield_is_clean(self):
        assert len(lint_source_text(SHIELDED)) == 0

    def test_multi_path_manual_leave_is_clean(self):
        """The swtch idiom: no finally, but every path leaves."""
        assert len(lint_source_text(MULTI_PATH)) == 0

    def test_p102_spl_raise_without_restore(self):
        report = lint_source_text(SPL_NO_RESTORE, source="intr.py")
        # The held-at-exit warning rides along with the never-restored error.
        assert sorted(codes(report)) == ["P102", "P103"]
        assert report.error_count == 1

    def test_p103_return_with_spl_held(self):
        report = lint_source_text(SPL_HELD_RETURN)
        assert codes(report) == ["P103"]
        assert report[0].severity is Severity.WARNING

    def test_p104_stray_leave(self):
        report = lint_source_text(STRAY_LEAVE)
        assert codes(report) == ["P104"]

    def test_p101_on_raise_path(self):
        report = lint_source_text(RAISE_LEAKS, source="raises.py")
        assert codes(report) == ["P101"]

    def test_spl_across_loop_break_is_clean(self):
        assert len(lint_source_text(LOOP_BREAK)) == 0

    def test_real_kernel_source_is_clean(self):
        """The discipline pass over the actual kernel tree: the shipped
        source is the calibration corpus and must stay clean."""
        report = lint_kernel_source()
        assert report.ok, render_text(report)
        assert len(report) == 0, render_text(report)


# -- pass 3: capture streams -------------------------------------------------


def _names() -> NameTable:
    return NameTable(
        [
            TagEntry("main", 500),
            TagEntry("read", 502),
            TagEntry("ISAINTR", 504),
            TagEntry("swtch", 600, context_switch=True),
        ]
    )


def R(tag: int, time: int) -> RawRecord:
    return RawRecord(tag=tag, time=time)


class TestStreamLint:
    def test_balanced_stream_is_clean(self):
        records = [R(500, 10), R(502, 20), R(503, 30), R(501, 40)]
        report = lint_records(columns_of(records), _names())
        assert report.ok and len(report) == 0

    def test_p202_timer_regression(self):
        records = [R(500, 100), R(502, 90), R(503, 95), R(501, 110)]
        report = lint_records(columns_of(records), _names())
        assert "P202" in codes(report)
        regression = next(d for d in report if d.code == "P202")
        assert regression.index == 1

    def test_p202_time_exceeds_counter_width(self):
        # A 16-bit board cannot have latched a 17-bit count.
        report = lint_records(
            columns_of([R(500, 1 << 17)]), _names(), width_bits=16, ram_depth=None
        )
        assert "P202" in codes(report)

    def test_wraparound_is_not_a_regression(self):
        """The 24-bit counter wrapping once between records is normal."""
        top = (1 << 24) - 5
        records = [R(500, top), R(502, 3), R(503, 8), R(501, 12)]
        report = lint_records(columns_of(records), _names())
        assert "P202" not in codes(report)

    def test_p203_unknown_tag(self):
        records = [R(500, 10), R(9998, 20), R(501, 30)]
        report = lint_records(columns_of(records), _names())
        assert "P203" in codes(report)

    def test_p205_mismatched_exit_is_the_desync_signature(self):
        # exit of main while read is still the innermost open frame
        records = [R(500, 10), R(502, 20), R(501, 30), R(503, 40)]
        report = lint_records(columns_of(records), _names())
        assert codes(report).count("P205") == 2
        assert not report.ok

    def test_p201_open_frames_at_eof(self):
        records = [R(500, 10), R(502, 20)]
        report = lint_records(columns_of(records), _names())
        assert codes(report) == ["P201"]
        assert report[0].severity is Severity.WARNING

    def test_p204_full_trace_ram(self):
        records = [R(500, 2 * i) for i in range(4)] + [
            R(501, 100 + 2 * i) for i in range(4)
        ]
        report = lint_records(columns_of(records), _names(), ram_depth=8)
        assert "P204" in codes(report)
        assert lint_records(columns_of(records), _names(), ram_depth=None).ok

    def test_p206_interrupt_nesting_beyond_ipl_count(self):
        records = [R(504, 10 * i) for i in range(1, 9)]
        report = lint_records(columns_of(records), _names())
        assert "P206" in codes(report)
        seven_deep = [R(504, 10 * i) for i in range(1, 8)]
        assert "P206" not in codes(lint_records(columns_of(seven_deep), _names()))

    def test_p207_unmatched_swtch_exit(self):
        records = [R(601, 10)]
        report = lint_records(columns_of(records), _names())
        assert "P207" in codes(report)

    def test_p200_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.mpf"
        data = GOLDEN_CAPTURES[0].read_bytes()
        path.write_bytes(data[: len(data) - 3])
        report = lint_capture_file(path, NameTable.read(GOLDEN_NAMES))
        assert codes(report) == ["P200"]

    def test_p200_bad_magic(self, tmp_path):
        path = tmp_path / "junk.mpf"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        report = lint_capture_file(path, NameTable())
        assert codes(report) == ["P200"]


# -- pass 4: the _ProfileBase link -------------------------------------------


class TestLinkLint:
    def test_good_layout_is_clean(self):
        layout = layout_for(1 << 20, ISA_HOLE_START + 0x30000)
        assert len(lint_layout(layout)) == 0

    def test_p301_eprom_outside_isa_hole(self):
        layout = KernelLayout(
            kernel_size=1 << 20,
            isa_window_va=0xFE0A0000,
            profile_base_va=0xFE0D0000,
            eprom_phys=0x200000,
        )
        assert codes(lint_layout(layout)) == ["P301"]

    def test_p305_two_pass_disagreement(self):
        good = layout_for(1 << 20, ISA_HOLE_START + 0x30000)
        skewed = KernelLayout(
            kernel_size=good.kernel_size,
            isa_window_va=good.isa_window_va,
            profile_base_va=good.profile_base_va + 0x1000,
            eprom_phys=good.eprom_phys,
        )
        assert codes(lint_layout(skewed)) == ["P305"]

    def test_p304_tag_space_spills_past_hole(self):
        layout = layout_for(1 << 20, 0x000F8000)
        assert codes(lint_layout(layout)) == ["P304"]

    def test_live_case_study_link_is_clean(self):
        from repro.system import build_case_study

        system = build_case_study()
        report = lint_link(system.kernel)
        assert report.ok and len(report) == 0, render_text(report)

    def test_p302_p303_p306_on_mutated_kernel(self):
        from repro.system import build_case_study

        system = build_case_study()
        kernel = system.kernel

        region = kernel.bus.find(kernel.profile_base_phys)
        tap, region.on_read = region.on_read, None
        try:
            assert codes(lint_link(kernel)) == ["P303"]
        finally:
            region.on_read = tap

        base = kernel.profile_base_phys
        kernel.profile_base_phys = 0x00300000  # unmapped, outside the hole
        try:
            assert codes(lint_link(kernel)) == ["P301", "P302"]
        finally:
            kernel.profile_base_phys = base

        kernel.profile_base_phys = None
        try:
            assert codes(lint_link(kernel)) == ["P306"]
        finally:
            kernel.profile_base_phys = base


# -- clean-run guarantees over shipped artifacts -----------------------------


class TestShippedArtifactsLintClean:
    @pytest.mark.parametrize(
        "capture", GOLDEN_CAPTURES, ids=lambda p: p.name
    )
    def test_golden_captures_have_zero_errors(self, capture):
        names = NameTable.read(GOLDEN_NAMES)
        report = lint_capture_file(capture, names)
        assert report.error_count == 0, render_text(report)

    def test_golden_namefile_is_clean(self):
        report = lint_paths(LintOptions(names=[GOLDEN_NAMES]))
        assert report.ok, render_text(report)

    def test_self_check_is_clean(self):
        report = lint_self_check()
        assert report.ok and len(report) == 0, render_text(report)

    def test_live_capture_verifies_clean(self):
        from repro.system import build_case_study
        from repro.workloads.fileio import file_write_storm

        system = build_case_study()
        capture = system.profile(
            lambda: file_write_storm(system.kernel, nblocks=4), label="t"
        )
        report = verify_capture(capture)
        assert report.error_count == 0, render_text(report)


# -- the pass chain ----------------------------------------------------------


class TestPassChain:
    def test_selected_passes_run_in_chain_order_each_in_its_span(self, tmp_path):
        from repro.telemetry import TELEMETRY

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        options = LintOptions(
            captures=[GOLDEN_DIR / "figure3_network_v2.mpf"],
            names=[GOLDEN_NAMES],
            kernel_ast=True,
            self_check=True,
            coverage_corpus=corpus,
            db=tmp_path / "empty.db",
        )
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            lint_paths(options)
            spans = [s.name for s in TELEMETRY.spans() if s.name.startswith("lint.pass.")]
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert spans == [
            f"lint.pass.{name}"
            for name in (
                "namefile", "stream", "live", "kernel_ast", "self_check", "coverage", "db",
            )
        ]


# -- report plumbing ---------------------------------------------------------


class TestReporting:
    def test_every_code_has_table_entry_and_diagnostics_use_them(self):
        assert set(CODE_TABLE) == {
            f"P{n:03d}" for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
        } | {f"P{n}" for n in (101, 102, 103, 104)} | {
            f"P{n}"
            for n in (200, 201, 202, 203, 204, 205, 206, 207,
                      208, 209, 210, 211, 212, 213)
        } | {f"P{n}" for n in (301, 302, 303, 304, 305, 306)} | {
            f"P{n}" for n in (401, 402, 403, 404)
        } | {f"P{n}" for n in (501, 502, 503, 504, 505, 506)} | {
            f"P{n}" for n in (601, 602, 603, 604, 605)
        } | {f"P{n}" for n in (701, 702, 703, 704, 705)} | {
            f"P{n}" for n in (801, 802, 803)
        }

    def test_text_format_is_compiler_style(self):
        report = lint_name_file_text("main/510\nmain/502\n", source="k.tags")
        line = report[0].format()
        assert line.startswith("k.tags:2: error P001:")

    def test_exit_code_semantics(self):
        clean = lint_name_file_text("main/502\n")
        assert clean.exit_code == 0
        warn_only = lint_name_file_text(f"last/{MAX_TAG - 1}\n")
        assert warn_only.exit_code == 0 and warn_only.ok
        erroring = lint_name_file_text("main/502\nmain/504\n")
        assert erroring.exit_code == 1 and not erroring.ok

    def test_json_schema_is_stable(self):
        report = lint_name_file_text("main/510\nmain/502\n", source="k.tags")
        document = json.loads(render_json(report))
        assert document["version"] == 1
        assert document["tool"] == "proflint"
        assert document["ok"] is False
        assert document["counts"] == {"error": 1, "warning": 0, "info": 0}
        (diagnostic,) = document["diagnostics"]
        assert diagnostic == {
            "code": "P001",
            "severity": "error",
            "title": CODE_TABLE["P001"][1],
            "message": diagnostic["message"],
            "source": "k.tags",
            "line": 2,
            "index": None,
        }

    def test_reports_accumulate_across_passes(self):
        report = LintReport()
        lint_name_file_text("main/510\nmain/502\n", report=report)
        lint_records(columns_of([R(9998, 10)]), _names(), report=report)
        assert codes(report) == ["P001", "P203"]
