"""Full-pipeline integration tests: the paper's figures, end to end."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis.summary import summarize, summarize_capture
from repro.analysis.trace import format_trace
from repro.instrument.linker import ObjectModule, TwoStageLinker
from repro.instrument.namefile import NameTable
from repro.profiler.capture import Capture
from repro.profiler.eprom import DEFAULT_SOCKET_BASE
from repro.system import NAME_FILE, build_case_study
from repro.workloads.forkexec import fork_exec_storm
from repro.workloads.network_recv import network_receive


class TestBuild:
    def test_case_study_composition(self):
        system = build_case_study()
        assert system.kernel.booted
        assert system.kernel.profile_base_phys == DEFAULT_SOCKET_BASE
        assert system.image.profiled_functions >= 100
        assert system.board.ram.depth == 16384

    def test_name_file_has_the_papers_shape(self):
        """swtch carries '!', MGET carries '=', tags are even/odd pairs."""
        system = build_case_study()
        names = system.names
        assert names.by_name("swtch").context_switch
        assert names.by_name("MGET").inline
        tcp = names.by_name("tcp_input")
        assert tcp.value % 2 == 0

    def test_micro_profiling_selects_modules(self):
        system = build_case_study(profiled_modules=["netinet", "isa/if_we"])
        instrumented = set(system.kernel._entry_tags)
        assert "tcp_input" in instrumented and "weintr" in instrumented
        assert "pmap_remove" not in instrumented
        assert "bread" not in instrumented
        # Each function keeps its whole-kernel tag, and the table is the
        # whole kernel's: one name file decodes macro and micro captures.
        for entry in NameTable.read(NAME_FILE):
            assert system.names.get(entry.name) == entry
        tcp_input = system.names.by_name("tcp_input").entry_value
        assert system.kernel._entry_tags["tcp_input"] == tcp_input


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
GOLDEN_TAGS = pathlib.Path(__file__).resolve().parent / "golden" / "case_study.tags"


def _python(code: str) -> str:
    """Run *code* in a fresh interpreter; its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestNameFile:
    """The kernel's name/tag file persists between builds, as in the
    paper: every build extends a fresh read of it, so tags do not depend
    on the order the kernel modules were imported in."""

    @pytest.mark.parametrize(
        "first",
        [
            "",
            "repro.workloads",
            "repro.kernel.fs.nfs",
            "repro.kernel.userprof",
            "repro.kernel.vm.vm_glue",
            "repro.db",
        ],
    )
    def test_tags_do_not_depend_on_import_order(self, first):
        table = _python(
            (f"import {first}\n" if first else "")
            + "import sys\n"
            "from repro.instrument.namefile import format_name_file\n"
            "from repro.system import build_case_study\n"
            "sys.stdout.write(format_name_file(build_case_study().names))\n"
        )
        assert table == GOLDEN_TAGS.read_text()

    def test_import_all_registers_every_kernel_function(self):
        """A bare build instruments every kernel function: ``import_all``
        reaches each module itself, whatever else was imported first."""
        build = (
            "from repro.system import build_case_study\n"
            "print(*sorted(build_case_study().image.instrumented), sep='\\n')\n"
        )
        bare = _python(build).split()
        walked = _python(
            "import importlib, pkgutil\n"
            "import repro.kernel as kernel\n"
            "for info in pkgutil.walk_packages(kernel.__path__, 'repro.kernel.'):\n"
            "    importlib.import_module(info.name)\n" + build
        ).split()
        assert bare == walked
        assert len(bare) > 100

    def test_shipped_file_names_every_kernel_function(self):
        registered = _python(
            "from repro.kernel import import_all\n"
            "from repro.kernel.kfunc import registered_functions\n"
            "from repro.system import INLINE_POINTS\n"
            "import_all()\n"
            "for meta in registered_functions():\n"
            "    print(meta.name)\n"
            "print(*INLINE_POINTS, sep='\\n')\n"
        ).split()
        shipped = NameTable.read(NAME_FILE)
        missing = [name for name in registered if name not in shipped]
        assert not missing, (
            f"{', '.join(missing)} not in {NAME_FILE.name}: append each at the "
            "next tag above the highest, so its tags stay fixed across builds"
        )

    def test_capture_decodes_with_the_golden_names_whatever_was_imported(self, tmp_path):
        capture_file = tmp_path / "run.mpf"
        names_file = tmp_path / "run.tags"
        _python(
            "import repro.workloads\n"
            "from repro.system import build_case_study\n"
            "from repro.workloads.network_recv import network_receive\n"
            "system = build_case_study()\n"
            "capture = system.profile(\n"
            "    lambda: network_receive(system.kernel, total_packets=4)\n"
            ")\n"
            f"capture.save({str(capture_file)!r})\n"
            f"system.names.write({str(names_file)!r})\n"
        )
        own = summarize_capture(Capture.load(capture_file, NameTable.read(names_file)))
        golden = summarize_capture(Capture.load(capture_file, NameTable.read(GOLDEN_TAGS)))
        assert golden.format() == own.format()


class TestFigure3Shape:
    @pytest.fixture(scope="class")
    def summary(self):
        system = build_case_study()
        capture = system.profile(
            lambda: network_receive(system.kernel, total_packets=50),
            label="figure-3",
        )
        return summarize(system.analyze(capture))

    def test_cpu_saturated(self, summary):
        """"the CPU is completely saturated" — paper: 98.99% busy."""
        assert summary.busy_fraction >= 0.95

    def test_bcopy_is_top(self, summary):
        """"most of its time is spent in bcopy" — 33.25% real."""
        rows = summary.rows()
        assert rows[0].name == "bcopy"
        assert 25 <= summary.pct_real(rows[0]) <= 45

    def test_in_cksum_is_second(self, summary):
        """in_cksum at 30.51%, just behind bcopy."""
        rows = summary.rows()
        assert rows[1].name == "in_cksum"
        assert 25 <= summary.pct_real(rows[1]) <= 42
        assert summary.pct_real(rows[0]) >= summary.pct_real(rows[1])

    def test_spl_family_share(self, summary):
        """"splnet, splx and spl0 contributed around 9% of the time"."""
        share = sum(
            summary.pct_real(summary.get(name))
            for name in ("splnet", "splx", "spl0", "splhigh")
            if summary.get(name) is not None
        )
        assert 3 <= share <= 13

    def test_expected_functions_present(self, summary):
        for name in ("soreceive", "werint", "weget", "malloc", "westart"):
            assert summary.get(name) is not None, f"{name} missing"

    def test_splnet_call_cost(self, summary):
        """Figure 3: splnet avg ~10 us across thousands of calls."""
        splnet = summary.get("splnet")
        assert splnet.calls > 100
        assert 7 <= splnet.avg_us <= 14


class TestFigure4Shape:
    def test_trace_contains_the_packet_path(self):
        system = build_case_study()
        capture = system.profile(
            lambda: network_receive(system.kernel, total_packets=6),
            label="figure-4",
        )
        analysis = system.analyze(capture)
        text = format_trace(analysis)
        for fragment in (
            "-> ISAINTR",
            "-> weintr",
            "-> werint",
            "-> weread",
            "-> weget",
            "-> bcopy",
            "-> ipintr",
            "-> splnet",
            "-> in_cksum",
            "-> tcp_input",
            "-> in_pcblookup",
            "<- swtch",
            "== MGET",
        ):
            assert fragment in text, f"{fragment} missing from trace"

    def test_nesting_matches_the_paper(self):
        """werint under weintr under ISAINTR; tcp_input under ipintr."""
        system = build_case_study()
        capture = system.profile(
            lambda: network_receive(system.kernel, total_packets=6)
        )
        analysis = system.analyze(capture)

        def parent_names(target: str) -> set[str]:
            parents = set()
            for node in analysis.nodes():
                for child in node.children:
                    if child.name == target:
                        parents.add(node.name)
            return parents

        assert "weintr" in parent_names("werint")
        assert "ISAINTR" in parent_names("weintr")
        assert "ipintr" in parent_names("tcp_input")
        assert "weread" in parent_names("weget")


class TestFigure5Shape:
    @pytest.fixture(scope="class")
    def summary(self):
        system = build_case_study()
        capture = system.profile(
            lambda: fork_exec_storm(
                system.kernel, iterations=3, print_status=True
            ),
            label="figure-5",
        )
        return summarize(system.analyze(capture))

    def test_pmap_remove_tops_the_profile(self, summary):
        """Figure 5: pmap_remove has the highest net time (28.22%)."""
        rows = summary.rows()
        assert rows[0].name == "pmap_remove"

    def test_pmap_pte_call_storm(self, summary):
        """Figure 5: pmap_pte called thousands of times at ~3 us."""
        pte = summary.get("pmap_pte")
        assert pte.calls >= 3_000
        assert pte.avg_us <= 5

    def test_vm_routines_dominate(self, summary):
        """"Over 50% of the time is being spent in the virtual memory
        routines"."""
        vm_names = (
            "pmap_remove",
            "pmap_pte",
            "pmap_enter",
            "pmap_protect",
            "pmap_copy",
            "vm_fault",
            "vm_page_lookup",
            "vm_page_alloc",
            "vm_page_free",
            "vmspace_fork",
            "vmspace_exec",
            "vmspace_alloc",
            "vmspace_teardown",
            "vm_map_find",
            "vm_map_delete",
            "kmem_alloc",
            "bzero",
        )
        share = sum(
            summary.pct_net(summary.get(name))
            for name in vm_names
            if summary.get(name) is not None
        )
        assert share >= 50

    def test_console_bcopyb_artifact(self, summary):
        """Figure 5's footnote: bcopyb ~3.6 ms per console scroll."""
        bcopyb = summary.get("bcopyb")
        assert bcopyb is not None
        assert 2_300 <= bcopyb.avg_us <= 4_500

    def test_figure5_averages(self, summary):
        """vm_page_lookup ~18 us, pmap_enter ~29 us inclusive."""
        lookup = summary.get("vm_page_lookup")
        enter = summary.get("pmap_enter")
        assert 10 <= lookup.avg_us <= 28
        assert 18 <= enter.avg_us <= 45


class TestOverheadClaim:
    def test_instrumentation_overhead_band(self):
        """Paper: "around 1 to 1.2% extra CPU cycles"."""
        instrumented = build_case_study()
        with_triggers = network_receive(instrumented.kernel, total_packets=15)
        plain = build_case_study(instrument=False)
        without = network_receive(plain.kernel, total_packets=15)
        overhead = (
            with_triggers.elapsed_us - without.elapsed_us
        ) / without.elapsed_us
        assert 0.002 <= overhead <= 0.03

    def test_no_noticeable_difference(self):
        """"No noticeable difference can be detected between a profiled
        and a non-profiled kernel" — both complete identically."""
        instrumented = build_case_study()
        a = network_receive(instrumented.kernel, total_packets=10)
        plain = build_case_study(instrument=False)
        b = network_receive(plain.kernel, total_packets=10)
        assert a.bytes_received == b.bytes_received
        assert a.packets_sent == b.packets_sent


class TestCaptureMechanics:
    def test_ram_fills_and_overflows_under_load(self):
        """Paper: "the Profiler RAM could be filled ... in as short a
        time as 300 milliseconds" — heavy receive load fills 16384."""
        system = build_case_study(board_depth=4096)
        capture = system.profile(
            lambda: network_receive(system.kernel, total_packets=60)
        )
        assert capture.overflowed
        assert len(capture) == 4096

    def test_capture_roundtrips_through_file(self, tmp_path):
        system = build_case_study()
        capture = system.profile(
            lambda: network_receive(system.kernel, total_packets=5)
        )
        path = tmp_path / "run.mpf"
        capture.save(path)
        from repro.profiler.capture import Capture

        again = Capture.load(path, system.names)
        assert again.records == capture.records
        assert summarize(system.analyze(capture)).wall_us == summarize(
            system.analyze(again)
        ).wall_us


class TestLinkerIntegration:
    def test_profile_base_story(self):
        """Two-stage link: _ProfileBase lands where the kernel size says."""
        modules = [
            ObjectModule(name=f"mod{i}.o", text_bytes=10_000 + i, data_bytes=512)
            for i in range(40)
        ]
        linked = TwoStageLinker(eprom_phys=DEFAULT_SOCKET_BASE).link(modules)
        assert linked.profile_base > 0xFE000000
        # Growing the kernel moves the base.
        bigger = modules + [ObjectModule(name="extra.o", text_bytes=50_000, data_bytes=0)]
        relinked = TwoStageLinker(eprom_phys=DEFAULT_SOCKET_BASE).link(bigger)
        assert relinked.profile_base > linked.profile_base
