"""Tests for user-level profiling (§User Code Profiling)."""

from __future__ import annotations

import pytest

from repro.analysis.summary import summarize
from repro.analysis.trace import format_trace
from repro.kernel.userprof import (
    PROF_USER_VA,
    UserImage,
    UserProfError,
    prof_mmap,
    profdev_open,
    umark,
    user_call,
)
from repro.kernel.vm.vm_glue import ExecImage
from repro.system import build_case_study
from repro.workloads.network_recv import network_receive
from repro.kernel.syscalls import syscall
from oracles import build_reference_case_study


def make_user_proc(system, functions=("u_main", "u_parse", "u_reply")):
    """Spawn a process with an address space and the window mapped."""
    kernel = system.kernel
    image = UserImage.compile("snmpd", system.names, functions, ("U_MARK",))
    state = {}

    def setup(k, proc):
        from repro.kernel.vm.vm_glue import vmspace_exec

        vmspace_exec(k, proc, ExecImage(name="snmpd", text_pages=10, data_pages=4))
        fd = profdev_open(k, proc)
        va = prof_mmap(k, proc, fd)
        state["va"] = va
        state["proc"] = proc
        return proc

    return image, setup, state


class TestDriverStub:
    def test_open_and_mmap(self):
        system = build_case_study()
        image, setup, state = make_user_proc(system)

        def body2(k, proc):
            setup(k, proc)
            # Check the mapping before exit tears the space down.
            state["pte"] = proc.vmspace.pmap.raw_get(PROF_USER_VA)
            yield from syscall(k, proc, "exit", 0)

        system.kernel.sched.spawn("snmpd", body2)
        system.kernel.sched.run(until_ns=60_000_000_000)
        assert state["va"] == PROF_USER_VA
        assert state["pte"] is not None

    def test_mmap_requires_profdev_fd(self):
        system = build_case_study()
        failures = []

        def body(k, proc):
            from repro.kernel.vm.vm_glue import vmspace_exec

            vmspace_exec(k, proc, ExecImage(name="t", text_pages=4))
            fd = yield from syscall(k, proc, "open", "/notdev", True)
            try:
                prof_mmap(k, proc, fd)
            except UserProfError as exc:
                failures.append(str(exc))
            yield from syscall(k, proc, "exit", 0)

        system.kernel.sched.spawn("bad", body)
        system.kernel.sched.run(until_ns=60_000_000_000)
        assert failures

    def test_trigger_without_mmap_fails(self):
        system = build_case_study()
        image = UserImage.compile("p", system.names, ("lonely_fn",))
        failures = []

        def body(k, proc):
            try:
                for _ in user_call(k, proc, image, "lonely_fn", 10):
                    pass
            except UserProfError as exc:
                failures.append(str(exc))
            yield from syscall(k, proc, "exit", 0)

        system.kernel.sched.spawn("bad2", body)
        system.kernel.sched.run(until_ns=60_000_000_000)
        assert failures and "prof_mmap" in failures[0]


def run_user_workload(system):
    """The SNMP-daemon-style workload: 5 rounds of call/parse/mark/reply."""
    image, setup, state = make_user_proc(system)

    def body(k, proc):
        setup(k, proc)
        for _ in range(5):
            yield from user_call(k, proc, image, "u_main", 2_000)
            yield from user_call(k, proc, image, "u_parse", 4_000)
            umark(k, proc, image, "U_MARK")
            yield from user_call(k, proc, image, "u_reply", 1_000)
        yield from syscall(k, proc, "exit", 0)

    system.kernel.sched.spawn("snmpd", body)
    system.kernel.sched.run(until_ns=120_000_000_000)
    return image


class TestUserCapture:
    def run_user_workload(self, system):
        return run_user_workload(system)

    def test_user_functions_in_summary(self):
        system = build_case_study()
        capture = system.profile(lambda: self.run_user_workload(system))
        summary = summarize(system.analyze(capture))
        parse = summary.get("u_parse")
        assert parse is not None and parse.calls == 5
        assert 3_900 <= parse.avg_us <= 4_600
        assert summary.get("u_main").calls == 5

    def test_inline_marks_recorded(self):
        system = build_case_study()
        capture = system.profile(lambda: self.run_user_workload(system))
        text = format_trace(system.analyze(capture))
        assert "== U_MARK" in text
        assert "-> u_parse" in text

    def test_mixed_kernel_and_user_profiling(self):
        """The paper: "a mixture of kernel and user level profiling" —
        kernel frames (the clock tick) appear nested inside user frames."""
        system = build_case_study()
        capture = system.profile(lambda: self.run_user_workload(system))
        analysis = system.analyze(capture)
        u_parents = set()
        for node in analysis.nodes():
            if node.name == "ISAINTR":
                parent_names = [
                    p.name
                    for p in analysis.nodes()
                    if node in p.children
                ]
                u_parents.update(parent_names)
        # At least one clock interrupt preempted a user function.
        assert u_parents & {"u_main", "u_parse", "u_reply"}

    def test_user_tags_share_the_name_file(self):
        """One concatenated name file covers kernel and user tags."""
        system = build_case_study()
        image = UserImage.compile("p2", system.names, ("extra_user_fn",))
        entry = image.functions["extra_user_fn"]
        assert system.names.decode(entry.entry_value)[0].name == "extra_user_fn"
        # No collision with any kernel tag.
        assert system.names.by_name("tcp_input").value != entry.value


class TestEngineParity:
    def test_user_capture_identical_across_engines(self):
        """User-mode triggers take the same fast path as kernel ones, so
        the optimized engine must capture the reference stream byte for
        byte — including the `_user_trigger` slow path the reference
        engine (fastpath_enabled=False) exercises."""
        results = {}
        for engine, build in (
            ("optimized", build_case_study),
            ("reference", build_reference_case_study),
        ):
            system = build()
            capture = system.profile(lambda: run_user_workload(system))
            results[engine] = (
                capture.records.to_bytes(),
                system.kernel.machine.clock.now_ns,
                system.kernel.stats["user_triggers"],
            )
        assert results["optimized"] == results["reference"]
        # 5 rounds x (3 enter/leave pairs + 1 mark) = 35 user strobes.
        assert results["optimized"][2] == 35


class TestConcurrentProfiling:
    def test_two_user_processes_profiled_together(self):
        """"or profiling several user processes at the same time"."""
        system = build_case_study()
        kernel = system.kernel
        image_a = UserImage.compile("proc-a", system.names, ("a_work",))
        image_b = UserImage.compile("proc-b", system.names, ("b_work",))

        def make_body(image, fn):
            def body(k, proc):
                from repro.kernel.vm.vm_glue import vmspace_exec
                from repro.kernel.sched import tsleep

                vmspace_exec(k, proc, ExecImage(name=image.name, text_pages=4))
                fd = profdev_open(k, proc)
                prof_mmap(k, proc, fd)
                for _ in range(3):
                    for _ in user_call(k, proc, image, fn, 150):
                        pass
                    yield from tsleep(k, ("pace", proc.pid), timo=1)
                yield from syscall(k, proc, "exit", 0)

            return body

        def workload():
            kernel.sched.spawn("proc-a", make_body(image_a, "a_work"))
            kernel.sched.spawn("proc-b", make_body(image_b, "b_work"))
            kernel.sched.run(until_ns=120_000_000_000)

        capture = system.profile(workload)
        summary = summarize(system.analyze(capture))
        assert summary.get("a_work").calls == 3
        assert summary.get("b_work").calls == 3
