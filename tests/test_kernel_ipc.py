"""Tests for pipes: data integrity, blocking, EOF, and IPC profiling."""

from __future__ import annotations

import pytest

from repro.analysis.summary import summarize
from repro.kernel.ipc import PIPSIZ, Pipe, PipeEnd, PipeError
from repro.kernel.kernel import Kernel
from repro.kernel.proc import Proc, ProcState
from repro.kernel.sched import user_mode
from repro.kernel.syscalls import syscall
from repro.system import build_case_study


def booted() -> Kernel:
    kernel = Kernel()
    kernel.boot(with_network=False, with_disk=False, with_console=False)
    return kernel


#: How far past its start a pipe test lets the simulated clock run.
RUN_BOUND_NS = 600_000_000_000


def run_to_exit(kernel: Kernel, procs: list[Proc]) -> None:
    """Run the scheduler until nothing can run, and check that it stopped
    because every process in *procs* exited: none is left asleep (a
    reader that never sees EOF sleeps on ``piperd``), and the simulated
    clock stayed far below the run's bound instead of idling up to it."""
    started = kernel.machine.now_ns
    kernel.sched.run(until_ns=started + RUN_BOUND_NS)
    assert [proc.state for proc in procs] == [ProcState.SZOMB] * len(procs)
    assert kernel.sched.sleepq == {}
    assert kernel.machine.now_ns - started < RUN_BOUND_NS // 100


def run_pipeline(kernel: Kernel, payload: bytes, chunk: int = 512) -> dict:
    """A producer writes *payload* into a pipe; a consumer drains it."""
    state: dict = {"received": b"", "rfd": None, "procs": []}

    def producer(k, proc: Proc):
        rfd, wfd = yield from syscall(k, proc, "pipe")
        state["rfd"] = (proc, rfd)

        def consumer(ck, child: Proc):
            # The write end came along with the fork; while the child
            # holds it, its reads never see EOF.
            yield from syscall(ck, child, "close", wfd)
            while True:
                data = yield from syscall(ck, child, "read", rfd, chunk)
                if not data:
                    break
                state["received"] += data
                yield from user_mode(ck, 40)
            yield from syscall(ck, child, "exit", 0)

        state["procs"].append((yield from syscall(k, proc, "fork", consumer)))
        # Parent: close its read end, stream the payload, close, wait.
        yield from syscall(k, proc, "close", rfd)
        offset = 0
        while offset < len(payload):
            n = yield from syscall(
                k, proc, "write", wfd, payload[offset : offset + chunk]
            )
            offset += n
        yield from syscall(k, proc, "close", wfd)
        yield from syscall(k, proc, "wait")
        yield from syscall(k, proc, "exit", 0)

    state["procs"].append(kernel.sched.spawn("producer", producer))
    run_to_exit(kernel, state["procs"])
    return state


class TestPipeSemantics:
    def test_data_round_trips(self):
        kernel = booted()
        payload = bytes(range(256)) * 24  # 6 KB: crosses PIPSIZ
        state = run_pipeline(kernel, payload)
        assert state["received"] == payload

    def test_writer_blocks_when_full(self):
        """More than PIPSIZ in flight forces producer/consumer alternation."""
        kernel = booted()
        payload = b"x" * (PIPSIZ * 3)
        state = run_pipeline(kernel, payload, chunk=1024)
        assert state["received"] == payload
        assert kernel.sched.switches > 4  # they really took turns

    def test_eof_on_writer_close(self):
        kernel = booted()
        state = run_pipeline(kernel, b"short")
        assert state["received"] == b"short"  # consumer saw EOF and exited

    def test_write_to_closed_reader_is_epipe(self):
        kernel = booted()
        failures: list[str] = []

        def body(k, proc: Proc):
            rfd, wfd = yield from syscall(k, proc, "pipe")
            yield from syscall(k, proc, "close", rfd)
            try:
                yield from syscall(k, proc, "write", wfd, b"to nobody")
            except PipeError as exc:
                failures.append(str(exc))
            yield from syscall(k, proc, "exit", 0)

        kernel.sched.spawn("writer", body)
        kernel.sched.run(until_ns=kernel.machine.now_ns + 60_000_000_000)
        assert failures and "EPIPE" in failures[0]

    def test_wrong_end_rejected(self):
        kernel = booted()
        pipe = Pipe()
        read_end = PipeEnd(pipe, writable=False)
        write_end = PipeEnd(pipe, writable=True)
        with pytest.raises(PipeError):
            next(iter(pipe_gen(kernel, read_end, b"x")))
        gen = pipe_read_gen(kernel, write_end)
        with pytest.raises(PipeError):
            next(gen)

    def test_bad_read_length(self):
        kernel = booted()
        pipe = Pipe()
        end = PipeEnd(pipe, writable=False)
        from repro.kernel.ipc import pipe_read

        gen = pipe_read(kernel, end, 0)
        with pytest.raises(PipeError):
            next(gen)


def pipe_gen(kernel, end, data):
    from repro.kernel.ipc import pipe_write

    return pipe_write(kernel, end, data)


def pipe_read_gen(kernel, end):
    from repro.kernel.ipc import pipe_read

    return pipe_read(kernel, end, 10)


class TestIpcProfiling:
    def test_pipe_interaction_visible_in_capture(self):
        """The paper's IPC-analysis claim: the producer/consumer hand-offs
        are right there in the profile."""
        system = build_case_study()
        payload = b"y" * (PIPSIZ * 2)
        capture = system.profile(
            lambda: run_pipeline(system.kernel, payload, chunk=1024)
        )
        summary = summarize(system.analyze(capture))
        assert summary.get("pipe_write") is not None
        assert summary.get("pipe_read") is not None
        assert summary.get("pipe_read").calls >= 8
        # Both processes' code paths were reconstructed.
        analysis = system.analyze(capture)
        assert len(analysis.procs) >= 2
        assert analysis.context_switches > 4


class TestPipeProperties:
    from hypothesis import given, settings, strategies as st

    @given(
        chunks=st.lists(
            st.binary(min_size=1, max_size=2_000), min_size=1, max_size=12
        ),
        read_size=st.integers(min_value=1, max_value=3_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_write_read_pattern_preserves_the_stream(
        self, chunks, read_size
    ):
        """Property: whatever the chunking on either side, the consumer
        sees exactly the producer's byte stream, in order."""
        kernel = booted()
        payload = b"".join(chunks)
        state: dict = {"received": b"", "procs": []}

        def producer(k, proc: Proc):
            rfd, wfd = yield from syscall(k, proc, "pipe")

            def consumer(ck, child: Proc):
                yield from syscall(ck, child, "close", wfd)
                while True:
                    data = yield from syscall(ck, child, "read", rfd, read_size)
                    if not data:
                        break
                    state["received"] += data
                yield from syscall(ck, child, "exit", 0)

            state["procs"].append((yield from syscall(k, proc, "fork", consumer)))
            yield from syscall(k, proc, "close", rfd)
            for chunk in chunks:
                yield from syscall(k, proc, "write", wfd, chunk)
            yield from syscall(k, proc, "close", wfd)
            yield from syscall(k, proc, "wait")
            yield from syscall(k, proc, "exit", 0)

        state["procs"].append(kernel.sched.spawn("producer", producer))
        run_to_exit(kernel, state["procs"])
        assert state["received"] == payload
