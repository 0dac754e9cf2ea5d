#!/usr/bin/env python3
"""Kernel debugging with the Profiler — the abstract's other promise.

"The solution also provides for effective and flexible kernel debugging."
A code-path trace is a flight recorder: when something misbehaves, the
last 16384 events show exactly how the kernel got there.  This example
injects a corrupted TCP segment into the receive path and uses the trace
and the anomaly report to find where it was dropped — without a single
printf in the kernel.

Run:  python examples/kernel_debugging.py
"""

from repro.analysis.trace import format_trace
from repro.kernel.net.headers import TH_SYN, build_tcp_frame
from repro.kernel.net.socket import Socket
from repro.kernel.syscalls import syscall
from repro.system import build_case_study


def main() -> None:
    system = build_case_study()
    kernel = system.kernel

    def scenario():
        # A listener that will never see a connection...
        def body(k, proc):
            fd = yield from syscall(k, proc, "socket", Socket.SOCK_STREAM)
            yield from syscall(k, proc, "bind", fd, 4000)
            yield from syscall(k, proc, "listen", fd)
            from repro.kernel.sched import tsleep

            yield from tsleep(k, "debug-park", timo=10)

        kernel.sched.spawn("listener", body)
        # ...because the client's SYN arrives corrupted on the wire.
        frame = bytearray(
            build_tcp_frame(
                src=0x0A000002,
                dst=0x0A000001,
                sport=1234,
                dport=4000,
                seq=9000,
                ack=0,
                flags=TH_SYN,
            )
        )
        frame[45] ^= 0x20  # one flipped bit in the TCP header
        kernel.netstack.wire.send_to_host(bytes(frame), 2_000_000)
        kernel.sched.run(until_ns=500_000_000)

    capture = system.profile(scenario, label="debugging a dropped SYN")
    analysis = system.analyze(capture)

    print("Symptom: the connection never completes.  Reading the recorder:\n")
    print(format_trace(analysis, start_us=1_900, end_us=8_000))

    print("\nWhat the trace shows:")
    print(
        " * ISAINTR -> weintr -> werint -> weread -> weget: the frame DID "
        "arrive and was copied out of the controller;"
    )
    print(" * ipintr ran and the IP header checksum verified;")
    print(
        " * tcp_input ran in_cksum over the segment and returned without "
        "calling sonewconn — the drop point."
    )
    print(f"\nKernel counters agree: tcp_badsum = {kernel.stats['tcp_badsum']}")
    assert kernel.stats["tcp_badsum"] == 1
    print(
        "\nDiagnosis in one capture: the segment died in tcp_input's "
        "checksum, i.e. the corruption happened on the wire, not in the "
        "kernel.  'Looking under the hood while the engine is running.'"
    )


if __name__ == "__main__":
    main()
