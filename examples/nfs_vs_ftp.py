#!/usr/bin/env python3
"""The paper's NFS curiosity: no checksums means *more* throughput.

"An interesting situation arises due to the fact that UDP checksums are
usually turned off with NFS; since the checksum routine contributed a
large proportion to the CPU overhead, NFS actually provides less overhead
and better throughput than an FTP style connection!"

This example streams the same number of bytes three ways and prints the
throughput and the measured RPC turnaround distribution.

Run:  python examples/nfs_vs_ftp.py
"""

from repro.analysis.histogram import histogram_for
from repro.system import build_case_study
from repro.workloads.network_recv import network_receive
from repro.workloads.nfsio import nfs_read_stream

FILE_BYTES = 48 * 1024


def main() -> None:
    print(f"Streaming {FILE_BYTES // 1024} KB to the PC three ways...\n")

    nfs = nfs_read_stream(
        build_case_study().kernel, file_bytes=FILE_BYTES, with_checksums=False
    )
    print(
        f"  NFS, UDP checksums OFF : {nfs.throughput_kbps:7.0f} kb/s "
        f"(mean RPC turnaround {nfs.mean_turnaround_us:.0f} us)"
    )

    nfs_ck = nfs_read_stream(
        build_case_study().kernel, file_bytes=FILE_BYTES, with_checksums=True
    )
    print(
        f"  NFS, UDP checksums ON  : {nfs_ck.throughput_kbps:7.0f} kb/s "
        f"(mean RPC turnaround {nfs_ck.mean_turnaround_us:.0f} us)"
    )

    ftp = network_receive(
        build_case_study().kernel, total_packets=FILE_BYTES // 1024
    )
    print(f"  FTP-style TCP stream   : {ftp.throughput_kbps:7.0f} kb/s")

    print(
        f"\nThe inversion holds: checksum-free NFS is "
        f"{100 * (nfs.throughput_kbps / ftp.throughput_kbps - 1):.0f}% faster "
        "than TCP on this CPU-bound receiver, and turning checksums on "
        f"costs NFS {100 * (1 - nfs_ck.throughput_kbps / nfs.throughput_kbps):.0f}%."
    )

    print(
        "\nRPC turnaround distribution (the measurement the paper says the "
        "Profiler made easy):"
    )
    from repro.analysis.callstack import CallTreeAnalysis

    hist = histogram_for(
        CallTreeAnalysis(
            roots=[], anomalies=[], wall_us=0, idle_us=0,
            unattributed_us=0, event_count=0, context_switches=0, procs=(),
        ),
        "rpc_turnaround",
        buckets=8,
        samples=nfs.rpc_turnaround_us,
    )
    print(hist.format())


if __name__ == "__main__":
    main()
