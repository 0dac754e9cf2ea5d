"""The networking subsystem: mbufs up through sockets.

The paper's hottest code: the TCP receive test saturates the CPU with
``bcopy`` (the WD8003E's 8-bit ISA copy, 33.6% of time) and ``in_cksum``
(the unoptimised C checksum, 30.8%), with the ``spl*`` synchronisation
adding another ~9%.  Every function named in Figures 3 and 4 exists here
and does real work on real packet bytes: checksums verify, TCP sequence
numbers advance, sockets buffer mbuf chains.
"""

from __future__ import annotations

from typing import Any

from repro.kernel.intr import IPL_NET


class Netstack:
    """Kernel-wide networking state."""

    def __init__(self, kernel: Any) -> None:
        self.k = kernel
        #: The IP input queue (mbuf chains queued by ether_input).
        self.ipintrq: list[Any] = []
        self.ipintrq_maxlen = 50
        #: TCP and UDP protocol control blocks.
        self.tcb: list[Any] = []
        self.udb: list[Any] = []
        #: Attached interfaces by name.
        self.interfaces: dict[str, Any] = {}
        #: IP ident counter.
        self.ip_id = 1
        #: Local address (one interface, one address).
        self.local_addr = 0x0A000001  # 10.0.0.1


def netboot(kernel: Any) -> Netstack:
    """Initialise the network stack and attach the Ethernet interface."""
    from repro.kernel.net.if_we import EtherWire, WeDevice
    from repro.kernel.net.ip import ipintr

    stack = Netstack(kernel)
    wire = EtherWire()
    we0 = WeDevice(wire=wire)
    kernel.machine.attach(we0)
    we0.kernel = kernel
    stack.interfaces["we0"] = we0
    stack.wire = wire

    def run_netisr() -> None:
        ipintr(kernel)

    kernel.register_soft_interrupt("net", IPL_NET, run_netisr)
    return stack
