"""Wire-format header codecs: Ethernet, IP, TCP, UDP.

Real byte-level encode/decode (network byte order throughout), so the
checksums the kernel computes are real ones-complement checksums over
real packets — a corrupted frame genuinely fails verification, which the
tests exercise.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

ETHER_HDR_LEN = 14
ETHERTYPE_IP = 0x0800
IP_HDR_LEN = 20
TCP_HDR_LEN = 20
UDP_HDR_LEN = 8

IPPROTO_TCP = 6
IPPROTO_UDP = 17

TH_FIN = 0x01
TH_SYN = 0x02
TH_RST = 0x04
TH_PUSH = 0x08
TH_ACK = 0x10


def cksum_bytes(data: bytes, initial: int = 0) -> int:
    """RFC 1071 ones-complement sum (not yet folded/inverted)."""
    total = initial
    length = len(data)
    for i in range(0, length - 1, 2):
        total += (data[i] << 8) | data[i + 1]
    if length % 2:
        total += data[-1] << 8
    return total


def cksum_fold(total: int) -> int:
    """Fold carries and invert: the final 16-bit checksum value."""
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def internet_checksum(data: bytes) -> int:
    """The complete Internet checksum of *data*."""
    return cksum_fold(cksum_bytes(data))


class EtherHeader(NamedTuple):
    """The 14-byte Ethernet header."""

    dst: bytes
    src: bytes
    ether_type: int = ETHERTYPE_IP

    def pack(self) -> bytes:
        if len(self.dst) != 6 or len(self.src) != 6:
            raise ValueError("Ethernet addresses must be 6 bytes")
        return self.dst + self.src + struct.pack("!H", self.ether_type)

    @classmethod
    def unpack(cls, blob: bytes) -> "EtherHeader":
        if len(blob) < ETHER_HDR_LEN:
            raise ValueError(f"short Ethernet header: {len(blob)} bytes")
        (ether_type,) = struct.unpack("!H", blob[12:14])
        return cls(dst=blob[0:6], src=blob[6:12], ether_type=ether_type)


class IpHeader(NamedTuple):
    """The 20-byte IPv4 header (no options)."""

    total_len: int
    ident: int
    ttl: int
    proto: int
    src: int
    dst: int
    cksum: int = 0

    def pack(self, with_checksum: bool = True) -> bytes:
        header = struct.pack(
            "!BBHHHBBHII",
            0x45,
            0,
            self.total_len,
            self.ident,
            0,
            self.ttl,
            self.proto,
            0,
            self.src,
            self.dst,
        )
        if not with_checksum:
            return header
        value = internet_checksum(header)
        return header[:10] + struct.pack("!H", value) + header[12:]

    @classmethod
    def unpack(cls, blob: bytes) -> "IpHeader":
        if len(blob) < IP_HDR_LEN:
            raise ValueError(f"short IP header: {len(blob)} bytes")
        fields = struct.unpack("!BBHHHBBHII", blob[:IP_HDR_LEN])
        if fields[0] != 0x45:
            raise ValueError(f"not an options-free IPv4 header: {fields[0]:#x}")
        return cls(
            total_len=fields[2],
            ident=fields[3],
            ttl=fields[5],
            proto=fields[6],
            cksum=fields[7],
            src=fields[8],
            dst=fields[9],
        )

    def verify(self, blob: bytes) -> bool:
        """True when the header's checksum is consistent."""
        return internet_checksum(blob[:IP_HDR_LEN]) == 0


def pseudo_header(src: int, dst: int, proto: int, length: int) -> bytes:
    """The TCP/UDP pseudo-header for checksumming."""
    return struct.pack("!IIBBH", src, dst, 0, proto, length)


class TcpHeader(NamedTuple):
    """The 20-byte TCP header (no options)."""

    sport: int
    dport: int
    seq: int
    ack: int
    flags: int
    win: int = 4096
    cksum: int = 0

    def pack(self) -> bytes:
        return struct.pack(
            "!HHIIBBHHH",
            self.sport,
            self.dport,
            self.seq,
            self.ack,
            (TCP_HDR_LEN // 4) << 4,
            self.flags,
            self.win,
            self.cksum,
            0,
        )

    def pack_with_checksum(self, src: int, dst: int, payload: bytes) -> bytes:
        """Encode with a valid checksum over pseudo-header + payload."""
        base = self._replace(cksum=0).pack()
        total_len = TCP_HDR_LEN + len(payload)
        value = cksum_fold(
            cksum_bytes(
                pseudo_header(src, dst, IPPROTO_TCP, total_len) + base + payload
            )
        )
        return base[:16] + struct.pack("!H", value) + base[18:]

    @classmethod
    def unpack(cls, blob: bytes) -> "TcpHeader":
        if len(blob) < TCP_HDR_LEN:
            raise ValueError(f"short TCP header: {len(blob)} bytes")
        fields = struct.unpack("!HHIIBBHHH", blob[:TCP_HDR_LEN])
        return cls(
            sport=fields[0],
            dport=fields[1],
            seq=fields[2],
            ack=fields[3],
            flags=fields[5],
            win=fields[6],
            cksum=fields[7],
        )


def build_ip_frame(
    src: int,
    dst: int,
    proto: int,
    transport: bytes,
    ident: int = 0,
    dst_mac: bytes = b"\x00\x00\x1c\x33\x44\x55",
    src_mac: bytes = b"\x08\x00\x20\x12\x34\x56",
) -> bytes:
    """Assemble a complete Ethernet frame around a transport payload.

    Used by simulated remote hosts (the SPARC sender, the NFS server) to
    put real, checksum-valid packets on the wire.
    """
    ip = IpHeader(
        total_len=IP_HDR_LEN + len(transport),
        ident=ident,
        ttl=64,
        proto=proto,
        src=src,
        dst=dst,
    )
    frame = EtherHeader(dst=dst_mac, src=src_mac).pack() + ip.pack() + transport
    if len(frame) < 60:
        frame = frame + bytes(60 - len(frame))
    return frame


def build_tcp_frame(
    src: int,
    dst: int,
    sport: int,
    dport: int,
    seq: int,
    ack: int,
    flags: int,
    payload: bytes = b"",
    ident: int = 0,
) -> bytes:
    """A full TCP/IP Ethernet frame with valid checksums."""
    th = TcpHeader(sport=sport, dport=dport, seq=seq, ack=ack, flags=flags)
    transport = th.pack_with_checksum(src, dst, payload) + payload
    return build_ip_frame(src, dst, IPPROTO_TCP, transport, ident=ident)


def build_udp_frame(
    src: int,
    dst: int,
    sport: int,
    dport: int,
    payload: bytes,
    with_checksum: bool = False,
    ident: int = 0,
) -> bytes:
    """A full UDP/IP Ethernet frame; checksum optional (NFS leaves it off)."""
    uh = UdpHeader(sport=sport, dport=dport, length=UDP_HDR_LEN + len(payload))
    if with_checksum:
        transport = uh.pack_with_checksum(src, dst, payload) + payload
    else:
        transport = uh.pack() + payload
    return build_ip_frame(src, dst, IPPROTO_UDP, transport, ident=ident)


class UdpHeader(NamedTuple):
    """The 8-byte UDP header."""

    sport: int
    dport: int
    length: int
    cksum: int = 0

    def pack(self) -> bytes:
        return struct.pack("!HHHH", self.sport, self.dport, self.length, self.cksum)

    def pack_with_checksum(self, src: int, dst: int, payload: bytes) -> bytes:
        base = self._replace(cksum=0).pack()
        value = cksum_fold(
            cksum_bytes(
                pseudo_header(src, dst, IPPROTO_UDP, self.length) + base + payload
            )
        )
        if value == 0:
            value = 0xFFFF
        return base[:6] + struct.pack("!H", value)

    @classmethod
    def unpack(cls, blob: bytes) -> "UdpHeader":
        if len(blob) < UDP_HDR_LEN:
            raise ValueError(f"short UDP header: {len(blob)} bytes")
        fields = struct.unpack("!HHHH", blob[:UDP_HDR_LEN])
        return cls(sport=fields[0], dport=fields[1], length=fields[2], cksum=fields[3])
