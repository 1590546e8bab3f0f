"""Datagram probe for live two-node offset estimation.

Wire format: connectionless UDP, fixed 40-byte payload, big-endian:

    magic    4 bytes  "M2MP"
    version  1 byte   1
    kind     1 byte   0 = request, 1 = response
    seq      2 bytes
    t1       8 bytes  requester send time, ns
    t2       8 bytes  responder receive time, ns (zero in requests)
    t3       8 bytes  responder send time, ns (zero in requests)
    reserved 8 bytes  zero

The responder stamps t2 on receipt and t3 just before replying; the
requester stamps t4 locally and completes the exchange with
``clocks.probe_offset``. Exchanges with a negative round trip are kept
out of the aggregates but still counted and reported.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from .clocks import probe_offset
from .errors import MalformedPacket, NegativeRtt
from .tables import write_table

PROBE_MAGIC = b"M2MP"
PROBE_VERSION = 1
KIND_REQUEST = 0
KIND_RESPONSE = 1
PACKET_SIZE = 40

_PACKET = struct.Struct(">4sBBHQQQ8x")


@dataclass(frozen=True)
class ProbePacket:
    kind: int
    seq: int
    t1: int
    t2: int = 0
    t3: int = 0


def encode_packet(packet: ProbePacket) -> bytes:
    data = _PACKET.pack(
        PROBE_MAGIC, PROBE_VERSION, packet.kind, packet.seq,
        packet.t1, packet.t2, packet.t3,
    )
    assert len(data) == PACKET_SIZE
    return data


def decode_packet(data: bytes) -> ProbePacket:
    if len(data) != PACKET_SIZE:
        raise MalformedPacket(f"expected {PACKET_SIZE} bytes, got {len(data)}")
    magic, version, kind, seq, t1, t2, t3 = _PACKET.unpack(data)
    if magic != PROBE_MAGIC:
        raise MalformedPacket(f"bad magic {magic!r}")
    if version != PROBE_VERSION:
        raise MalformedPacket(f"unsupported version {version}")
    if kind not in (KIND_REQUEST, KIND_RESPONSE):
        raise MalformedPacket(f"unknown kind {kind}")
    return ProbePacket(kind, seq, t1, t2, t3)


def respond(data: bytes, recv_ns: int, send_ns: int) -> bytes | None:
    """Build the response for one incoming datagram, or None to ignore it.

    Pure apart from the caller-supplied timestamps, so responder behavior
    is testable without sockets.
    """
    try:
        packet = decode_packet(data)
    except MalformedPacket:
        return None
    if packet.kind != KIND_REQUEST:
        return None
    return encode_packet(
        ProbePacket(KIND_RESPONSE, packet.seq, packet.t1, recv_ns, send_ns)
    )


@dataclass(frozen=True)
class ProbeSample:
    """One completed request/response exchange."""

    seq: int
    t1: int
    t2: int
    t3: int
    t4: int
    offset_ns: float
    rtt_ns: int


def complete_exchange(seq: int, t1: int, t2: int, t3: int, t4: int) -> ProbeSample:
    offset, rtt = probe_offset(t1, t2, t3, t4)
    return ProbeSample(seq, t1, t2, t3, t4, offset, rtt)


@dataclass
class ProbeResult:
    """Aggregate over a probe run; appended to by the requester, read as a
    snapshot by reporters."""

    samples: list[ProbeSample] = field(default_factory=list)
    negative_rtt: list[tuple[int, int, int, int, int]] = field(default_factory=list)
    lost: int = 0

    def to_csv(self) -> str:
        columns = ("seq", "t1", "t2", "t3", "t4", "offset_ns", "rtt_ns")
        return write_table(columns, [[getattr(s, c) for s in self.samples] for c in columns])


def open_socket(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.bind((host, port))
    except BaseException:
        sock.close()
        raise
    return sock


def run_responder(
    sock: socket.socket,
    *,
    clock=time.time_ns,
    stop: threading.Event | None = None,
    max_packets: int | None = None,
) -> int:
    """Answer probe requests on an already-bound socket.

    Runs until ``stop`` is set or ``max_packets`` requests were answered.
    Returns the number of responses sent.
    """
    sock.settimeout(0.2)
    answered = 0
    while max_packets is None or answered < max_packets:
        if stop is not None and stop.is_set():
            break
        try:
            data, addr = sock.recvfrom(2048)
        except socket.timeout:
            continue
        except OSError:
            break
        reply = respond(data, clock(), clock())
        if reply is not None:
            sock.sendto(reply, addr)
            answered += 1
    return answered


def run_requester(
    peer: tuple[str, int],
    count: int,
    interval_ms: float,
    *,
    clock=time.time_ns,
    timeout_ms: float = 1000.0,
    on_sample=None,
) -> ProbeResult:
    """Send ``count`` probe requests and collect completed exchanges."""
    result = ProbeResult()
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.settimeout(timeout_ms / 1000.0)
        for i in range(count):
            seq = i & 0xFFFF
            t1 = clock()
            sock.sendto(encode_packet(ProbePacket(KIND_REQUEST, seq, t1)), peer)
            response = _await_response(sock, seq, t1, timeout_ms, clock)
            if response is None:
                result.lost += 1
            else:
                packet, t4 = response
                try:
                    sample = complete_exchange(seq, packet.t1, packet.t2, packet.t3, t4)
                except NegativeRtt:
                    result.negative_rtt.append((seq, packet.t1, packet.t2, packet.t3, t4))
                else:
                    result.samples.append(sample)
                    if on_sample is not None:
                        on_sample(sample)
            if i + 1 < count and interval_ms > 0:
                time.sleep(interval_ms / 1000.0)
    finally:
        sock.close()
    return result


def _await_response(
    sock: socket.socket, seq: int, t1: int, timeout_ms: float, clock
) -> tuple[ProbePacket, int] | None:
    """The reply to the request sent at ``t1`` with ``seq``, and its receive time.

    A reply must echo both: the 16-bit seq wraps, so a late reply to an
    earlier request can carry the current seq, but not the current t1.
    """
    deadline = time.monotonic() + timeout_ms / 1000.0
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return None
        sock.settimeout(remaining)
        try:
            data, _ = sock.recvfrom(2048)
        except socket.timeout:
            return None
        t4 = clock()
        try:
            packet = decode_packet(data)
        except MalformedPacket:
            continue
        if packet.kind == KIND_RESPONSE and (packet.seq, packet.t1) == (seq, t1):
            return packet, t4
        # Stale or foreign datagram; keep waiting for the matching reply.
