from __future__ import annotations

import threading

import numpy as np
import pytest

from m2mlat.errors import MalformedPacket
from m2mlat.probe import (
    KIND_REQUEST,
    KIND_RESPONSE,
    PACKET_SIZE,
    ProbePacket,
    ProbeResult,
    complete_exchange,
    decode_packet,
    encode_packet,
    open_socket,
    respond,
    run_requester,
    run_responder,
)


class TestWireFormat:
    def test_packet_is_exactly_40_bytes(self):
        data = encode_packet(ProbePacket(KIND_REQUEST, 7, 123))
        assert len(data) == PACKET_SIZE == 40
        assert data[:4] == b"M2MP"
        assert data[4] == 1
        assert data[-8:] == b"\x00" * 8

    def test_round_trip(self):
        packet = ProbePacket(KIND_RESPONSE, 65_535, 2**62, 5, 6)
        assert decode_packet(encode_packet(packet)) == packet

    def test_big_endian_layout(self):
        data = encode_packet(ProbePacket(KIND_REQUEST, 0x0102, 0x0A))
        assert data[6:8] == b"\x01\x02"
        assert data[8:16] == b"\x00" * 7 + b"\x0a"

    def test_rejects_bad_magic(self):
        data = bytearray(encode_packet(ProbePacket(KIND_REQUEST, 1, 2)))
        data[0:4] = b"XXXX"
        with pytest.raises(MalformedPacket):
            decode_packet(bytes(data))

    def test_rejects_bad_version_kind_length(self):
        data = bytearray(encode_packet(ProbePacket(KIND_REQUEST, 1, 2)))
        data[4] = 9
        with pytest.raises(MalformedPacket):
            decode_packet(bytes(data))
        data[4] = 1
        data[5] = 7
        with pytest.raises(MalformedPacket):
            decode_packet(bytes(data))
        with pytest.raises(MalformedPacket):
            decode_packet(b"short")


class TestResponder:
    def test_fills_receive_and_send_stamps(self):
        req = encode_packet(ProbePacket(KIND_REQUEST, 42, 1_000))
        reply = respond(req, recv_ns=5_000, send_ns=6_000)
        packet = decode_packet(reply)
        assert packet == ProbePacket(KIND_RESPONSE, 42, 1_000, 5_000, 6_000)

    def test_ignores_responses_and_garbage(self):
        resp = encode_packet(ProbePacket(KIND_RESPONSE, 1, 2, 3, 4))
        assert respond(resp, 0, 0) is None
        assert respond(b"not a probe", 0, 0) is None


def _exchange_through_packets(theta, d1, d2, proc, t0=10**12, seq=5):
    """Drive the real encode/respond/decode path against simulated clocks.

    The local clock is the reference; the remote clock reads local + theta.
    """
    t1 = t0
    request = encode_packet(ProbePacket(KIND_REQUEST, seq, t1))
    recv_ns = t0 + d1 + theta
    send_ns = recv_ns + proc
    reply = respond(request, recv_ns, send_ns)
    packet = decode_packet(reply)
    t4 = t0 + d1 + proc + d2
    return complete_exchange(packet.seq, packet.t1, packet.t2, packet.t3, t4)


class TestInProcessHarness:
    def test_symmetric_delays_recover_offset_exactly(self):
        for theta in (0, 10_000_000, -3_456_789):
            sample = _exchange_through_packets(theta, d1=1_000_000, d2=1_000_000, proc=500)
            assert sample.offset_ns == theta
            assert sample.rtt_ns == 2_000_000

    def test_asymmetry_bias_over_random_cases(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            theta = int(rng.integers(-(10**8), 10**8))
            d1 = int(rng.integers(0, 10**8))
            d2 = int(rng.integers(0, 10**8))
            proc = int(rng.integers(0, 10**6))
            sample = _exchange_through_packets(theta, d1, d2, proc)
            assert sample.offset_ns - theta == (d1 - d2) / 2
            assert sample.rtt_ns == d1 + d2

    def test_negative_rtt_is_reported_not_aggregated(self):
        # remote stamps claim more processing time than the whole round trip
        result = ProbeResult()
        request = encode_packet(ProbePacket(KIND_REQUEST, 1, 1_000))
        reply = respond(request, recv_ns=2_000, send_ns=10_000_000)
        packet = decode_packet(reply)
        from m2mlat.errors import NegativeRtt

        with pytest.raises(NegativeRtt):
            complete_exchange(packet.seq, packet.t1, packet.t2, packet.t3, 5_000)
        result.negative_rtt.append((packet.seq, packet.t1, packet.t2, packet.t3, 5_000))
        assert len(result.samples) == 0
        assert len(result.negative_rtt) == 1


class TestLoopback:
    def test_udp_round_trip_on_localhost(self):
        sock = open_socket("127.0.0.1", 0)
        port = sock.getsockname()[1]
        stop = threading.Event()
        thread = threading.Thread(
            target=run_responder,
            args=(sock,),
            kwargs={"stop": stop, "max_packets": 4},
            daemon=True,
        )
        thread.start()
        try:
            result = run_requester(("127.0.0.1", port), 4, 1.0, timeout_ms=3000)
        finally:
            stop.set()
            thread.join(timeout=3)
            sock.close()
        assert len(result.samples) == 4
        assert result.lost == 0
        # same physical clock on both ends: offset is scheduling noise only
        assert all(abs(s.offset_ns) < 100_000_000 for s in result.samples)
        assert all(s.rtt_ns >= 0 for s in result.samples)
        assert [s.seq for s in result.samples] == [0, 1, 2, 3]

    def test_reply_must_echo_seq_and_t1(self):
        # a stale reply with the current seq but another t1 arrives first
        sock = open_socket("127.0.0.1", 0)
        sock.settimeout(3.0)

        def answer_twice():
            data, addr = sock.recvfrom(2048)
            req = decode_packet(data)
            for t1, t2 in ((req.t1 - 1, 99), (req.t1, 7_000)):
                sock.sendto(encode_packet(ProbePacket(KIND_RESPONSE, req.seq, t1, t2, t2)), addr)

        thread = threading.Thread(target=answer_twice, daemon=True)
        thread.start()
        clock = iter(range(1_000, 10**6, 1_000)).__next__
        try:
            result = run_requester(sock.getsockname(), 1, 0.0, clock=clock, timeout_ms=3000)
        finally:
            thread.join(timeout=3)
            sock.close()
        assert not thread.is_alive()
        assert result.lost == 0
        assert [(s.t1, s.t2) for s in result.samples] == [(1_000, 7_000)]

    def test_requester_counts_losses_when_nobody_answers(self):
        sock = open_socket("127.0.0.1", 0)
        port = sock.getsockname()[1]
        sock.close()  # nothing listening anymore
        result = run_requester(("127.0.0.1", port), 2, 1.0, timeout_ms=50)
        assert len(result.samples) == 0
        assert result.lost == 2


def test_result_csv():
    result = ProbeResult()
    result.samples.append(complete_exchange(0, 0, 1_000_000, 1_000_000, 2_000_000))
    text = result.to_csv()
    assert text.splitlines()[0] == "seq,t1,t2,t3,t4,offset_ns,rtt_ns"
    assert text.splitlines()[1] == "0,0,1000000,1000000,2000000,0.0,2000000"
