"""Tests for the frame decoder and the trace-analysis CLI."""

import pytest

from repro.protocols import TcpSender, udp_frame
from repro.protocols.craft import ip_frame
from repro.protocols.decode import decode_frame, decode_frames, tcp_flags_text
from repro.protocols.icmp import IcmpMessage
from repro.protocols.ip import PROTO_ICMP
from repro.protocols.tcp import FLAG_ACK, FLAG_PSH, FLAG_SYN
from repro.trace.cli import analyze, main as trace_main
from repro.trace.io import save_trace


class TestFlagsText:
    def test_syn(self):
        assert tcp_flags_text(FLAG_SYN) == "S"

    def test_push_ack(self):
        assert tcp_flags_text(FLAG_PSH | FLAG_ACK) == "P."

    def test_none(self):
        assert tcp_flags_text(0) == "none"


class TestDecodeFrame:
    def test_tcp_syn(self):
        sender = TcpSender(src="10.0.0.9", dst="10.0.0.1", src_port=7777,
                           dst_port=80)
        text = decode_frame(sender.syn())
        assert "10.0.0.9.7777 > 10.0.0.1.80" in text
        assert "Flags [S]" in text

    def test_tcp_data_length(self):
        sender = TcpSender(src="10.0.0.9", dst="10.0.0.1", src_port=7777,
                           dst_port=80)
        sender.established = True
        text = decode_frame(sender.data(b"x" * 99))
        assert "length 99" in text

    def test_udp(self):
        frame = udp_frame("10.0.0.9", "10.0.0.1", 5353, 53, b"q" * 20)
        text = decode_frame(frame)
        assert "UDP, length 20" in text
        assert "10.0.0.9.5353 > 10.0.0.1.53" in text

    def test_icmp(self):
        ping = IcmpMessage.echo_request(5, 9, b"hi").serialize()
        frame = ip_frame("10.0.0.9", "10.0.0.1", PROTO_ICMP, ping)
        text = decode_frame(frame)
        assert "ICMP echo request" in text
        assert "id 5, seq 9" in text

    def test_fragment(self):
        from repro.protocols import fragment_datagram
        from repro.protocols.ip import IPv4Address, IPv4Header, PROTO_UDP
        from repro.protocols import ethernet
        from repro.protocols.ethernet import MacAddress

        header = IPv4Header(
            src=IPv4Address.parse("10.0.0.9"),
            dst=IPv4Address.parse("10.0.0.1"),
            protocol=PROTO_UDP,
            total_length=0,
            identification=42,
        )
        fragments = fragment_datagram(header, b"z" * 1200, mtu=576)
        frame = ethernet.frame(
            MacAddress.parse("02:00:00:00:00:02"),
            MacAddress.parse("02:00:00:00:00:01"),
            ethernet.ETHERTYPE_IP,
            fragments[1],
        )
        text = decode_frame(frame)
        assert "frag id 42" in text

    def test_non_ip(self):
        frame = b"\xff" * 12 + b"\x08\x06" + b"\x00" * 50
        assert "ethertype 0x0806" in decode_frame(frame)

    def test_garbage_never_raises(self):
        assert "undecodable" in decode_frame(b"\x01\x02\x03")
        assert "undecodable" in decode_frame(b"")

    def test_decode_frames_numbered(self):
        frame = udp_frame("10.0.0.9", "10.0.0.1", 1, 2, b"x")
        text = decode_frames([frame, frame])
        assert text.splitlines()[0].startswith("   0")
        assert len(text.splitlines()) == 2


class TestTraceCli:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        from repro.trace import RefKind, TraceBuffer

        trace = TraceBuffer()
        trace.mark_phase("entry")
        trace.enter("fn_a")
        trace.append(RefKind.CODE, 0, 4)
        trace.append(RefKind.READ, 1000, 8)
        trace.enter("fn_b")
        trace.append(RefKind.WRITE, 2000, 4)
        trace.leave()
        trace.leave()
        trace.mark_phase("exit")
        trace.enter("fn_c")
        trace.append(RefKind.CODE, 64, 4)
        trace.leave()
        path = tmp_path / "small.trace"
        save_trace(trace, path)
        return str(path)

    def test_analyze_sections(self, trace_file):
        report = analyze(trace_file)
        assert "4 references" in report
        assert "working set" in report
        assert "entry:" in report
        assert "exit:" in report

    def test_analyze_callgraph(self, trace_file):
        report = analyze(trace_file, callgraph=True)
        assert "fn_a" in report
        assert "  fn_b" in report

    def test_analyze_line_sizes(self, trace_file):
        report = analyze(trace_file, line_sizes=True)
        assert "line-size sensitivity" in report
        assert " 64 B" in report

    def test_main(self, trace_file, capsys):
        assert trace_main([trace_file, "--callgraph", "--line-sizes"]) == 0
        out = capsys.readouterr().out
        assert "call graph" in out

    def test_real_receive_path_trace_roundtrip(self, tmp_path):
        """The CLI digests the full 65k-reference NetBSD trace."""
        from repro.netbsd import ReceivePathModel

        model = ReceivePathModel(seed=0)
        path = tmp_path / "receive.trace"
        save_trace(model.build_trace(), path)
        report = analyze(str(path))
        assert "pkt intr" in report
        assert "code" in report
