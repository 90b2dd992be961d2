"""Frame codec tests: one wire, every message, clean rejection of junk.

The contract the distributed runtime rests on:

* **Codec oracle** — for *every* registered message type, arbitrary
  instances survive the frame codec unchanged (hypothesis-driven, bulk
  bytes included), and bulk bytes travel raw rather than re-encoded;
* ``MAX_FRAME_BYTES`` is enforced on the **send** side with a clear local
  exception, and on the **receive** side by closing the connection;
* a body without the frame tag, or truncated, is rejected: the reading
  connection closes and fails its pending requests with
  :class:`ConnectionClosedError`, and its reader task ends cleanly;
* ``storage_batch`` op groups round-trip with per-op payloads and per-op
  errors intact.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.rpc import framing, messages as m
from repro.rpc.framing import (
    ConnectionClosedError,
    FrameTooLargeError,
    RpcConnection,
    RpcError,
    decode_frame,
    frame_bytes,
)
from repro.storage.base import StorageOp, StorageOpResult

# --------------------------------------------------------------------- #
# The codec oracle
# --------------------------------------------------------------------- #
_KEYS = st.text(max_size=12)
_BLOB = st.binary(max_size=128)


@st.composite
def _message(draw, cls):
    """An arbitrary instance of one wire-message dataclass.

    Field strategies are inferred from each field's default value — the
    schema rule that every field defaults (tested in test_rpc_messages)
    makes this total.
    """
    kwargs = {}
    for f in dataclasses.fields(cls):
        default = f.default if f.default is not dataclasses.MISSING else f.default_factory()
        if f.name in cls.BYTES_MAP_FIELDS:
            kwargs[f.name] = draw(
                st.dictionaries(_KEYS, st.one_of(st.none(), _BLOB), max_size=4)
            )
        elif f.name in cls.BYTES_LIST_FIELDS:
            kwargs[f.name] = draw(st.lists(_BLOB, max_size=4))
        elif isinstance(default, bool):
            kwargs[f.name] = draw(st.booleans())
        elif isinstance(default, int):
            kwargs[f.name] = draw(st.integers(min_value=0, max_value=2**31))
        elif isinstance(default, float):
            kwargs[f.name] = draw(
                st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)
            )
        elif isinstance(default, str):
            kwargs[f.name] = draw(st.text(max_size=16))
        elif isinstance(default, list):
            kwargs[f.name] = draw(st.lists(st.text(max_size=8), max_size=4))
        elif isinstance(default, dict):
            kwargs[f.name] = draw(
                st.dictionaries(_KEYS, st.integers(min_value=0, max_value=999), max_size=3)
            )
        else:  # pragma: no cover - new field kinds must be added here
            raise AssertionError(f"no strategy for {cls.TYPE}.{f.name} (default {default!r})")
    return cls(**kwargs)


def _envelope(message: m.WireMessage, **ids) -> dict:
    msg_type, body = m.encode_body(message)
    return {**ids, "type": msg_type, "body": body}


def _round_trip(message: m.WireMessage) -> m.WireMessage:
    """Encode through the full frame codec (length prefix included) and back."""
    envelope = decode_frame(frame_bytes(_envelope(message, id=1))[4:])
    return m.decode_body(envelope["type"], envelope["body"])


@pytest.mark.parametrize("cls", sorted(m.MESSAGE_TYPES.values(), key=lambda c: c.TYPE), ids=lambda c: c.TYPE)
class TestCodecOracle:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_frame_round_trip(self, cls, data):
        message = data.draw(_message(cls))
        assert _round_trip(message) == message


class TestFrameLayout:
    def test_bulk_payload_travels_raw(self):
        blob = bytes(range(256)) * 8
        frame = frame_bytes(_envelope(m.ClientValues(values={"key": blob}), re=1))
        assert frame[4:5] == b"\x01"
        assert blob in frame  # verbatim bytes, no inflation
        assert len(frame) < len(blob) + 128

    def test_error_reply_envelope_has_no_body(self):
        envelope = {"re": 9, "error": m.error_to_wire(errors.FencedNodeError("stale epoch"))}
        decoded = decode_frame(frame_bytes(envelope)[4:])
        assert decoded["re"] == 9
        assert decoded["error"]["kind"] == "fenced"


class TestSendSideLimit:
    def test_oversized_outgoing_frame_is_rejected_locally(self, monkeypatch):
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 512)
        envelope = _envelope(m.ClientPut(txid="t", items={"k": b"x" * 4096}), id=1)
        with pytest.raises(FrameTooLargeError, match="exceeds the 512-byte limit"):
            frame_bytes(envelope)

    def test_frames_under_the_limit_pass(self):
        assert frame_bytes(_envelope(m.Heartbeat(node_id="n0")))


def _length_prefixed(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


def _tagged(header: bytes, payload: bytes = b"") -> bytes:
    return b"\x01" + len(header).to_bytes(4, "big") + header + payload


#: Frame bodies a reader must refuse.  The first is what a JSON-era peer
#: sent: a bare JSON envelope with no tag byte.
_JUNK_BODIES = {
    "json-era": b'{"re":1,"type":"info_reply","v":1,"body":{}}',
    "random-bytes": bytes(random.Random(7).getrandbits(8) for _ in range(64)),
    "truncated-header": _tagged(b'{"re":1,"type":"info_reply","body":{}}')[:20],
    "truncated-payload": _tagged(b'{"re":1,"type":"client_values","body":{"values":{"k":[0,99]}}}', b"short"),
    "header-not-an-object": _tagged(b"[]"),
}


class TestMalformedFrames:
    @pytest.mark.parametrize("body", list(_JUNK_BODIES.values()), ids=list(_JUNK_BODIES))
    def test_decode_frame_raises_rpc_error(self, body):
        with pytest.raises(RpcError, match="malformed frame"):
            decode_frame(body)

    @pytest.mark.parametrize(
        "frame",
        [_length_prefixed(body) for body in _JUNK_BODIES.values()]
        + [(framing.MAX_FRAME_BYTES + 1).to_bytes(4, "big")],
        ids=[*_JUNK_BODIES, "oversized-length-prefix"],
    )
    def test_junk_reply_closes_the_connection(self, frame):
        """A live connection answered with junk fails the pending request and
        closes; its reader task ends without an exception of its own."""

        async def scenario():
            async def accept(reader, writer):
                (length,) = framing._LENGTH.unpack(await reader.readexactly(4))
                await reader.readexactly(length)
                writer.write(frame)
                await writer.drain()
                await reader.read()  # hold the socket open until the client closes
                writer.close()

            server = await asyncio.start_server(accept, "127.0.0.1", 0)
            conn = await framing.connect("127.0.0.1", server.sockets[0].getsockname()[1])
            reader_task = conn._reader_task
            try:
                with pytest.raises(ConnectionClosedError):
                    await conn.request(m.Info(), timeout=5.0)
                await asyncio.wait_for(reader_task, 5.0)  # re-raises a reader crash
                assert conn.is_closed
            finally:
                await conn.close()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())


class TestStorageOpBatchCodec:
    def test_ops_round_trip_with_payloads(self):
        ops = [
            StorageOp(op="multi_put", keys=("a", "b"), items={"a": b"1", "b": b"22"}),
            StorageOp(op="get", keys=("c",)),
            StorageOp(op="multi_delete", keys=("d", "e")),
            StorageOp(op="list", prefix="aft.commit"),
        ]
        back = m.decode_storage_ops(m.encode_storage_ops(ops))
        assert back == ops

    def test_results_round_trip_with_per_op_errors(self):
        results = [
            StorageOpResult(values={"a": b"1", "missing": None}),
            StorageOpResult(error=errors.FencedNodeError("stale epoch 3")),
            StorageOpResult(keys=["k1", "k2"]),
            StorageOpResult(),
        ]
        back = m.decode_storage_results(m.encode_storage_results(results))
        assert back[0].values == {"a": b"1", "missing": None}
        assert isinstance(back[1].error, errors.FencedNodeError)
        assert "stale epoch 3" in str(back[1].error)
        assert back[2].keys == ["k1", "k2"]
        assert back[3].values is None and back[3].error is None

    def test_batch_frames_survive_the_wire(self):
        ops = [StorageOp(op="put", keys=("k",), items={"k": b"\xff" * 32})]
        assert m.decode_storage_ops(_round_trip(m.encode_storage_ops(ops))) == ops


class TestConnectionCounters:
    def test_counters_track_both_directions(self):
        async def scenario():
            server_conns = []

            async def handler(conn, msg):
                return m.Ok()

            async def accept(reader, writer):
                conn = RpcConnection(reader, writer, handler=handler, name="server")
                conn.start()
                server_conns.append(conn)

            server = await asyncio.start_server(accept, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            conn = await framing.connect("127.0.0.1", port, name="client")
            for _ in range(3):
                await conn.request(m.Info(), timeout=5.0)
            stats = conn.stats
            await conn.close()
            server.close()
            await server.wait_closed()
            return stats

        stats = asyncio.run(scenario())
        assert stats.frames_sent == 3 and stats.frames_received == 3
        assert stats.bytes_sent > 0 and stats.bytes_received > 0
