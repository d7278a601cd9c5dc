"""Property test: the wire decoders on arbitrary bytes and split points.

:class:`~repro.net.framing.MessageAssembler` is the one stream assembler
both ends of the process dataplane use, and the typed ``Message``
accessors are its decoders. Whatever bytes arrive, cut at whatever chunk
boundaries, the pair may only

* yield messages of a known type that decode cleanly, or
* raise :class:`~repro.net.framing.TruncatedStreamError`

— never a raw ``struct.error``/``IndexError`` that would escape a
receiver loop. Streams are built from framed messages with arbitrary
payloads (so every decoder sees malformed input) mixed with raw junk
(so the header checks see it too).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import framing
from repro.net.framing import MessageAssembler, TruncatedStreamError

#: Every type's decoder; EOS carries no payload to decode.
DECODERS = {
    framing.MSG_HELLO: framing.Message.hello,
    framing.MSG_DATA: framing.Message.data,
    framing.MSG_RESULT: framing.Message.result,
    framing.MSG_HEARTBEAT: framing.Message.heartbeat,
    framing.MSG_CONTROL: framing.Message.control,
    framing.MSG_EOS: lambda message: None,
    framing.MSG_BYE: framing.Message.bye,
    framing.MSG_DATA_BATCH: framing.Message.data_batch,
    framing.MSG_RESULT_BATCH: framing.Message.result_batch,
}

framed = st.builds(
    framing.encode,
    st.sampled_from(sorted(DECODERS)),
    st.binary(max_size=64),
)
junk = st.binary(min_size=1, max_size=16)
streams = st.lists(st.one_of(framed, framed, junk), max_size=6).map(
    b"".join
)


def _chunks(data: bytes, cuts: list[int]) -> list[bytes]:
    points = sorted({c % (len(data) + 1) for c in cuts})
    bounds = [0, *points, len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


def _decode_all(messages: list[framing.Message]) -> None:
    for message in messages:
        assert message.type in DECODERS
        assert len(message.payload) <= framing.MAX_PAYLOAD
        try:
            DECODERS[message.type](message)
        except TruncatedStreamError:
            pass


@settings(max_examples=400, deadline=None)
@given(data=streams, cuts=st.lists(st.integers(min_value=0), max_size=8))
def test_arbitrary_bytes_yield_messages_or_truncation(data, cuts):
    assembler = MessageAssembler()
    try:
        for chunk in _chunks(data, cuts):
            _decode_all(assembler.feed(chunk))
        assembler.eof()
    except TruncatedStreamError:
        pass


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(framed, max_size=6).map(b"".join),
    cuts=st.lists(st.integers(min_value=0), max_size=8),
)
def test_split_points_never_change_the_messages(data, cuts):
    whole = MessageAssembler().feed(data)
    assembler = MessageAssembler()
    pieces = []
    for chunk in _chunks(data, cuts):
        pieces.extend(assembler.feed(chunk))
    assembler.eof()
    assert pieces == whole
