"""Property fuzzing of the two parsers that read untrusted input."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tortoise.cli import Envelope, EnvelopeError, parse_envelope
from tortoise.kat import KatRecord, parse_kat_text

# Envelope-shaped inputs get past the magic check, so every later field is reached too.
_SHAPED = st.builds(
    lambda version, mode, nonce_len, ct_len, body: (
        b"TORT" + bytes([version, mode, nonce_len]) + body[: nonce_len + 16] + ct_len.to_bytes(8, "big")
        + body[nonce_len + 16 :]
    ),
    st.integers(0, 2),
    st.integers(0, 255),
    st.sampled_from([0, 1, 7, 8, 9, 15, 16, 255]),
    st.sampled_from([0, 1, 16, 17, 32, 2**63]),
    st.binary(max_size=120),
)
_ENVELOPES = st.one_of(st.binary(max_size=200), _SHAPED)

# Text built from the record grammar's own pieces, plus arbitrary text.
_PIECES = st.sampled_from(
    ["mode=nr", "mode=mr", "cipher=aes128", "cipher=toy", "key=", "ad=", "00", "0f", "ZZ", " ", "\n", "#", "="]
)
_KAT_TEXT = st.one_of(st.text(max_size=300), st.lists(_PIECES, max_size=60).map("".join))


@settings(max_examples=300)
@given(_ENVELOPES)
def test_parse_envelope_returns_envelope_or_raises_envelope_error(blob):
    try:
        env = parse_envelope(blob)
    except EnvelopeError:
        return
    assert isinstance(env, Envelope)


@settings(max_examples=300)
@given(_KAT_TEXT)
def test_parse_kat_text_never_raises(text):
    records, errors = parse_kat_text(text)
    assert all(isinstance(r, KatRecord) for r in records)
    assert all(isinstance(e, str) for e in errors)
