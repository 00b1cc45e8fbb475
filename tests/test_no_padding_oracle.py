"""A padding failure after a valid tag must look exactly like a tag mismatch.

Honest seals always pad correctly, so the padding branch of ``open_*`` is
only reachable with a message forged from the public encoders: it carries
a valid tag over block-aligned bytes that are not PKCS#7 padded.
"""

import pytest

from composed_tweakable import encrypt as tweak_encrypt  # by hand, not through tortoise.tweakable
from tortoise.aead import OPEN, AeadMode, AuthenticationError, compute_auth, nonce_length, pkcs7_pad
from tortoise.block_cipher import AES128
from tortoise.cli import Envelope, main, pack_envelope
from tortoise.tweakable import (
    TweakableKey,
    encode_mr_stream_tweaks,
    encode_mr_tag_tweak,
    encode_nr_msg_tweaks,
    xor_bytes,
)

KEY_HEX = "000102030405060708090a0b0c0d0e0f"
KEY = TweakableKey(bytes.fromhex(KEY_HEX), AES128)
AD = b"record header"
BAD_PAD = b"sixteen bytes!!\x00"  # a last byte of 0x00 is never valid padding


def _forge_nr(nonce: bytes, padded: bytes) -> tuple[bytes, bytes]:
    blocks = [padded[i : i + 16] for i in range(0, len(padded), 16)]
    checksum = bytes(16)
    for p in blocks:
        checksum = xor_bytes(checksum, p)
    m = len(blocks)
    ct = b"".join(tweak_encrypt(KEY, t, p) for t, p in zip(encode_nr_msg_tweaks(0, nonce, range(m)), blocks))
    ftag = tweak_encrypt(KEY, encode_nr_msg_tweaks(1, nonce, range(m, m + 1))[0], checksum)
    return ct, xor_bytes(ftag, compute_auth(KEY, AD))


def _forge_mr(nonce: bytes, padded: bytes) -> tuple[bytes, bytes]:
    blocks = [padded[i : i + 16] for i in range(0, len(padded), 16)]
    acc = compute_auth(KEY, AD)
    for t, p in zip(encode_nr_msg_tweaks(0, nonce[:8], range(len(blocks))), blocks):
        acc = xor_bytes(acc, tweak_encrypt(KEY, t, p))
    tag = tweak_encrypt(KEY, encode_mr_tag_tweak(nonce), acc)
    stream = (tweak_encrypt(KEY, t, b"\x00" + nonce) for t in encode_mr_stream_tweaks(tag, range(len(blocks))))
    return b"".join(map(xor_bytes, blocks, stream)), tag


FORGE = {AeadMode.NONCE_RESPECTING: _forge_nr, AeadMode.MISUSE_RESISTANT: _forge_mr}


def _flip(tag: bytes) -> bytes:
    return xor_bytes(tag, b"\x01" + bytes(15))


@pytest.mark.parametrize("mode", list(AeadMode))
def test_forger_matches_seal(mode):
    nonce = bytes(range(nonce_length(mode)))
    ct, tag = FORGE[mode](nonce, pkcs7_pad(b"well padded", 16))
    assert OPEN[mode](KEY, nonce, AD, ct, tag) == b"well padded"


@pytest.mark.parametrize("mode", list(AeadMode))
def test_bad_padding_raises_like_bad_tag(mode):
    nonce = bytes(range(nonce_length(mode)))
    ct, tag = FORGE[mode](nonce, BAD_PAD)
    with pytest.raises(AuthenticationError) as bad_pad:
        OPEN[mode](KEY, nonce, AD, ct, tag)
    with pytest.raises(AuthenticationError) as bad_tag:
        OPEN[mode](KEY, nonce, AD, ct, _flip(tag))
    assert bad_pad.value.args == bad_tag.value.args == ("authentication failed",)
    assert bad_pad.value.__cause__ is None and bad_pad.value.__context__ is None


@pytest.mark.parametrize("mode", list(AeadMode))
def test_cli_bad_padding_exits_like_bad_tag(tmp_path, capsys, mode):
    nonce = bytes(range(nonce_length(mode)))
    ct, tag = FORGE[mode](nonce, BAD_PAD)
    outcomes = []
    for name, t in (("pad", tag), ("tag", _flip(tag))):
        env, out = tmp_path / f"{name}.tort", tmp_path / f"{name}.out"
        env.write_bytes(pack_envelope(Envelope(mode, nonce, t, ct)))
        argv = ["decrypt", "--key-hex", KEY_HEX, "--ad-hex", AD.hex(), "--in", str(env), "--out", str(out)]
        rc = main(argv)
        captured = capsys.readouterr()
        outcomes.append((rc, captured.out, captured.err.encode(), out.exists()))
    assert outcomes[0] == outcomes[1] == (2, "", b"error: authentication failed\n", False)
