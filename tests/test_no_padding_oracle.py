"""A padding failure after a valid tag must look exactly like a tag mismatch.

Honest seals always pad correctly, so the padding branch of ``open_*`` is
only reachable with a forged message: it carries a valid tag over
block-aligned bytes that are not PKCS#7 padded.  ``composed_tweakable.seal``,
the modes written out by hand, forges it, for AES-128 and for a cheap
cipher at block lengths from 1 to 255.
"""

import pytest

from composed_tweakable import pad, seal, xor, xor_spec
from tortoise import block_cipher
from tortoise.aead import OPEN, SEAL, AeadMode, AuthenticationError, nonce_length
from tortoise.block_cipher import AES128
from tortoise.cli import Envelope, main, pack_envelope
from tortoise.tweakable import TweakableKey

KEY_HEX = "000102030405060708090a0b0c0d0e0f"
KEY = TweakableKey(bytes.fromhex(KEY_HEX), AES128)
AD = b"record header"
BAD_PAD = b"sixteen bytes!!\x00"  # a last byte of 0x00 is never valid padding
BAD_PADS = [
    BAD_PAD,
    bytes([0x11]) * 16,  # a pad length above the block length
    bytes([0x11]) * 32,  # the same over enough bytes to repeat it
    bytes(14) + b"\x01\x02",  # a last byte of 2 over a tail that does not repeat it
    bytes(16) + BAD_PAD,  # the bad block after a whole one
]
# Block lengths other than AES's, from the smallest to the largest a spec may have.
OTHER_BLOCK_LENS = [1, 5, 32, 255]


def _bad_pads(n: int) -> dict[str, bytes]:
    """The faults of ``BAD_PADS`` at block length ``n``, where they exist.

    At n=1 no tail can be inconsistent, and at n=255 no byte is overlong.
    """
    zero = bytes(range(1, n)) + b"\x00"
    pads = {"zero": zero, "zero-after-a-block": bytes(n) + zero}
    if n < 255:
        pads["overlong"] = bytes([n + 1]) * n
        pads["overlong-over-two-blocks"] = bytes([n + 1]) * 2 * n
    if n > 1:
        pads["inconsistent"] = bytes(n - 2) + b"\x01\x02"
    return pads


def _other_key(n: int) -> tuple[TweakableKey, bytes]:
    """A key of the cheap spec of block length ``n``, and the AD it can carry: none at n=1, whose limit is one block."""
    return TweakableKey(b"\x5a", xor_spec(n)), AD if n > 1 else b""


def _flip(tag: bytes) -> bytes:
    return xor(tag, b"\x01" + bytes(len(tag) - 1))


def _assert_open_fails_like_bad_tag(key: TweakableKey, mode: AeadMode, nonce: bytes, ad: bytes, padded: bytes) -> None:
    ct, tag = seal(mode, key, nonce, ad, padded)
    with pytest.raises(AuthenticationError) as bad_pad:
        OPEN[mode](key, nonce, ad, ct, tag)
    with pytest.raises(AuthenticationError) as bad_tag:
        OPEN[mode](key, nonce, ad, ct, _flip(tag))
    assert bad_pad.value.args == bad_tag.value.args == ("authentication failed",)
    assert bad_pad.value.__cause__ is None and bad_pad.value.__context__ is None


# Padding of a whole block (empty), of one byte (15 bytes), of a whole block after an aligned one, and mid-block.
@pytest.mark.parametrize("pt", [b"", bytes(range(15)), bytes(16), b"well padded"], ids=len)
@pytest.mark.parametrize("mode", list(AeadMode))
def test_forger_matches_seal(mode, pt):
    nonce = bytes(range(nonce_length(mode)))
    ct, tag = seal(mode, KEY, nonce, AD, pad(pt, 16))
    sealed = SEAL[mode](KEY, nonce, AD, pt)
    assert (sealed.ciphertext, sealed.tag) == (ct, tag)
    assert OPEN[mode](KEY, nonce, AD, ct, tag) == pt


@pytest.mark.parametrize(
    "padded", BAD_PADS, ids=["zero", "overlong", "overlong-over-two-blocks", "inconsistent", "zero-after-a-block"]
)
@pytest.mark.parametrize("mode", list(AeadMode))
def test_bad_padding_raises_like_bad_tag(mode, padded):
    _assert_open_fails_like_bad_tag(KEY, mode, bytes(range(nonce_length(mode))), AD, padded)


def _held(value):
    """``value`` itself or, for a list or tuple, what each of its items holds, down through nested ones."""
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _held(item)
    else:
        yield value


def _assert_rejection_keeps_no_candidate(mode, fault, candidate):
    """Open ``candidate``, padded, so that it fails by ``fault``, and search the traceback's locals for it.

    The traceback of a rejected open keeps its frames' locals alive; none of
    them may hold a candidate block or the blocks' XOR, the nr checksum: not
    in bytes, and not as an integer, which for one block is the block itself;
    not as a local, and not as an item of a list or tuple that a local holds.
    A wrong AD fails the tag over well-padded blocks, a forgery the padding;
    either way the open has decrypted the candidate before it raises.
    """
    nonce = bytes(range(nonce_length(mode)))
    blocks = [candidate[i : i + 16] for i in range(0, len(candidate), 16)]
    checksum = 0
    for block in blocks:
        checksum ^= int.from_bytes(block, "big")
    secrets = blocks + [checksum.to_bytes(16, "big")]
    ct, tag = seal(mode, KEY, nonce, AD, candidate)
    with pytest.raises(AuthenticationError) as rejected:
        OPEN[mode](KEY, nonce, AD + b"!" if fault == "tag" else AD, ct, tag)
    seen, tb = set(), rejected.value.__traceback__
    while tb is not None:
        frame, tb = tb.tb_frame, tb.tb_next
        if frame.f_globals["__name__"].startswith("tortoise."):
            seen.add(frame.f_code.co_name)
            for name, local in frame.f_locals.items():
                for value in _held(local):
                    if isinstance(value, (bytes, bytearray, memoryview)):
                        held = bytes(value)
                        assert not any(secret in held for secret in secrets), name
                    elif type(value) is int and 0 <= value < 1 << 128:
                        assert value.to_bytes(16, "big") not in secrets, name
    assert {f"open_{mode.value}", "_release"} <= seen


@pytest.mark.parametrize("fault", ["tag", "padding"])
@pytest.mark.parametrize("mode", list(AeadMode))
def test_rejected_open_keeps_no_candidate_plaintext(mode, fault):
    candidate = bytes(range(0x41, 0x71)) + (pad(b"", 16) if fault == "tag" else BAD_PAD)
    _assert_rejection_keeps_no_candidate(mode, fault, candidate)


@pytest.mark.parametrize("fault", ["tag", "padding"])
@pytest.mark.parametrize("mode", list(AeadMode))
def test_rejected_one_block_open_keeps_no_candidate_plaintext(mode, fault):
    # One block is its own checksum, so an nr open that names the checksum holds the candidate.
    _assert_rejection_keeps_no_candidate(mode, fault, pad(b"one block", 16) if fault == "tag" else BAD_PAD)


@pytest.mark.parametrize("fault", ["tag", "padding"])
@pytest.mark.parametrize("mode", list(AeadMode))
def test_rejected_open_cut_into_runs_keeps_no_candidate_plaintext(mode, fault, monkeypatch):
    # The same check on passes cut into runs: with arenas of two blocks the candidate's four blocks
    # go in runs, each cut out of the pass's parts, not in one call.
    runs, real = [], block_cipher._runs
    monkeypatch.setattr(block_cipher, "_LANES", 2)
    monkeypatch.setattr(block_cipher, "_runs", lambda count: runs.append(count) or real(count))
    test_rejected_open_keeps_no_candidate_plaintext(mode, fault)
    assert runs and max(runs) > 2


@pytest.mark.parametrize("n", OTHER_BLOCK_LENS)
@pytest.mark.parametrize("mode", list(AeadMode))
def test_forger_matches_seal_any_block_length(mode, n):
    # The forger is right at n, so a failure below comes from the padding check, not a bad tag.
    key, ad = _other_key(n)
    nonce = bytes(range(nonce_length(mode, n)))
    for size in sorted({0, 1, n - 1, n, 2 * n + 1}):
        pt = (bytes(range(1, 256)) * 3)[:size]
        ct, tag = seal(mode, key, nonce, ad, pad(pt, n))
        sealed = SEAL[mode](key, nonce, ad, pt)
        assert (sealed.ciphertext, sealed.tag) == (ct, tag)
        assert OPEN[mode](key, nonce, ad, ct, tag) == pt


@pytest.mark.parametrize("n", OTHER_BLOCK_LENS)
@pytest.mark.parametrize("mode", list(AeadMode))
def test_bad_padding_raises_like_bad_tag_any_block_length(mode, n):
    key, ad = _other_key(n)
    for padded in _bad_pads(n).values():
        _assert_open_fails_like_bad_tag(key, mode, bytes(range(nonce_length(mode, n))), ad, padded)


@pytest.mark.parametrize("mode", list(AeadMode))
def test_cli_bad_padding_exits_like_bad_tag(tmp_path, capsys, mode):
    nonce = bytes(range(nonce_length(mode)))
    ct, tag = seal(mode, KEY, nonce, AD, BAD_PAD)
    outcomes = []
    for name, t in (("pad", tag), ("tag", _flip(tag))):
        env, out = tmp_path / f"{name}.tort", tmp_path / f"{name}.out"
        env.write_bytes(pack_envelope(Envelope(mode, nonce, t, ct)))
        argv = ["decrypt", "--key-hex", KEY_HEX, "--ad-hex", AD.hex(), "--in", str(env), "--out", str(out)]
        rc = main(argv)
        captured = capsys.readouterr()
        outcomes.append((rc, captured.out, captured.err.encode(), out.exists()))
    assert outcomes[0] == outcomes[1] == (2, "", b"error: authentication failed\n", False)
