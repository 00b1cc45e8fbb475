"""Tortoise does not commit to the key: one envelope can open under two keys, in either mode.

Each tag is an XOR of tweakable-cipher outputs, one per block, so whoever
holds both keys can offer two candidate values for each free block and
solve for the tag by Gaussian elimination over GF(2).  Here the free
blocks are associated-data blocks: one 128-bit condition needs a few more
than 128 of them in nr, and two conditions a few more than 256 in mr.  The
envelopes are built block by block with ``composed_tweakable``, whose
AES-128 comes from ``cryptography``, and then opened by the library and
by the CLI.
"""

import random

import pytest

import composed_tweakable
from composed_tweakable import xor
from tortoise import cli
from tortoise.aead import OPEN, SEAL, AeadMode, SealedMessage
from tortoise.block_cipher import AES128
from tortoise.tweakable import (
    TweakableKey,
    _ad_tweaks,
    _mr_stream_tweaks,
    _nr_msg_tweaks,
    _nr_tag_tweak,
    encode_mr_tag_tweak,
)


def _valid_padding(block):
    k = block[-1]
    return 1 <= k <= 16 and block[-k:] == bytes([k]) * k


def _solve(vectors, target):
    """A set of indices, as a bit mask, whose ``vectors`` XOR to ``target``; Gaussian elimination over GF(2)."""
    basis = []  # (vector, index mask), with distinct leading bits, in descending order
    for i, v in enumerate(vectors):
        mask = 1 << i
        for bv, bm in basis:
            if v ^ bv < v:  # bv's leading bit is set in v
                v, mask = v ^ bv, mask ^ bm
        if v:
            basis = sorted(basis + [(v, mask)], reverse=True)
    mask = 0
    for bv, bm in basis:
        if target ^ bv < target:
            target, mask = target ^ bv, mask ^ bm
    assert target == 0, "the free blocks do not span the target"
    return mask


def _int(*blocks):
    return int.from_bytes(b"".join(blocks), "big")


def _choose_ad(rng, out, free, target):
    """``free`` AD blocks, each one of two random candidates, whose ``out`` values XOR to ``target``.

    ``out(tweak, block)`` is an integer.  The AD is ``free`` whole blocks,
    so its padding is one more block of sixteen 16s, folded into the
    target here.
    """
    tweaks = _ad_tweaks(range(free + 1), 16)
    target ^= out(tweaks[free], bytes([16]) * 16)
    candidates = [(rng.randbytes(16), rng.randbytes(16)) for _ in range(free)]
    outs = [(out(t, c0), out(t, c1)) for t, (c0, c1) in zip(tweaks, candidates)]
    for o0, _ in outs:
        target ^= o0
    mask = _solve([o0 ^ o1 for o0, o1 in outs], target)
    return b"".join(pair[mask >> i & 1] for i, pair in enumerate(candidates))


def _nr_envelope(seed):
    """Two keys, an nr nonce, AD, one ciphertext block and a tag that opens it under both keys."""
    rng = random.Random(seed)
    k1, k2 = TweakableKey(rng.randbytes(16), AES128), TweakableKey(rng.randbytes(16), AES128)
    nonce = rng.randbytes(8)
    [msg_tweak] = _nr_msg_tweaks(0, nonce, range(1), 16)
    tag_tweak = _nr_tag_tweak(nonce, 1, 16)
    enc = composed_tweakable.encrypt
    # Retry the ciphertext block until it decrypts to valid padding under the second key too.
    while True:
        p1 = rng.randbytes(15) + b"\x01"
        ct = enc(k1, msg_tweak, p1)
        p2 = composed_tweakable.decrypt(k2, msg_tweak, ct)
        if _valid_padding(p2):
            break
    # One block is its own checksum.  The tags agree when the two keys' AD sums differ by what
    # their checksum blocks' outputs differ by: one 128-bit condition.
    target = _int(xor(enc(k1, tag_tweak, p1), enc(k2, tag_tweak, p2)))
    ad = _choose_ad(rng, lambda t, b: _int(xor(enc(k1, t, b), enc(k2, t, b))), 136, target)
    tag = xor(enc(k1, tag_tweak, p1), composed_tweakable.ad_sum(k1, ad))
    return (k1, k2), nonce, ad, ct, tag, (p1[:-1], p2[: -p2[-1]])


def _mr_envelope(seed):
    """Two keys, an mr nonce, AD, one ciphertext block and a tag that opens it under both keys."""
    rng = random.Random(seed)
    k1, k2 = TweakableKey(rng.randbytes(16), AES128), TweakableKey(rng.randbytes(16), AES128)
    nonce = rng.randbytes(15)
    [msg_tweak] = _nr_msg_tweaks(0, nonce[:8], range(1), 16)
    tag_tweak = encode_mr_tag_tweak(nonce)
    enc, dec = composed_tweakable.encrypt, composed_tweakable.decrypt
    # The keystream depends on the tag, so retry the tag with the ciphertext block until that
    # block decrypts to valid padding under both keys.
    while True:
        tag = rng.randbytes(16)
        [stream_tweak] = _mr_stream_tweaks(tag, range(1), 16)
        p1 = rng.randbytes(15) + b"\x01"
        ct = xor(p1, enc(k1, stream_tweak, b"\x00" + nonce))
        p2 = xor(ct, enc(k2, stream_tweak, b"\x00" + nonce))
        if _valid_padding(p2):
            break
    # Under each key, the message block's output XOR the AD sum must be the tag block's preimage:
    # two 128-bit conditions, side by side.
    target = _int(*(xor(dec(k, tag_tweak, tag), enc(k, msg_tweak, p)) for k, p in ((k1, p1), (k2, p2))))
    ad = _choose_ad(rng, lambda t, b: _int(enc(k1, t, b), enc(k2, t, b)), 264, target)
    return (k1, k2), nonce, ad, ct, tag, (p1[:-1], p2[: -p2[-1]])


ENVELOPES = {AeadMode.NONCE_RESPECTING: _nr_envelope, AeadMode.MISUSE_RESISTANT: _mr_envelope}


@pytest.mark.parametrize("mode", list(AeadMode), ids=lambda m: m.value)
@pytest.mark.parametrize("seed", [1, 2])
def test_one_envelope_opens_under_two_keys(mode, seed):
    keys, nonce, ad, ct, tag, plaintexts = ENVELOPES[mode](seed)
    assert len(ad) == 16 * (136 if mode is AeadMode.NONCE_RESPECTING else 264)
    for key, plaintext in zip(keys, plaintexts):
        assert OPEN[mode](key, nonce, ad, ct, tag) == plaintext
        # And each key seals its own plaintext into this very envelope.
        assert SEAL[mode](key, nonce, ad, plaintext) == SealedMessage(ct, tag)
    assert plaintexts[0] != plaintexts[1]


@pytest.mark.parametrize("mode", list(AeadMode), ids=lambda m: m.value)
def test_cli_decrypts_one_envelope_under_two_keys(mode, tmp_path):
    keys, nonce, ad, ct, tag, plaintexts = ENVELOPES[mode](3)
    sealed = tmp_path / "sealed.tort"
    sealed.write_bytes(cli.pack_envelope(cli.Envelope(mode, nonce, tag, ct)))
    for i, (key, plaintext) in enumerate(zip(keys, plaintexts)):
        out = tmp_path / f"opened.{i}"
        argv = ["decrypt", "--key-hex", key.master_key.hex(), "--ad-hex", ad.hex(), "--in", str(sealed)]
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
        assert out.read_bytes() == plaintext
    assert (tmp_path / "opened.0").read_bytes() != (tmp_path / "opened.1").read_bytes()
