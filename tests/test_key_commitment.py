"""Tortoise does not commit to the key: one envelope can open under two keys, in either mode.

Each tag is an XOR of tweakable-cipher outputs, one per block, so whoever
holds both keys can offer two candidate values for each free block and
solve for the tag by Gaussian elimination over GF(2).  Each 128-bit
condition takes a few more than 128 free blocks.  With associated-data
blocks free, nr has one condition per key after the first, so a few more
than 128·(k - 1) blocks for k keys, and mr one per key.  With empty AD and
ciphertext blocks free, nr has one per key: each key's checksum must reach
the tag.  The envelopes are built block by block with
``composed_tweakable``, whose AES-128 comes from ``cryptography``, and then
opened by the library and by the CLI.
"""

import random

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

import composed_tweakable
from composed_tweakable import AD, MSG, TAG, stream_tweak, tweak, xor
from tortoise import cli
from tortoise.aead import OPEN, SEAL, AeadMode, SealedMessage, open_nr
from tortoise.block_cipher import AES128
from tortoise.tweakable import TweakableKey


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
    if target:
        raise ValueError("the free blocks do not span the target")
    return mask


def _int(*blocks):
    return int.from_bytes(b"".join(blocks), "big")


def _choose(rng, out, tweaks, target):
    """One block per tweak, each one of two random candidates, whose ``out`` values XOR to ``target``.

    ``out(tweak, block)`` is an integer.
    """
    candidates = [(rng.randbytes(16), rng.randbytes(16)) for _ in tweaks]
    outs = [(out(t, c0), out(t, c1)) for t, (c0, c1) in zip(tweaks, candidates)]
    for o0, _ in outs:
        target ^= o0
    mask = _solve([o0 ^ o1 for o0, o1 in outs], target)
    return b"".join(pair[mask >> i & 1] for i, pair in enumerate(candidates))


def _choose_ad(rng, out, free, target):
    """``free`` AD blocks chosen as :func:`_choose` does.

    The AD is ``free`` whole blocks, so its padding is one more block of
    sixteen 16s, folded into the target here.
    """
    tweaks = [tweak(AD, b"", i, 16) for i in range(free + 1)]
    return _choose(rng, out, tweaks[:free], target ^ out(tweaks[free], bytes([16]) * 16))


def _masked(blocks, mask):
    """``blocks`` with ``mask`` XORed onto each 16-byte block."""
    x = int.from_bytes(blocks, "big") ^ int.from_bytes(mask * (len(blocks) // 16), "big")
    return x.to_bytes(len(blocks), "big")


def _padded_block(rng, keys, tweak):
    """A ciphertext block that decrypts under ``tweak`` to valid padding under every key, and those padded blocks.

    The candidates are 0x01-padded blocks under the first key, and each
    other key keeps valid padding with a chance of about 1/255, so three
    keys take some 65,000 tries.  Under one tweak each key's tweakable
    cipher is one AES key and one mask, so a batch of candidates goes
    through ``cryptography``'s ECB in one call per key.
    """
    (sub, mask), *rest = [composed_tweakable._squeeze(key, tweak) for key in keys]
    batch = 4096
    while True:
        plain = bytearray(rng.randbytes(16 * batch))
        plain[15::16] = b"\x01" * batch
        ct = _masked(Cipher(algorithms.AES(sub), modes.ECB()).encryptor().update(plain), mask)
        others = [Cipher(algorithms.AES(s), modes.ECB()).decryptor().update(_masked(ct, m)) for s, m in rest]
        for i in range(0, 16 * batch, 16):
            blocks = [bytes(plain[i : i + 16])] + [p[i : i + 16] for p in others]
            if all(map(_valid_padding, blocks[1:])):
                return ct[i : i + 16], blocks


def _nr_envelope(seed, k=2, free=None):
    """``k`` keys, an nr nonce, AD, one ciphertext block and a tag that opens it under every key.

    ``free`` AD blocks, by default 8 more than the 128·(k - 1) conditions.
    """
    rng = random.Random(seed)
    keys = [TweakableKey(rng.randbytes(16), AES128) for _ in range(k)]
    nonce = rng.randbytes(8)
    msg_tweak, tag_tweak = tweak(MSG, nonce, 0, 16), tweak(TAG, nonce, 1, 16)
    enc = composed_tweakable.encrypt
    ct, blocks = _padded_block(rng, keys, msg_tweak)
    # One block is its own checksum.  The tags agree when each other key's AD sum differs from the first
    # key's by what their checksum blocks' outputs differ by: one 128-bit condition per key after the first.
    first = enc(keys[0], tag_tweak, blocks[0])
    target = _int(*(xor(first, enc(key, tag_tweak, p)) for key, p in zip(keys[1:], blocks[1:])))

    def out(t, b):
        c = enc(keys[0], t, b)
        return _int(*(xor(c, enc(key, t, b)) for key in keys[1:]))

    ad = _choose_ad(rng, out, 128 * (k - 1) + 8 if free is None else free, target)
    tag = xor(first, composed_tweakable.ad_sum(keys[0], ad))
    return keys, nonce, ad, ct, tag, [p[: -p[-1]] for p in blocks]


def _mr_envelope(seed):
    """Two keys, an mr nonce, AD, one ciphertext block and a tag that opens it under both keys."""
    rng = random.Random(seed)
    k1, k2 = TweakableKey(rng.randbytes(16), AES128), TweakableKey(rng.randbytes(16), AES128)
    nonce = rng.randbytes(15)
    msg_tweak, tag_tweak = tweak(MSG, nonce[:8], 0, 16), tweak(TAG, nonce, 0, 16)
    enc, dec = composed_tweakable.encrypt, composed_tweakable.decrypt
    # The keystream depends on the tag, so retry the tag with the ciphertext block until that
    # block decrypts to valid padding under both keys.
    while True:
        tag = rng.randbytes(16)
        p1 = rng.randbytes(15) + b"\x01"
        ct = xor(p1, enc(k1, stream_tweak(tag, 0), b"\x00" + nonce))
        p2 = xor(ct, enc(k2, stream_tweak(tag, 0), b"\x00" + nonce))
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


def _nr_empty_ad_envelope(seed):
    """Two keys, an nr nonce, a ciphertext and a tag that open under both keys with empty AD.

    The free blocks are 264 ciphertext blocks before a last block padded
    under both keys.  With the AD fixed, each key's checksum must decrypt
    from the one tag: two 128-bit conditions.
    """
    free = 264
    rng = random.Random(seed)
    keys = [TweakableKey(rng.randbytes(16), AES128) for _ in range(2)]
    nonce = rng.randbytes(8)
    tweaks = [tweak(MSG, nonce, j, 16) for j in range(free + 1)]
    last, lasts = _padded_block(rng, keys, tweaks[free])
    tag = rng.randbytes(16)
    tag_tweak = tweak(TAG, nonce, free + 1, 16)
    dec = composed_tweakable.decrypt
    checksums = [dec(key, tag_tweak, xor(tag, composed_tweakable.ad_sum(key, b""))) for key in keys]
    target = _int(*map(xor, checksums, lasts))
    ct = _choose(rng, lambda t, c: _int(*(dec(key, t, c) for key in keys)), tweaks[:free], target) + last
    padded = [b"".join(dec(key, t, ct[16 * j : 16 * j + 16]) for j, t in enumerate(tweaks)) for key in keys]
    return keys, nonce, ct, tag, [p[: -p[-1]] for p in padded]


def test_cli_decrypts_an_empty_ad_nr_envelope_under_two_keys(tmp_path):
    keys, nonce, ct, tag, plaintexts = _nr_empty_ad_envelope(5)
    assert len(ct) == 16 * 265
    sealed = tmp_path / "sealed.tort"
    sealed.write_bytes(cli.pack_envelope(cli.Envelope(AeadMode.NONCE_RESPECTING, nonce, tag, ct)))
    for i, (key, plaintext) in enumerate(zip(keys, plaintexts)):
        out = tmp_path / f"opened.{i}"
        argv = ["decrypt", "--key-hex", key.master_key.hex(), "--in", str(sealed), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert out.read_bytes() == plaintext
    assert (tmp_path / "opened.0").read_bytes() != (tmp_path / "opened.1").read_bytes()


def test_nr_free_blocks_grow_by_128_per_key():
    # Three keys take 8 more free AD blocks than their 2 x 128 conditions, and open one envelope.
    keys, nonce, ad, ct, tag, plaintexts = _nr_envelope(6, k=3)
    assert len(ad) == 16 * (128 * 2 + 8)
    for key, plaintext in zip(keys, plaintexts):
        assert open_nr(key, nonce, ad, ct, tag) == plaintext
    assert len(set(plaintexts)) == 3
    # 16 fewer than the conditions span at most 240 of the 256 target bits: a 2^-16 chance.
    with pytest.raises(ValueError, match="do not span"):
        _nr_envelope(6, k=3, free=128 * 2 - 16)
