"""The scheme written out by hand: the reference that tier-1 compares the modes against.

It writes out every layer of both modes.  The tweakable cipher: one
hashlib SHAKE128 squeeze of ``master_key || tweak`` gives the subkey and
then the mask; the block goes through a one-lane call of the spec's
``encrypt`` or ``decrypt`` under the subkey alone, and the mask is XORed
on, except that ``aes128`` blocks go through :data:`CRYPTOGRAPHY_AES128`,
so that no check against this oracle runs the library's EVP kernel.  The
tweak layouts: :func:`tweak`, the counter-in-tweak layout of the message,
tag and associated-data domains, and :func:`stream_tweak`, the mr
keystream's.  The PKCS#7 padding, the associated-data sum, and both modes
over padded blocks, block by block (:func:`seal`), which also forges the
badly padded messages that only the padding check rejects.  Nothing from
``tortoise.tweakable`` or ``tortoise.aead`` is used except the key type,
so a fault in the library's batch path, padding, tweak encoders or passes
cannot agree with this.  :func:`xor_spec` gives a cheap block cipher of
any block length for tests that sweep it, :func:`aes_spec` AES from
``cryptography`` (the ``test`` extra), and :data:`SMALL_PRESENT` a 16-bit
cipher that diffuses, unlike TOY, for the toy-scale attack and randomness
tests.
"""

import hashlib
import struct
from functools import lru_cache, reduce

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from tortoise.block_cipher import CipherSpec, _lanes


def aes_encrypt_block(key, block):
    """One AES block from ``cryptography``, of the key length ``algorithms.AES`` takes from ``key``."""
    return Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(block)


def aes_decrypt_block(key, block):
    """The inverse of :func:`aes_encrypt_block`."""
    return Cipher(algorithms.AES(key), modes.ECB()).decryptor().update(block)


def aes_spec(key_len):
    """AES with ``key_len``-byte keys from ``cryptography``, a plug-in built from its block pair with ``from_blocks``."""

    def encrypt_block(key, block):
        assert len(key) == key_len
        return aes_encrypt_block(key, block)

    def decrypt_block(key, block):
        assert len(key) == key_len
        return aes_decrypt_block(key, block)

    return CipherSpec.from_blocks(f"aes{8 * key_len}", 16, key_len, encrypt_block, decrypt_block)


# AES-128 apart from the library's EVP kernel, which runs every AES128 batch, a single block included.
CRYPTOGRAPHY_AES128 = aes_spec(16)


def _block_cipher(key):
    return CRYPTOGRAPHY_AES128 if key.cipher.name == "aes128" else key.cipher


def _squeeze(key, tweak):
    spec = key.cipher
    assert len(tweak) == spec.block_len
    out = hashlib.shake_128(key.master_key + tweak).digest(spec.key_len + spec.block_len)
    return out[: spec.key_len], out[spec.key_len :]


def xor(a, b):
    """XOR of two byte strings of the same length."""
    return bytes(x ^ y for x, y in zip(a, b, strict=True))


def pad(data, n):
    """PKCS#7: k bytes of value k, 1 <= k <= n, so aligned data gains a whole block."""
    k = n - len(data) % n
    return data + bytes([k]) * k


def encrypt(key, tweak, block):
    """Encrypt one block of ``key.cipher`` under the permutation ``tweak`` selects."""
    subkey, mask = _squeeze(key, tweak)
    return xor(_block_cipher(key).encrypt([subkey], block), mask)


def decrypt(key, tweak, block):
    """Invert :func:`encrypt` for the same key and tweak."""
    subkey, mask = _squeeze(key, tweak)
    return _block_cipher(key).decrypt([subkey], xor(block, mask))


MSG, TAG, AD = 0, 1, 2  # the domains of the counter-in-tweak layout, byte 0's high nibble


def tweak(domain, nonce, j, n):
    """The ``n``-byte tweak of counter ``j`` in ``domain``: the domain nibble, ``nonce``, then ``j`` big-endian.

    The counter fills the bytes after the nonce; when the nonce leaves none,
    as for an nr message at n=2 or an mr tag, it goes in byte 0's low nibble.
    """
    counter_len = n - 1 - len(nonce)
    if counter_len:
        return bytes([domain << 4]) + nonce + j.to_bytes(counter_len, "big")
    assert j < 16
    return bytes([domain << 4 | j]) + nonce


def stream_tweak(tag, j):
    """The mr keystream's tweak of counter ``j``: the tag XOR ``j``, big-endian."""
    return xor(tag, j.to_bytes(len(tag), "big"))


def ad_sum(key, ad):
    """XOR of the padded associated-data blocks, block i encrypted under ``tweak(AD, b"", i, n)``."""
    n = key.cipher.block_len
    padded, acc = pad(ad, n), bytes(n)
    for i in range(len(padded) // n):
        acc = xor(acc, encrypt(key, tweak(AD, b"", i, n), padded[i * n : i * n + n]))
    return acc


def seal(mode, key, nonce, ad, padded):
    """The ciphertext and tag of ``padded`` message blocks in ``mode``, an ``AeadMode`` read by its value.

    nr: block j under ``tweak(MSG, nonce, j)``; the tag is the blocks' XOR
    under ``tweak(TAG, nonce, m)`` for ``m`` blocks, XOR the AD sum.  mr: the
    tag is the blocks under the message tweaks of the nonce's first
    ``min(8, n // 2)`` bytes, XOR the AD sum, under ``tweak(TAG, nonce, 0)``;
    block j is XORed with ``0x00 || nonce`` under ``stream_tweak(tag, j)``.
    ``padded`` is taken as it is, so a block-aligned message that is not
    PKCS#7 padded gives a forgery with a valid tag.
    """
    n = key.cipher.block_len
    blocks = [padded[i : i + n] for i in range(0, len(padded), n)]
    m, auth = len(blocks), ad_sum(key, ad)
    if mode.value == "nr":
        ct = b"".join(encrypt(key, tweak(MSG, nonce, j, n), p) for j, p in enumerate(blocks))
        return ct, xor(encrypt(key, tweak(TAG, nonce, m, n), reduce(xor, blocks)), auth)
    sums = [encrypt(key, tweak(MSG, nonce[: min(8, n // 2)], j, n), p) for j, p in enumerate(blocks)]
    tag = encrypt(key, tweak(TAG, nonce, 0, n), reduce(xor, sums, auth))
    stream = [encrypt(key, stream_tweak(tag, j), b"\x00" + nonce) for j in range(m)]
    return b"".join(map(xor, blocks, stream)), tag


def xor_spec(n):
    """A one-byte-key spec of block length ``n``: XOR every byte with the key, then rotate left by one byte.

    Weak, but a bijection for every key, which is all the modes ask of a block pair.
    """

    def encrypt_block(key, block):
        x = bytes(b ^ key[0] for b in block)
        return x[1:] + x[:1]

    def decrypt_block(key, block):
        return bytes(b ^ key[0] for b in block[-1:] + block[:-1])

    return CipherSpec.from_blocks(f"xor{n}", n, 1, encrypt_block, decrypt_block)


# --- a 16-bit test cipher that diffuses -------------------------------------
#
# Modelled on SMALLPRESENT-[4] (Leander, "Small scale variants of the block cipher PRESENT", 2010), the
# 16-bit, four-S-box variant of PRESENT (Bogdanov et al., CHES 2007), coded from the published structure:
# each round XORs its round key, applies PRESENT's S-box to each nibble (TOY's S-box too) and then the bit
# permutation P(i) = 4i mod 15 for i < 15, P(15) = 15, which sends the four bits of every nibble to four
# different nibbles; a final round key whitens.  The round keys come from a 2-byte key through a 16-bit
# register updated as PRESENT-80's is: rotated left by 13 bits, its top nibble through the S-box, and the
# round counter XORed into its low five bits.  No published test vectors are claimed.  Unlike TOY, whose
# nibbles never mix, every output bit depends on every input bit after two rounds.  PRESENT has 31 rounds;
# this cipher takes 8, four times those two, which keeps the tests that run it on over a million blocks quick.

PRESENT_SBOX = (0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2)
PRESENT_SBOX_INV = tuple(sorted(range(16), key=PRESENT_SBOX.__getitem__))
SMALL_PRESENT_ROUNDS = 8


def present_permute(x):
    """P on a 16-bit state: bit i, counted from the least significant, moves to bit 4i mod 15; bit 15 stays."""
    return sum((x >> i & 1) << (4 * i % 15 if i < 15 else 15) for i in range(16))


def _sub_byte(sbox, b, shift):
    """The S-box on both nibbles of byte ``b``, placed ``shift`` bits up in the state."""
    return (sbox[b >> 4] << 4 | sbox[b & 15]) << shift


# P is linear, so one round's S-boxes and P come apart by byte of the state: s -> SP_HI[s >> 8] ^ SP_LO[s & 255].
# The batch pair reads that round, and its inverse, for every 16-bit state from one list each.
_SP_LO = [present_permute(_sub_byte(PRESENT_SBOX, b, 0)) for b in range(256)]
_SP_HI = [present_permute(_sub_byte(PRESENT_SBOX, b, 8)) for b in range(256)]
_ROUND = [_SP_HI[s >> 8] ^ _SP_LO[s & 255] for s in range(1 << 16)]
_INVERSE = sorted(range(1 << 16), key=_ROUND.__getitem__)


@lru_cache(maxsize=4096)
def small_present_round_keys(key):
    """The ``SMALL_PRESENT_ROUNDS`` + 1 round keys of the 16-bit ``key``, the whitening key last."""
    keys = []
    for counter in range(1, SMALL_PRESENT_ROUNDS + 2):
        keys.append(key)
        key = (key << 13 | key >> 3) & 0xFFFF
        key = (PRESENT_SBOX[key >> 12] << 12 | key & 0xFFF) ^ counter
    return tuple(keys)


# Each batch checks its lanes as the library's do, then runs the eight rounds inline, lane by lane.
def _small_present_encrypt(keys, blocks):
    r, out = _ROUND, []
    for key, s in zip(keys, struct.unpack(f">{len(keys)}H", _lanes(keys, blocks, 2, 2))):
        k0, k1, k2, k3, k4, k5, k6, k7, k8 = small_present_round_keys(key[0] << 8 | key[1])
        out.append(r[r[r[r[r[r[r[r[s ^ k0] ^ k1] ^ k2] ^ k3] ^ k4] ^ k5] ^ k6] ^ k7] ^ k8)
    return struct.pack(f">{len(out)}H", *out)


def _small_present_decrypt(keys, blocks):
    r, out = _INVERSE, []
    for key, s in zip(keys, struct.unpack(f">{len(keys)}H", _lanes(keys, blocks, 2, 2))):
        k0, k1, k2, k3, k4, k5, k6, k7, k8 = small_present_round_keys(key[0] << 8 | key[1])
        out.append(r[r[r[r[r[r[r[r[s ^ k8] ^ k7] ^ k6] ^ k5] ^ k4] ^ k3] ^ k2] ^ k1] ^ k0)
    return struct.pack(f">{len(out)}H", *out)


SMALL_PRESENT = CipherSpec("smallpresent4", 2, 2, _small_present_encrypt, _small_present_decrypt)
