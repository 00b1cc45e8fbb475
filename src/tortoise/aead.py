"""Authenticated encryption with associated data, in two modes.

Nonce-respecting mode encrypts each padded plaintext block under a
counter tweak and derives the tag from the XOR checksum of the plaintext
blocks plus an associated-data accumulator.  It is fast and parallel but
the caller must never reuse a (key, nonce) pair.

Misuse-resistant mode first derives the tag from the whole message (so it
depends on every plaintext and associated-data bit), then uses the tag to
seed a keystream.  Sealing is fully deterministic; repeating a nonce only
reveals whether two messages were identical.

Both modes PKCS#7-pad the plaintext and the associated data, carry a
full-block tag, and verify it in constant time before releasing anything.
"""

from __future__ import annotations

import enum
import hmac
from dataclasses import dataclass

from .tweakable import (
    TweakableKey,
    encode_ad_tweak,
    encode_mr_stream_tweak,
    encode_mr_tag_tweak,
    encode_nr_msg_tweak,
    nr_counter_limit,
    nr_nonce_len,
    tweak_decrypt,
    tweak_encrypt,
    xor_bytes,
)

__all__ = [
    "AeadMode",
    "AuthenticationError",
    "SealedMessage",
    "SEAL",
    "OPEN",
    "nonce_length",
    "pkcs7_pad",
    "pkcs7_unpad",
    "compute_auth",
    "seal_nr",
    "open_nr",
    "seal_mr",
    "open_mr",
]


class AuthenticationError(Exception):
    """Tag verification failed; nothing about the message is released."""


class AeadMode(enum.Enum):
    NONCE_RESPECTING = "nr"
    MISUSE_RESISTANT = "mr"


def nonce_length(mode: AeadMode, block_len: int = 16) -> int:
    """Required nonce width: the counter layout's nonce in nr, all bytes after the prefix in mr."""
    if mode is AeadMode.NONCE_RESPECTING:
        return nr_nonce_len(block_len)
    return block_len - 1


@dataclass(frozen=True)
class SealedMessage:
    """Output of seal: padded ciphertext and full-block tag."""

    ciphertext: bytes
    tag: bytes


def pkcs7_pad(data: bytes, n: int) -> bytes:
    """Append k bytes of value k so the length is a multiple of ``n``.

    Always appends: already-aligned input gains a full block of padding.
    """
    if not 1 <= n <= 255:
        raise ValueError(f"block size must be in [1, 255], got {n}")
    k = n - len(data) % n
    return data + bytes([k]) * k


def pkcs7_unpad(data: bytes, n: int) -> bytes:
    """Strip and validate padding; exact inverse of :func:`pkcs7_pad`."""
    if not 1 <= n <= 255:
        raise ValueError(f"block size must be in [1, 255], got {n}")
    if not data or len(data) % n:
        raise ValueError("padded data must be a positive multiple of the block size")
    k = data[-1]
    if not 1 <= k <= n or data[-k:] != bytes([k]) * k:
        raise ValueError("bad padding")
    return data[:-k]


def _blocks(data: bytes, n: int) -> list[bytes]:
    return [data[i : i + n] for i in range(0, len(data), n)]


def compute_auth(key: TweakableKey, ad: bytes) -> bytes:
    """XOR-accumulate the padded associated-data blocks under AD tweaks.

    Empty associated data still contributes one block of padding, so
    (ad="", pt=x) and (ad=x, pt="") never authenticate the same way.
    """
    n = key.cipher.block_len
    auth = bytes(n)
    for i, block in enumerate(_blocks(pkcs7_pad(ad, n), n)):
        auth = xor_bytes(auth, tweak_encrypt(key, encode_ad_tweak(i, n), block))
    return auth


def _check(key: TweakableKey, mode: AeadMode, nonce: bytes, data: bytes, tag: bytes | None = None) -> int:
    """Check every length before any block work; return the block length.

    ``tag`` is given only when opening.  The counter layout numbers the
    message blocks, and in nr the tag block takes the next counter too.
    """
    n = key.cipher.block_len
    if len(nonce) != nonce_length(mode, n):
        raise ValueError(f"nonce must be {nonce_length(mode, n)} bytes, got {len(nonce)}")
    if tag is None:
        blocks = len(data) // n + 1
    else:
        if len(tag) != n:
            raise ValueError(f"tag must be {n} bytes, got {len(tag)}")
        if not data or len(data) % n:
            raise ValueError("ciphertext must be a positive multiple of the block size")
        blocks = len(data) // n
    limit = nr_counter_limit(n) - (mode is AeadMode.NONCE_RESPECTING)
    if blocks > limit:
        raise ValueError(f"message of {blocks} padded blocks exceeds the {mode.value} limit of {limit}")
    return n


def _nr_tag(key: TweakableKey, nonce: bytes, ad: bytes, checksum: bytes, blocks: int) -> bytes:
    n = key.cipher.block_len
    ftag = tweak_encrypt(key, encode_nr_msg_tweak(1, nonce, blocks, n), checksum)
    return xor_bytes(ftag, compute_auth(key, ad))


def _mr_tag(key: TweakableKey, nonce: bytes, ad: bytes, plain: list[bytes]) -> bytes:
    n = key.cipher.block_len
    counter_nonce = nonce[: nr_nonce_len(n)]
    tag = compute_auth(key, ad)
    for j, p in enumerate(plain):
        tag = xor_bytes(tag, tweak_encrypt(key, encode_nr_msg_tweak(0, counter_nonce, j, n), p))
    return tweak_encrypt(key, encode_mr_tag_tweak(nonce, n), tag)


def _mr_stream(key: TweakableKey, nonce: bytes, tag: bytes, blocks: list[bytes]) -> list[bytes]:
    """XOR ``blocks`` with the keystream seeded by ``tag``; its own inverse."""
    n = key.cipher.block_len
    seed = b"\x00" + nonce
    return [
        xor_bytes(b, tweak_encrypt(key, encode_mr_stream_tweak(tag, j, n), seed))
        for j, b in enumerate(blocks)
    ]


def _release(expected: bytes, tag: bytes, plain: list[bytes], n: int) -> bytes:
    """Return the unpadded plaintext only if the tag verifies in constant time."""
    if hmac.compare_digest(expected, tag):
        try:
            return pkcs7_unpad(b"".join(plain), n)
        except ValueError:
            pass  # Indistinguishable from a tag mismatch: no padding oracle.
    raise AuthenticationError("authentication failed")


def seal_nr(key: TweakableKey, nonce: bytes, ad: bytes, plaintext: bytes) -> SealedMessage:
    """Seal in nonce-respecting mode.

    The caller must never reuse a (key, nonce) pair; confidentiality and
    authenticity both degrade if it does.
    """
    n = _check(key, AeadMode.NONCE_RESPECTING, nonce, plaintext)
    blocks = _blocks(pkcs7_pad(plaintext, n), n)
    checksum = bytes(n)
    out = []
    for j, p in enumerate(blocks):
        checksum = xor_bytes(checksum, p)
        out.append(tweak_encrypt(key, encode_nr_msg_tweak(0, nonce, j, n), p))
    return SealedMessage(b"".join(out), _nr_tag(key, nonce, ad, checksum, len(blocks)))


def open_nr(key: TweakableKey, nonce: bytes, ad: bytes, ciphertext: bytes, tag: bytes) -> bytes:
    """Open a nonce-respecting message, or raise :class:`AuthenticationError`."""
    n = _check(key, AeadMode.NONCE_RESPECTING, nonce, ciphertext, tag)
    checksum = bytes(n)
    plain = []
    for j, c in enumerate(_blocks(ciphertext, n)):
        p = tweak_decrypt(key, encode_nr_msg_tweak(0, nonce, j, n), c)
        checksum = xor_bytes(checksum, p)
        plain.append(p)
    return _release(_nr_tag(key, nonce, ad, checksum, len(plain)), tag, plain, n)


def seal_mr(key: TweakableKey, nonce: bytes, ad: bytes, plaintext: bytes) -> SealedMessage:
    """Seal in misuse-resistant mode; deterministic in all four inputs."""
    n = _check(key, AeadMode.MISUSE_RESISTANT, nonce, plaintext)
    blocks = _blocks(pkcs7_pad(plaintext, n), n)
    tag = _mr_tag(key, nonce, ad, blocks)
    return SealedMessage(b"".join(_mr_stream(key, nonce, tag, blocks)), tag)


def open_mr(key: TweakableKey, nonce: bytes, ad: bytes, ciphertext: bytes, tag: bytes) -> bytes:
    """Open a misuse-resistant message, or raise :class:`AuthenticationError`.

    The keystream is regenerated from the received tag, so the candidate
    plaintext exists internally before verification; it is never returned
    or leaked on failure.
    """
    n = _check(key, AeadMode.MISUSE_RESISTANT, nonce, ciphertext, tag)
    plain = _mr_stream(key, nonce, tag, _blocks(ciphertext, n))
    return _release(_mr_tag(key, nonce, ad, plain), tag, plain, n)


SEAL = {AeadMode.NONCE_RESPECTING: seal_nr, AeadMode.MISUSE_RESISTANT: seal_mr}
OPEN = {AeadMode.NONCE_RESPECTING: open_nr, AeadMode.MISUSE_RESISTANT: open_mr}
