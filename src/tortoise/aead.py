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

Every tweakable call on a message, associated-data or keystream block is
independent of the others, so each such group, the nr tag block joining
the associated data, goes to the tweakable cipher in batches of at most
``_SEGMENT`` blocks, and the checksum and sums are XOR-folded batch by batch.
"""

from __future__ import annotations

import enum
import hmac
from dataclasses import dataclass
from typing import Callable, Iterable

from .tweakable import (
    TweakableKey,
    encode_ad_tweak,
    encode_mr_stream_tweaks,
    encode_mr_tag_tweak,
    encode_nr_msg_tweak,
    encode_nr_msg_tweaks,
    nr_counter_limit,
    nr_nonce_len,
    tweak_decrypt_many,
    tweak_encrypt_many,
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


# Blocks per batch call: 32 KiB of a 16-byte-block message.  This bounds
# the tweaks, subkeys and masks held at once.
_SEGMENT = 2048


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


def _segments(data: bytes, n: int) -> Iterable[tuple[range, bytes]]:
    """Cut ``data`` into even runs of at most ``_SEGMENT`` blocks: (block indices, bytes).

    Each run is one batch call, so a long message never holds more than
    one run's tweaks, subkeys and masks at a time.
    """
    count = len(data) // n
    if count <= _SEGMENT:
        return [(range(count), data)]
    step = -(-count // -(-count // _SEGMENT))
    return ((range(i, min(i + step, count)), data[i * n : (i + step) * n]) for i in range(0, count, step))


def _fold(data: bytes, n: int) -> int:
    """XOR of the ``n``-byte blocks of ``data``, as an integer.

    Folds each run's top half of blocks onto its bottom half until one
    block is left, so the work is linear in the length of ``data``.
    """
    acc = 0
    for _, run in _segments(data, n):
        x = int.from_bytes(run, "big")
        count = len(run) // n
        while count > 1:
            low = count - count // 2
            bits = 8 * n * low
            x = (x >> bits) ^ (x & ((1 << bits) - 1))
            count = low
        acc ^= x
    return acc


def _tweak_sum(key: TweakableKey, tweaks: Callable[[range], list[bytes]], data: bytes) -> int:
    """XOR of the tweakable encryptions of the blocks of ``data``, block j under tweak j.

    ``tweaks`` maps a range of block indices to their tweaks.
    """
    n = key.cipher.block_len
    acc = 0
    for js, run in _segments(data, n):
        acc ^= _fold(tweak_encrypt_many(key, tweaks(js), run), n)
    return acc


def compute_auth(key: TweakableKey, ad: bytes) -> bytes:
    """XOR-accumulate the padded associated-data blocks under AD tweaks.

    Empty associated data still contributes one block of padding, so
    (ad="", pt=x) and (ad=x, pt="") never authenticate the same way.
    """
    n = key.cipher.block_len
    acc = _tweak_sum(key, lambda js: [encode_ad_tweak(i, n) for i in js], pkcs7_pad(ad, n))
    return acc.to_bytes(n, "big")


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


def _nr_tag(key: TweakableKey, nonce: bytes, ad: bytes, plain: bytes) -> bytes:
    """Tag-tweak of the plaintext checksum, XOR the AD accumulator: one sum, the checksum first."""
    n = key.cipher.block_len
    tag_tweak = encode_nr_msg_tweak(1, nonce, len(plain) // n, n)
    data = _fold(plain, n).to_bytes(n, "big") + pkcs7_pad(ad, n)
    acc = _tweak_sum(key, lambda js: [encode_ad_tweak(j - 1, n) if j else tag_tweak for j in js], data)
    return acc.to_bytes(n, "big")


def _mr_tag(key: TweakableKey, nonce: bytes, ad: bytes, plain: bytes) -> bytes:
    n = key.cipher.block_len
    counter_nonce = nonce[: nr_nonce_len(n)]
    auth = compute_auth(key, ad)
    acc = _tweak_sum(key, lambda js: encode_nr_msg_tweaks(0, counter_nonce, js, n), plain)
    tag = xor_bytes(auth, acc.to_bytes(n, "big"))
    return tweak_encrypt_many(key, [encode_mr_tag_tweak(nonce, n)], tag)


def _mr_stream(key: TweakableKey, nonce: bytes, tag: bytes, data: bytes) -> bytes:
    """XOR ``data`` with the keystream seeded by ``tag``; its own inverse."""
    n = key.cipher.block_len
    seed = b"\x00" + nonce
    return b"".join([
        xor_bytes(d, tweak_encrypt_many(key, encode_mr_stream_tweaks(tag, js, n), seed * len(js)))
        for js, d in _segments(data, n)
    ])


def _release(expected: bytes, tag: bytes, plain: bytes, n: int) -> bytes:
    """Return the unpadded plaintext only if the tag verifies in constant time."""
    if hmac.compare_digest(expected, tag):
        try:
            return pkcs7_unpad(plain, n)
        except ValueError:
            pass  # Indistinguishable from a tag mismatch: no padding oracle.
    raise AuthenticationError("authentication failed")


def seal_nr(key: TweakableKey, nonce: bytes, ad: bytes, plaintext: bytes) -> SealedMessage:
    """Seal in nonce-respecting mode.

    The caller must never reuse a (key, nonce) pair; confidentiality and
    authenticity both degrade if it does.
    """
    n = _check(key, AeadMode.NONCE_RESPECTING, nonce, plaintext)
    padded = pkcs7_pad(plaintext, n)
    runs = _segments(padded, n)
    ct = b"".join([tweak_encrypt_many(key, encode_nr_msg_tweaks(0, nonce, js, n), p) for js, p in runs])
    return SealedMessage(ct, _nr_tag(key, nonce, ad, padded))


def open_nr(key: TweakableKey, nonce: bytes, ad: bytes, ciphertext: bytes, tag: bytes) -> bytes:
    """Open a nonce-respecting message, or raise :class:`AuthenticationError`."""
    n = _check(key, AeadMode.NONCE_RESPECTING, nonce, ciphertext, tag)
    runs = _segments(ciphertext, n)
    plain = b"".join([tweak_decrypt_many(key, encode_nr_msg_tweaks(0, nonce, js, n), c) for js, c in runs])
    return _release(_nr_tag(key, nonce, ad, plain), tag, plain, n)


def seal_mr(key: TweakableKey, nonce: bytes, ad: bytes, plaintext: bytes) -> SealedMessage:
    """Seal in misuse-resistant mode; deterministic in all four inputs."""
    n = _check(key, AeadMode.MISUSE_RESISTANT, nonce, plaintext)
    padded = pkcs7_pad(plaintext, n)
    tag = _mr_tag(key, nonce, ad, padded)
    return SealedMessage(_mr_stream(key, nonce, tag, padded), tag)


def open_mr(key: TweakableKey, nonce: bytes, ad: bytes, ciphertext: bytes, tag: bytes) -> bytes:
    """Open a misuse-resistant message, or raise :class:`AuthenticationError`.

    The keystream is regenerated from the received tag, so the candidate
    plaintext exists internally before verification; it is never returned
    or leaked on failure.
    """
    n = _check(key, AeadMode.MISUSE_RESISTANT, nonce, ciphertext, tag)
    plain = _mr_stream(key, nonce, tag, ciphertext)
    return _release(_mr_tag(key, nonce, ad, plain), tag, plain, n)


SEAL = {AeadMode.NONCE_RESPECTING: seal_nr, AeadMode.MISUSE_RESISTANT: seal_mr}
OPEN = {AeadMode.NONCE_RESPECTING: open_nr, AeadMode.MISUSE_RESISTANT: open_mr}
