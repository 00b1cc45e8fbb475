"""Authenticated encryption with associated data, in two modes.

Nonce-respecting mode encrypts each padded plaintext block under a
counter tweak and derives the tag from the XOR checksum of the plaintext
blocks plus an associated-data accumulator.  It is fast and parallel but
the caller must never reuse a (key, nonce) pair.

Misuse-resistant mode first derives the tag from the whole message (so it
depends on every plaintext and associated-data bit), then uses the tag to
seed a keystream.  Sealing is fully deterministic.  Under a repeated
nonce equal messages seal alike, and two messages whose tags agree in all
but their low ``ceil(log2 m)`` bits, for ``m`` the longer one's block
count, share keystream: block ``j`` of one meets block ``j ^ t_a ^ t_b``
of the other, where their ciphertext XOR is their plaintext XOR.  For
``q`` messages under one nonce that has probability about
``q^2 * 2^(ceil(log2 m) - 129)`` at n=16.

Both modes PKCS#7-pad the plaintext and the associated data, carry a
full-block tag, and verify it in constant time before releasing anything.

Each block goes through the tweakable cipher under a one-block tweak.
All but the mr keystream's share one counter-in-tweak layout: a domain
prefix in byte 0's high nibble (``0000`` message, ``0001`` tag, ``0010``
associated data), the nonce (none for AD; the mr tag's fills the rest and
its count is 0), then a big-endian counter.  The keystream's is the tag
XOR the counter.

Each data dependency is one pass of tweakable calls.  A seal or open
lays its blocks end to end in one ``bytearray``, message blocks first,
then any tag block, then the associated-data blocks; every pass writes
its outputs into it in place, the entry point returns one ``bytes`` copy
of the span it owes, and a rejected open zeroes it before raising.  A
pass of up to ``_LANES`` blocks, every message up to 32 KiB, is
straight-line code: one tweak list, one call to the tweakable core on a
``bytes`` copy of its blocks; a longer pass goes in the even runs of
``block_cipher._runs``.  Past ``_check`` nothing checks again: not the
encoders, nor the core, ``tweakable._encrypt`` or ``_decrypt``.  An nr
seal is one pass, since its checksum and AD are known first; an nr open
decrypts, then makes the tag from the checksum.  In mr the message and
associated-data sums are one pass, the tag block a second and the
keystream it seeds a third, when sealing and opening alike.
"""

from __future__ import annotations

import enum
import hmac
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from . import block_cipher
from .tweakable import TweakableKey, _decrypt, _encrypt, _xor

__all__ = [
    "AeadMode",
    "AuthenticationError",
    "SealedMessage",
    "SEAL",
    "OPEN",
    "nonce_length",
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


# The members under module names, read on every message: on Python 3.11 an ``AeadMode.X`` lookup costs ~0.1 us.
_NR, _MR = AeadMode.NONCE_RESPECTING, AeadMode.MISUSE_RESISTANT


def nonce_length(mode: AeadMode, block_len: int = 16) -> int:
    """Required nonce width: the layout's nonce in nr, every byte after the prefix in mr.

    ``TypeError`` for a non-member ``mode`` or a non-integer ``block_len``, ``ValueError`` for one outside [1, 255].
    """
    if not 1 <= operator.index(block_len) <= 255:
        raise ValueError(f"block_len must be in [1, 255], got {block_len}")
    if mode is _NR:
        return min(8, block_len - 1)
    if mode is _MR:
        return block_len - 1
    raise TypeError(f"mode must be an AeadMode member, not {type(mode).__name__}")


@lru_cache(maxsize=None)
def _limits(block_len: int) -> tuple[int, int]:
    """The counter and AD limits of ``block_len``, in blocks: 2^56 and 2^120 at n=16, 16 and 256 at n=2.

    The mr keystream's own 2^64 would bind only at n >= 18, on more bytes than a message can hold.
    """
    counter_len = block_len - 1 - nonce_length(_NR, block_len)
    return 256**counter_len if counter_len else 16, 256 ** (block_len - 1)


@dataclass(frozen=True)
class SealedMessage:
    """Output of seal: padded ciphertext and full-block tag."""

    ciphertext: bytes
    tag: bytes


def _padding(size: int, n: int) -> bytes:
    """The PKCS#7 padding of ``size`` bytes of data: k bytes of value k, 1 <= k <= ``n``.

    Always pads: already-aligned data gains a full block.
    """
    k = n - size % n
    return bytes([k]) * k


def _fold(data: bytes, n: int) -> int:
    """XOR of the whole ``n``-byte blocks of ``data``, as an integer.

    Folds the top half of the blocks onto the bottom half until one block
    is left, so the work is linear in the length of ``data``.
    """
    count = len(data) // n
    x = int.from_bytes(data, "big") >> 8 * (len(data) - count * n)
    while count > 1:
        low = count - count // 2
        bits = 8 * n * low
        x = (x >> bits) ^ (x & ((1 << bits) - 1))
        count = low
    return x


_MSG, _TAG, _AD = b"\x00", b"\x10", b"\x20"  # the layout's domain prefixes


def _tweaks(prefix: bytes, nonce: bytes, counters: range, block_len: int) -> list[bytes]:
    """The tweak of each counter of an ascending ``counters`` range: ``prefix``, ``nonce``, counter.

    The counter fills the bytes after the nonce (at n=16, 7 for a message
    and 15 for AD, whose nonce is empty); when none remain, as for a message
    at n=2, it moves into byte 0's low nibble and is limited to 15.
    """
    counter_len = block_len - 1 - len(nonce)
    if counter_len:
        head = prefix + nonce
        return [head + j.to_bytes(counter_len, "big") for j in counters]
    return [(prefix[0] | j).to_bytes(1, "big") + nonce for j in counters]


def _tag_tweak(nonce: bytes, count: int, block_len: int) -> bytes:
    """The tag tweak of a ``count``-block message: the same layout under ``_TAG``; mr passes its nonce and 0."""
    counter_len = block_len - 1 - len(nonce)
    if counter_len:
        return _TAG + nonce + count.to_bytes(counter_len, "big")
    return (_TAG[0] | count).to_bytes(1, "big") + nonce


def _mr_stream_tweaks(tag: bytes, counters: range, block_len: int) -> list[bytes]:
    """Keystream tweak for each counter of an ascending ``counters`` range: the tag XOR the counter, big-endian."""
    t = int.from_bytes(tag, "big")
    return [(t ^ j).to_bytes(block_len, "big") for j in counters]


def _pass(
    crypt: Callable, key: TweakableKey, data: memoryview, nonce: bytes, m: int, tags: list, keep: bool, sum_from: int
) -> int:
    """The tweakable calls over the blocks of ``data``, laid end to end.

    The first ``m`` blocks are message blocks under the counter tweaks of
    ``nonce``, then one block per tweak in ``tags``, then associated-data
    blocks under AD tweaks from 0, all from unchecked encoders: the caller
    has bounded them.  ``crypt`` is ``_encrypt`` or ``_decrypt``.  Writes
    the outputs over their blocks if ``keep`` is set; returns the XOR of
    the outputs from block ``sum_from`` on.

    Up to ``_LANES`` blocks are one call.  A longer pass goes in the even
    runs of ``_runs``, so that it holds one run's tweaks, subkeys and masks
    at a time, and sums each run's outputs on their own.
    """
    n = key.cipher.block_len
    count, t = len(data) // n, m + len(tags)
    if count <= block_cipher._LANES:
        tweaks = _tweaks(_MSG, nonce, range(m), n) + tags if m else tags
        out = crypt(key, tweaks + _tweaks(_AD, b"", range(count - t), n) if count > t else tweaks, bytes(data))
        if keep:
            data[:] = out
        return _fold(out[sum_from * n :], n)
    acc = 0
    for run in block_cipher._runs(count):
        lo, hi = run.start, run.stop
        out = crypt(
            key,
            _tweaks(_MSG, nonce, range(lo, min(hi, m)), n)
            + tags[max(lo - m, 0) : max(hi - m, 0)]
            + _tweaks(_AD, b"", range(max(lo - t, 0), hi - t), n),
            bytes(data[lo * n : hi * n]),
        )
        if keep:
            data[lo * n : hi * n] = out
        acc ^= _fold(out[max(sum_from - lo, 0) * n :], n)
    return acc


def _flat(data: bytes) -> memoryview:
    """``data`` as a flat byte view, so that ``len`` counts its bytes whatever its format or shape."""
    return memoryview(data).cast("B")


def _check(
    key: TweakableKey, mode: AeadMode, nonce: bytes, ad: bytes, data: bytes, opening: bool, tag: bytes = b""
) -> tuple:
    """Check every type and length before any block work; return the block length and the inputs, measured in bytes.

    ``data`` is the plaintext, or with ``opening`` the ciphertext, which
    comes with its ``tag``.  An input that is not ``bytes`` comes back as a
    flat byte view.  The encoders and the tweakable core take every tweak
    as it is, so this bounds them all: the message counters, in nr the tag
    block's next one, in mr the keystream's, and the AD blocks.
    """
    if not isinstance(key, TweakableKey):
        raise TypeError(f"key must be a TweakableKey, not {type(key).__name__}")
    if not (type(nonce) is type(ad) is type(data) is type(tag) is bytes):
        nonce, ad, data, tag = _flat(nonce), _flat(ad), _flat(data), _flat(tag)
    n = key.cipher.block_len
    nonce_len = nonce_length(mode, n)
    if len(nonce) != nonce_len:
        raise ValueError(f"nonce must be {nonce_len} bytes, got {len(nonce)}")
    if not opening:
        blocks = len(data) // n + 1
    else:
        if len(tag) != n:
            raise ValueError(f"tag must be {n} bytes, got {len(tag)}")
        if not data or len(data) % n:
            raise ValueError("ciphertext must be a positive multiple of the block size")
        blocks = len(data) // n
    counter_limit, ad_limit = _limits(n)
    limit = counter_limit - 1 if mode is _NR else counter_limit
    if blocks > limit:
        raise ValueError(f"message of {blocks} padded blocks exceeds the {mode.value} limit of {limit}")
    # Empty associated data still pads to one block, so (ad="", pt=x) and (ad=x, pt="") differ.
    blocks = len(ad) // n + 1
    if blocks > ad_limit:
        raise ValueError(f"associated data of {blocks} padded blocks exceeds the limit of {ad_limit}")
    return n, nonce, ad, data, tag


def _mr_tag(key: TweakableKey, nonce: bytes, data: memoryview, m: int) -> bytes:
    """The mr tag of ``data``: ``m`` padded message blocks, then the padded associated data.

    One pass sums both under their tweaks, then the sum is the tag block.
    """
    n = key.cipher.block_len
    acc = _pass(_encrypt, key, data, nonce[: nonce_length(_NR, n)], m, [], False, 0)
    return _encrypt(key, [_tag_tweak(nonce, 0, n)], acc.to_bytes(n, "big"))


def _mr_stream(key: TweakableKey, nonce: bytes, tag: bytes, data: memoryview, m: int) -> None:
    """XOR the keystream seeded by ``tag`` into the first ``m`` blocks of ``data``; its own inverse.

    Up to ``_LANES`` blocks are one call; a longer stream goes in the runs of ``_runs``, as in :func:`_pass`.
    """
    n = key.cipher.block_len
    seed = b"\x00" + nonce
    for r in [range(m)] if m <= block_cipher._LANES else block_cipher._runs(m):
        lo, hi = r.start * n, r.stop * n
        data[lo:hi] = _xor(data[lo:hi], _encrypt(key, _mr_stream_tweaks(tag, r, n), seed * len(r)))


def _release(expected: bytes, tag: bytes, data: memoryview, end: int, n: int) -> bytes:
    """The unpadded plaintext ``data[:end]`` if the tag verifies in constant time; else zero ``data`` and raise."""
    if hmac.compare_digest(expected, tag):
        k = data[end - 1]
        # Bad padding raises exactly as a tag mismatch does: no padding oracle.
        if 1 <= k <= n and data[end - k : end] == bytes([k]) * k:
            return bytes(data[: end - k])
    data[:] = bytes(len(data))
    raise AuthenticationError("authentication failed")


def seal_nr(key: TweakableKey, nonce: bytes, ad: bytes, plaintext: bytes) -> SealedMessage:
    """Seal in nonce-respecting mode.

    The caller must never reuse a (key, nonce) pair; confidentiality and
    authenticity both degrade if it does.
    """
    n, nonce, ad, plaintext, _ = _check(key, _NR, nonce, ad, plaintext, False)
    m = len(plaintext) // n + 1
    pad = _padding(len(plaintext), n)
    # The whole plaintext blocks, then the last padded block: its tail (a memoryview has no +) and the padding.
    checksum = _fold(plaintext, n) ^ int.from_bytes(bytes(plaintext[(m - 1) * n :]) + pad, "big")
    data = memoryview(bytearray().join([plaintext, pad, checksum.to_bytes(n, "big"), ad, _padding(len(ad), n)]))
    tag = _pass(_encrypt, key, data, nonce, m, [_tag_tweak(nonce, m, n)], True, m)
    return SealedMessage(bytes(data[: m * n]), tag.to_bytes(n, "big"))


def open_nr(key: TweakableKey, nonce: bytes, ad: bytes, ciphertext: bytes, tag: bytes) -> bytes:
    """Open a nonce-respecting message, or raise :class:`AuthenticationError`."""
    n, nonce, ad, ciphertext, tag = _check(key, _NR, nonce, ad, ciphertext, True, tag)
    m = len(ciphertext) // n
    data = memoryview(bytearray().join([ciphertext, bytes(n), ad, _padding(len(ad), n)]))
    # The plaintext's checksum goes into the tag block, between the plaintext and the AD.
    data[m * n : (m + 1) * n] = _pass(_decrypt, key, data[: m * n], nonce, m, [], True, 0).to_bytes(n, "big")
    expected = _pass(_encrypt, key, data[m * n :], nonce, 0, [_tag_tweak(nonce, m, n)], False, 0)
    return _release(expected.to_bytes(n, "big"), tag, data, m * n, n)


def seal_mr(key: TweakableKey, nonce: bytes, ad: bytes, plaintext: bytes) -> SealedMessage:
    """Seal in misuse-resistant mode; deterministic in all four inputs."""
    n, nonce, ad, plaintext, _ = _check(key, _MR, nonce, ad, plaintext, False)
    m = len(plaintext) // n + 1
    data = memoryview(bytearray().join([plaintext, _padding(len(plaintext), n), ad, _padding(len(ad), n)]))
    tag = _mr_tag(key, nonce, data, m)
    _mr_stream(key, nonce, tag, data, m)
    return SealedMessage(bytes(data[: m * n]), tag)


def open_mr(key: TweakableKey, nonce: bytes, ad: bytes, ciphertext: bytes, tag: bytes) -> bytes:
    """Open a misuse-resistant message, or raise :class:`AuthenticationError`.

    The keystream is regenerated from the received tag, so the candidate
    plaintext exists internally before verification; it is never returned
    or leaked on failure.
    """
    n, nonce, ad, ciphertext, tag = _check(key, _MR, nonce, ad, ciphertext, True, tag)
    m = len(ciphertext) // n
    data = memoryview(bytearray().join([ciphertext, ad, _padding(len(ad), n)]))
    _mr_stream(key, nonce, tag, data, m)
    return _release(_mr_tag(key, nonce, data, m), tag, data, m * n, n)


SEAL = {AeadMode.NONCE_RESPECTING: seal_nr, AeadMode.MISUSE_RESISTANT: seal_mr}
OPEN = {AeadMode.NONCE_RESPECTING: open_nr, AeadMode.MISUSE_RESISTANT: open_mr}
