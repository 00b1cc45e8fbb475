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

Each data dependency is one pass of tweakable calls over blocks laid end
to end: message blocks first, then any tag block, then the associated
data.  A pass takes them as a list of parts: the plaintext or ciphertext,
its padding, the nr checksum block, the AD and its padding.  A pass of up
to one arena of ``_LANES`` blocks, as for a message of up to about 32 KiB
with short AD, joins its parts once and makes one call to the tweakable
core with one tweak list; a longer one goes in the even runs of
``block_cipher._runs``, each cut out of the parts with one join.  A seal
returns the joined outputs; an open copies its candidate plaintext into
one ``bytearray``, which a rejection zeroes.  Past ``_check`` only each
cipher batch checks again, its lanes in ``block_cipher._lanes``: not the
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
    __hash__ = object.__hash__  # members are singletons equal only to themselves: hashed in C, not by Enum's Python one


# The members under module names, read on every message: on Python 3.11 an ``AeadMode.X`` lookup costs ~0.1 us.
_NR, _MR = AeadMode.NONCE_RESPECTING, AeadMode.MISUSE_RESISTANT


def nonce_length(mode: AeadMode, block_len: int = 16) -> int:
    """Required nonce width: ``min(8, n // 2)`` bytes in nr, leaving ``n - 1 - nonce`` counter bytes; ``n - 1`` in mr.

    At n=8 the nr nonce is 4 bytes, which must be a counter (random ones collide after about 2^16 messages), and the
    counter 3 (2^24 blocks); a 64-bit tag falls to a forger with probability 2^-64 per try, and mr's repeated-nonce
    bound is ``q^2 * 2^(ceil(log2 m) - 65)``.  ``TypeError`` for a non-member ``mode`` or a non-integer ``block_len``,
    ``ValueError`` for one outside [1, 255].
    """
    if not 1 <= operator.index(block_len) <= 255:
        raise ValueError(f"block_len must be in [1, 255], got {block_len}")
    if mode is not _NR and mode is not _MR:
        raise TypeError(f"mode must be an AeadMode member, not {type(mode).__name__}")
    return _layout(mode, operator.index(block_len))[0]


@lru_cache(maxsize=None)
def _layout(mode: AeadMode, n: int) -> tuple[int, int, int]:
    """The nonce width in bytes of ``mode`` at block length ``n``, its message limit and the AD limit in blocks.

    Both modes count message blocks under the nr nonce, and the nr tag takes one counter: 2^56 - 1 in nr and 2^56
    in mr at n=16, 15 and 16 at n=2.  The mr keystream's own 2^64 would bind only at n >= 18, beyond any message.
    """
    nr_len = min(8, n // 2)
    counters = 256 ** (n - 1 - nr_len) if n - 1 > nr_len else 16
    return (nr_len, counters - 1, 256 ** (n - 1)) if mode is _NR else (n - 1, counters, 256 ** (n - 1))


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


def _cut(parts: list, lo: int, hi: int) -> bytes:
    """Bytes ``lo`` to ``hi`` of ``parts`` laid end to end, as one join of views of the parts that fall in it."""
    cut = []
    for part in parts:
        if lo < len(part) and hi > 0:
            cut.append(memoryview(part)[max(lo, 0) : hi])
        lo, hi = lo - len(part), hi - len(part)
    return b"".join(cut)


def _pass(
    crypt: Callable, key: TweakableKey, parts: list, nonce: bytes, m: int, tags: list, a: int, split: int
) -> tuple:
    """The tweakable calls over ``parts``: each run's outputs before block ``split``, and one block, the rest's XOR.

    The blocks are ``parts`` laid end to end: ``m`` message blocks under the
    counter tweaks of ``nonce``, then one block per tweak in ``tags``, then
    ``a`` associated-data blocks under AD tweaks from 0, all from unchecked
    encoders: the caller has bounded them.  ``crypt`` is ``_encrypt`` or
    ``_decrypt``.  A pass that returns every output, as an nr open's
    decryption does, sums them all: the candidate's checksum.

    A pass that fits one arena is one call on the joined parts.  A longer
    one goes in the even runs of ``_runs``, each cut out of the parts by
    :func:`_cut`, so that it holds one run's tweaks, subkeys and masks at a
    time and keeps only the outputs it returns: a pass that only sums keeps
    none.
    """
    n, t = key.cipher.block_len, m + len(tags)
    sum_from = 0 if split == t + a else split
    if t + a <= block_cipher._LANES:
        tweaks = _tweaks(_MSG, nonce, range(m), n) + tags if m else tags
        out = crypt(key, tweaks + _tweaks(_AD, b"", range(a), n) if a else tweaks, b"".join(parts))
        return [out[: split * n]], _fold(out[sum_from * n :], n).to_bytes(n, "big")
    outs, acc = [], 0
    for run in block_cipher._runs(t + a):
        lo, hi = run.start, run.stop
        out = crypt(
            key,
            _tweaks(_MSG, nonce, range(lo, min(hi, m)), n)
            + tags[max(lo - m, 0) : max(hi - m, 0)]
            + _tweaks(_AD, b"", range(max(lo - t, 0), hi - t), n),
            _cut(parts, lo * n, hi * n),
        )
        outs.append(out[: max(split - lo, 0) * n])
        acc ^= _fold(out[max(sum_from - lo, 0) * n :], n)
    return outs, acc.to_bytes(n, "big")


def _check(
    key: TweakableKey, mode: AeadMode, nonce: bytes, ad: bytes, data: bytes, opening: bool, tag: bytes = b""
) -> tuple:
    """Check every type and length before any block work; return ``n``, ``m``, ``a``, the nonce, the parts and the tag.

    ``data`` is the plaintext, or with ``opening`` the ciphertext, which comes with its ``tag``; every
    input goes through ``block_cipher._bytes``.  The one place that pads: it returns the message parts,
    ``[data, padding]`` to seal and ``[data]`` to open, and the AD parts ``[ad, padding]``.  The encoders
    and the tweakable core take every tweak as it is, so this bounds them all: the message counters, in
    nr the tag block's next one, in mr the keystream's, and the AD blocks.
    """
    if not isinstance(key, TweakableKey):
        raise TypeError(f"key must be a TweakableKey, not {type(key).__name__}")
    if not (type(nonce) is type(ad) is type(data) is type(tag) is bytes):
        nonce, ad, data, tag = map(block_cipher._bytes, (nonce, ad, data, tag))
    n = key.cipher.block_len
    nonce_len, limit, ad_limit = _layout(mode, n)
    if len(nonce) != nonce_len:
        raise ValueError(f"nonce must be {nonce_len} bytes, got {len(nonce)}")
    if opening:
        if len(tag) != n:
            raise ValueError(f"tag must be {n} bytes, got {len(tag)}")
        if not data or len(data) % n:
            raise ValueError("ciphertext must be a positive multiple of the block size")
    m = len(data) // n + (not opening)
    if m > limit:
        raise ValueError(f"message of {m} padded blocks exceeds the {mode.value} limit of {limit}")
    # Empty associated data still pads to one block, so (ad="", pt=x) and (ad=x, pt="") differ.
    a = len(ad) // n + 1
    if a > ad_limit:
        raise ValueError(f"associated data of {a} padded blocks exceeds the limit of {ad_limit}")
    parts = [data] if opening else [data, _padding(len(data), n)]
    return n, m, a, nonce, parts, [ad, _padding(len(ad), n)], tag


def _mr_tag(key: TweakableKey, nonce: bytes, parts: list, m: int, a: int) -> bytes:
    """The mr tag of ``parts``: ``m`` padded message blocks, then ``a`` of padded associated data.

    One pass sums both under their tweaks, then the sum is the tag block.
    """
    n = key.cipher.block_len
    total = _pass(_encrypt, key, parts, nonce[: _layout(_NR, n)[0]], m, [], a, 0)[1]
    return _encrypt(key, [_tag_tweak(nonce, 0, n)], total)


def _mr_stream(key: TweakableKey, nonce: bytes, tag: bytes, parts: list, m: int) -> list:
    """The ``m`` blocks of ``parts`` XOR the keystream seeded by ``tag``, as each run's outputs; its own inverse.

    Like :func:`_pass`, one call when the blocks fit one arena, else one per run.
    """
    n = key.cipher.block_len
    seed = b"\x00" + nonce
    if m <= block_cipher._LANES:
        return [_xor(b"".join(parts), _encrypt(key, _mr_stream_tweaks(tag, range(m), n), seed * m))]
    return [
        _xor(_cut(parts, r.start * n, r.stop * n), _encrypt(key, _mr_stream_tweaks(tag, r, n), seed * len(r)))
        for r in block_cipher._runs(m)
    ]


def _release(expected: bytes, tag: bytes, data: bytearray, n: int) -> bytes:
    """The plaintext in ``data``, unpadded in place, if the tag verifies in constant time; else zero ``data``, raise."""
    if hmac.compare_digest(expected, tag):
        k = data[-1]
        # Bad padding raises exactly as a tag mismatch does: no padding oracle.
        if 1 <= k <= n and data[-k:] == bytes([k]) * k:
            del data[-k:]
            return bytes(data)
    data[:] = bytes(len(data))
    raise AuthenticationError("authentication failed")


def seal_nr(key: TweakableKey, nonce: bytes, ad: bytes, plaintext: bytes) -> SealedMessage:
    """Seal in nonce-respecting mode.

    The caller must never reuse a (key, nonce) pair; confidentiality and
    authenticity both degrade if it does.
    """
    n, m, a, nonce, parts, ads, _ = _check(key, _NR, nonce, ad, plaintext, False)
    (plaintext, pad), arena = parts, n * block_cipher._LANES
    # The last padded block, its tail and the padding, then the whole blocks an arena at a time.
    checksum = int.from_bytes(b"".join([plaintext[(m - 1) * n :], pad]), "big")
    for i in range(0, len(plaintext), arena):
        checksum ^= _fold(plaintext[i : i + arena], n)
    parts += [checksum.to_bytes(n, "big"), *ads]
    outs, tag = _pass(_encrypt, key, parts, nonce, m, [_tag_tweak(nonce, m, n)], a, m)
    return SealedMessage(b"".join(outs), tag)


def open_nr(key: TweakableKey, nonce: bytes, ad: bytes, ciphertext: bytes, tag: bytes) -> bytes:
    """Open a nonce-respecting message, or raise :class:`AuthenticationError`."""
    n, m, a, nonce, parts, ads, tag = _check(key, _NR, nonce, ad, ciphertext, True, tag)
    # Only a bytearray that a rejection zeroes keeps the candidate: it replaces the run outputs, and the
    # tag pass overwrites the checksum, which for one block is the candidate itself.
    data, expected = _pass(_decrypt, key, parts, nonce, m, [], 0, m)
    data = bytearray().join(data)
    expected = _pass(_encrypt, key, [expected, *ads], nonce, 0, [_tag_tweak(nonce, m, n)], a, 0)[1]
    return _release(expected, tag, data, n)


def seal_mr(key: TweakableKey, nonce: bytes, ad: bytes, plaintext: bytes) -> SealedMessage:
    """Seal in misuse-resistant mode; deterministic in all four inputs."""
    n, m, a, nonce, parts, ads, _ = _check(key, _MR, nonce, ad, plaintext, False)
    tag = _mr_tag(key, nonce, parts + ads, m, a)
    return SealedMessage(b"".join(_mr_stream(key, nonce, tag, parts, m)), tag)


def open_mr(key: TweakableKey, nonce: bytes, ad: bytes, ciphertext: bytes, tag: bytes) -> bytes:
    """Open a misuse-resistant message, or raise :class:`AuthenticationError`.

    The keystream is regenerated from the received tag, so the candidate
    plaintext exists internally before verification; it is never returned
    or leaked on failure.
    """
    n, m, a, nonce, parts, ads, tag = _check(key, _MR, nonce, ad, ciphertext, True, tag)
    data = bytearray().join(_mr_stream(key, nonce, tag, parts, m))
    return _release(_mr_tag(key, nonce, [data, *ads], m, a), tag, data, n)


SEAL = {AeadMode.NONCE_RESPECTING: seal_nr, AeadMode.MISUSE_RESISTANT: seal_mr}
OPEN = {AeadMode.NONCE_RESPECTING: open_nr, AeadMode.MISUSE_RESISTANT: open_mr}
