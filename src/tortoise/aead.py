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

Each data dependency is one pass of tweakable calls.  A pass lays its
blocks end to end, message blocks first, then any tag block, then the
associated-data blocks.  A pass of up to ``_LANES`` blocks, which covers
every message up to 32 KiB, is straight-line code: one tweak list built
from one encoder call per tweak domain, one call to the tweakable core,
then the message outputs sliced off and the sums folded as integers.  A
longer pass goes in the even runs of ``block_cipher._runs``, folded run by
run.  The core, ``tweakable._encrypt`` or ``_decrypt``, checks nothing:
``_check`` has bounded every length and tweak on entry.  The nr checksum
and the associated data are known before any block is encrypted, so an nr
seal is one pass; an nr open decrypts first, because its checksum needs
the plaintext, then makes the tag.  In mr the message and associated-data
sums are one pass, the tag block a second and the keystream it seeds a
third, when sealing and opening alike.  The blocks a seal appends go into
the one padded copy of the message it makes, and those an mr open appends
into the join of its keystream.
"""

from __future__ import annotations

import enum
import hmac
from dataclasses import dataclass
from typing import Callable

from . import block_cipher
from .tweakable import (
    TweakableKey,
    _ad_tweaks,
    _decrypt,
    _encrypt,
    _layout,
    _mr_stream_tweaks,
    _mr_tag_tweak,
    _nr_msg_tweaks,
    _nr_tag_tweak,
    _xor,
)

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


def nonce_length(mode: AeadMode, block_len: int = 16) -> int:
    """Required nonce width: the counter layout's nonce in nr, all bytes after the prefix in mr."""
    return _layout(block_len).nonce_len if mode is AeadMode.NONCE_RESPECTING else block_len - 1


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


def _pass(
    crypt: Callable, key: TweakableKey, data: bytes, nonce: bytes, m: int, tags: list[bytes], keep: bool, sum_from: int
) -> tuple[bytes, int]:
    """The tweakable calls over the blocks of ``data``, laid end to end.

    The first ``m`` blocks are message blocks under the counter tweaks of
    ``nonce``; one block per tweak in ``tags`` follows, then the
    associated-data blocks under AD tweaks from 0, each from an unchecked
    encoder: the caller has bounded them.  ``crypt`` is the tweakable core,
    ``_encrypt`` or ``_decrypt``.  Returns the message blocks' outputs if
    ``keep`` is set, and the XOR of the outputs from block ``sum_from`` on.

    Up to ``_LANES`` blocks are one call.  A longer pass goes in the even
    runs of ``_runs``, so that it holds one run's tweaks, subkeys and masks
    at a time, and sums each run's outputs on their own.
    """
    n = key.cipher.block_len
    count, t = len(data) // n, m + len(tags)
    if count <= block_cipher._LANES:
        tweaks = _nr_msg_tweaks(nonce, range(m), n) + tags if m else tags
        out = crypt(key, tweaks + _ad_tweaks(range(count - t), n) if count > t else tweaks, data)
        return out[: m * n] if keep else b"", _fold(out[sum_from * n :], n)
    kept, acc = [], 0
    for run in block_cipher._runs(count):
        lo, hi = run.start, run.stop
        # No name holds the run's tweaks, or the last run's would stay alive through the join.
        out = crypt(
            key,
            _nr_msg_tweaks(nonce, range(lo, min(hi, m)), n)
            + tags[max(lo - m, 0) : max(hi - m, 0)]
            + _ad_tweaks(range(max(lo - t, 0), hi - t), n),
            data[lo * n : hi * n],
        )
        if keep:
            kept.append(out[: max(min(hi, m) - lo, 0) * n])
        acc ^= _fold(out[max(sum_from - lo, 0) * n :], n)
    del out  # else the last run's output would stay alive through the join too
    return b"".join(kept), acc


def _check(key: TweakableKey, mode: AeadMode, nonce: bytes, ad: bytes, data: bytes, tag: bytes | None = None) -> int:
    """Check every length before any block work; return the block length.

    ``tag`` is given only when opening.  The passes encode their tweaks
    unchecked and the tweakable core takes them as they are, so this bounds
    them all: the message blocks' counters, in nr the tag block's next one,
    in mr the keystream's, and the AD blocks.
    """
    n = key.cipher.block_len
    layout = _layout(n)
    nonce_len = nonce_length(mode, n)
    if len(nonce) != nonce_len:
        raise ValueError(f"nonce must be {nonce_len} bytes, got {len(nonce)}")
    if tag is None:
        blocks = len(data) // n + 1
    else:
        if len(tag) != n:
            raise ValueError(f"tag must be {n} bytes, got {len(tag)}")
        if not data or len(data) % n:
            raise ValueError("ciphertext must be a positive multiple of the block size")
        blocks = len(data) // n
    nr = mode is AeadMode.NONCE_RESPECTING
    limit = layout.counter_limit - 1 if nr else min(layout.counter_limit, layout.stream_limit)
    if blocks > limit:
        raise ValueError(f"message of {blocks} padded blocks exceeds the {mode.value} limit of {limit}")
    # Empty associated data still pads to one block, so (ad="", pt=x) and (ad=x, pt="") differ.
    blocks = len(ad) // n + 1
    if blocks > layout.ad_limit:
        raise ValueError(f"associated data of {blocks} padded blocks exceeds the limit of {layout.ad_limit}")
    return n


def _mr_tag(key: TweakableKey, nonce: bytes, data: bytes, m: int) -> bytes:
    """The mr tag of ``data``: ``m`` padded message blocks, then the padded associated data.

    One pass sums both under their tweaks, then the sum is the tag block.
    """
    n = key.cipher.block_len
    acc = _pass(_encrypt, key, data, nonce[: _layout(n).nonce_len], m, [], False, 0)[1]
    return _encrypt(key, [_mr_tag_tweak(nonce)], acc.to_bytes(n, "big"))


def _mr_stream(key: TweakableKey, nonce: bytes, tag: bytes, data: bytes, m: int) -> bytes:
    """XOR the first ``m`` blocks of ``data`` with the keystream seeded by ``tag``; its own inverse.

    Up to ``_LANES`` blocks are one call; a longer stream goes in the runs of ``_runs``, as in :func:`_pass`.
    """
    n = key.cipher.block_len
    seed = b"\x00" + nonce
    if m <= block_cipher._LANES:
        return _xor(data[: m * n], _encrypt(key, _mr_stream_tweaks(tag, range(m), n), seed * m))
    runs = block_cipher._runs(m)
    return b"".join(
        [_xor(data[r.start * n : r.stop * n], _encrypt(key, _mr_stream_tweaks(tag, r, n), seed * len(r))) for r in runs]
    )


def _release(expected: bytes, tag: bytes, data: bytes, end: int, n: int) -> bytes:
    """Return the unpadded plaintext ``data[:end]`` only if the tag verifies in constant time."""
    if hmac.compare_digest(expected, tag):
        k = data[end - 1]
        # Bad padding raises exactly as a tag mismatch does: no padding oracle.
        if 1 <= k <= n and data[end - k : end] == bytes([k]) * k:
            return data[: end - k]
    raise AuthenticationError("authentication failed")


def seal_nr(key: TweakableKey, nonce: bytes, ad: bytes, plaintext: bytes) -> SealedMessage:
    """Seal in nonce-respecting mode.

    The caller must never reuse a (key, nonce) pair; confidentiality and
    authenticity both degrade if it does.
    """
    n = _check(key, AeadMode.NONCE_RESPECTING, nonce, ad, plaintext)
    m = len(plaintext) // n + 1
    pad = _padding(len(plaintext), n)
    # The whole plaintext blocks, then the last padded block: its tail and the padding.
    checksum = _fold(plaintext, n) ^ int.from_bytes(plaintext[(m - 1) * n :] + pad, "big")
    data = b"".join([plaintext, pad, checksum.to_bytes(n, "big"), ad, _padding(len(ad), n)])
    ct, tag = _pass(_encrypt, key, data, nonce, m, [_nr_tag_tweak(nonce, m, n)], True, m)
    return SealedMessage(ct, tag.to_bytes(n, "big"))


def open_nr(key: TweakableKey, nonce: bytes, ad: bytes, ciphertext: bytes, tag: bytes) -> bytes:
    """Open a nonce-respecting message, or raise :class:`AuthenticationError`."""
    n = _check(key, AeadMode.NONCE_RESPECTING, nonce, ad, ciphertext, tag)
    m = len(ciphertext) // n
    plain, checksum = _pass(_decrypt, key, ciphertext, nonce, m, [], True, 0)
    data = b"".join([checksum.to_bytes(n, "big"), ad, _padding(len(ad), n)])
    expected = _pass(_encrypt, key, data, nonce, 0, [_nr_tag_tweak(nonce, m, n)], False, 0)[1]
    return _release(expected.to_bytes(n, "big"), tag, plain, len(plain), n)


def seal_mr(key: TweakableKey, nonce: bytes, ad: bytes, plaintext: bytes) -> SealedMessage:
    """Seal in misuse-resistant mode; deterministic in all four inputs."""
    n = _check(key, AeadMode.MISUSE_RESISTANT, nonce, ad, plaintext)
    m = len(plaintext) // n + 1
    data = b"".join([plaintext, _padding(len(plaintext), n), ad, _padding(len(ad), n)])
    tag = _mr_tag(key, nonce, data, m)
    return SealedMessage(_mr_stream(key, nonce, tag, data, m), tag)


def open_mr(key: TweakableKey, nonce: bytes, ad: bytes, ciphertext: bytes, tag: bytes) -> bytes:
    """Open a misuse-resistant message, or raise :class:`AuthenticationError`.

    The keystream is regenerated from the received tag, so the candidate
    plaintext exists internally before verification; it is never returned
    or leaked on failure.
    """
    n = _check(key, AeadMode.MISUSE_RESISTANT, nonce, ad, ciphertext, tag)
    m = len(ciphertext) // n
    data = b"".join([_mr_stream(key, nonce, tag, ciphertext, m), ad, _padding(len(ad), n)])
    return _release(_mr_tag(key, nonce, data, m), tag, data, m * n, n)


SEAL = {AeadMode.NONCE_RESPECTING: seal_nr, AeadMode.MISUSE_RESISTANT: seal_mr}
OPEN = {AeadMode.NONCE_RESPECTING: open_nr, AeadMode.MISUSE_RESISTANT: open_mr}
