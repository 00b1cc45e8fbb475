"""Tweakable cipher built from any block cipher by hashing (key, tweak).

A single SHAKE128 squeeze of ``master_key || tweak`` yields a per-tweak
subkey plus an n-byte mask; a block is encrypted under the subkey and the
mask is XORed onto the result.  Distinct tweaks therefore select
independent-looking permutations without touching the underlying cipher's
round structure, and any :class:`~tortoise.block_cipher.CipherSpec` can be
dropped in unchanged.  Each squeeze output goes whole to the spec's
``encrypt`` or ``decrypt``, as its lane's key entry: the cipher reads the
subkey from its first ``key_len`` bytes, so no subkey is cut out and
joined.  :func:`tweak_encrypt_many` and
:func:`tweak_decrypt_many` are the one public entry point: they take many
tweaks and blocks at once and hand the blocks to the cipher as one batch,
and a single block is a batch of one.  They check their inputs, then call
the core of their direction, ``_encrypt`` or ``_decrypt``, which ``aead``
calls directly: it has bounded every input on entry.

Tweaks are exactly one block wide.  Byte 0 carries a 4-bit domain prefix
in its high nibble:

* ``0000`` message block (nonce + block counter),
* ``0001`` tag derivation (nonce + block count, or the misuse-resistant
  nonce on its own),
* ``0010`` associated-data block (block index only).

All indices and counters are big-endian.  With 16-byte blocks the counter
layouts carry an 8-byte nonce and the misuse-resistant tag layout a
15-byte nonce; see the encoder docstrings for how the fields shrink on
smaller blocks.  Every encoder is private and checks nothing: ``aead``
bounds its inputs once per message.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .block_cipher import CipherSpec

__all__ = ["TweakableKey", "tweak_encrypt_many", "tweak_decrypt_many"]

# Counters beyond 2^64 blocks are outside any practical message size.
_STREAM_COUNTER_LIMIT = 1 << 64


def shake128(data: bytes, out_len: int) -> bytes:
    """``out_len`` bytes of SHAKE128(``data``); a shorter output is a prefix of a longer one."""
    return hashlib.shake_128(data).digest(out_len)


def _bytes(data: bytes) -> bytes:
    """``data``, any bytes-like object, as ``bytes``: its length counts bytes, and every cipher gets ``bytes``."""
    return data if type(data) is bytes else memoryview(data).tobytes()


def _xor(a: bytes, b: bytes) -> bytes:
    """XOR of two byte strings, for operands built to the same length."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(b), "big")


@dataclass(frozen=True)
class TweakableKey:
    """Master key bound to the cipher it will be used with."""

    master_key: bytes
    cipher: CipherSpec

    def __post_init__(self) -> None:
        if len(self.master_key) != self.cipher.key_len:
            raise ValueError(
                f"master_key must be {self.cipher.key_len} bytes for "
                f"{self.cipher.name}, got {len(self.master_key)}"
            )


class _Layout(NamedTuple):
    """The tweak layouts of one block length: the counter layouts' nonce width and every counter limit."""

    nonce_len: int
    counter_limit: int
    ad_limit: int
    stream_limit: int


@lru_cache(maxsize=None)
def _layout(block_len: int) -> _Layout:
    """Work the layouts of ``block_len`` out once, not on every encoder call.

    The counter layouts carry 2^56 block counters at n=16 and 16 at n=2.
    """
    nonce_len = min(8, block_len - 1)
    counter_len = block_len - 1 - nonce_len
    counter_limit = 256**counter_len if counter_len else 16
    return _Layout(nonce_len, counter_limit, 256 ** (block_len - 1), min(_STREAM_COUNTER_LIMIT, 256**block_len))


def _ad_tweaks(indices: range, block_len: int) -> list[bytes]:
    """Tweak for each associated-data block of an ascending ``indices`` range: 0x20, then the index, big-endian."""
    return [b"\x20" + i.to_bytes(block_len - 1, "big") for i in indices]


def _nr_msg_tweaks(nonce: bytes, counters: range, block_len: int) -> list[bytes]:
    """Message tweak for each counter of an ascending ``counters`` range: prefix 0, nonce, block counter.

    The counter occupies the bytes left after the nonce (7 bytes at n=16);
    when none remain, as with 2-byte blocks, it moves into the low nibble of
    byte 0 and is limited to 15.
    """
    counter_len = block_len - 1 - len(nonce)
    if counter_len:
        head = b"\x00" + nonce
        return [head + j.to_bytes(counter_len, "big") for j in counters]
    return [bytes([j]) + nonce for j in counters]


def _nr_tag_tweak(nonce: bytes, count: int, block_len: int) -> bytes:
    """The nr tag tweak of a ``count``-block message: the message layout with prefix 1 and counter ``count``."""
    counter_len = block_len - 1 - len(nonce)
    return b"\x10" + nonce + count.to_bytes(counter_len, "big") if counter_len else bytes([0x10 | count]) + nonce


def _mr_tag_tweak(nonce: bytes) -> bytes:
    """Tag tweak for the misuse-resistant mode: 0x10, then a nonce filling the rest."""
    return b"\x10" + nonce


def _mr_stream_tweaks(tag: bytes, counters: range, block_len: int) -> list[bytes]:
    """Keystream tweak for each counter of an ascending ``counters`` range: the tag XOR the counter, big-endian."""
    t = int.from_bytes(tag, "big")
    return [(t ^ j).to_bytes(block_len, "big") for j in counters]


def _squeeze(key: TweakableKey, tweaks: list[bytes]) -> tuple[list[bytes], bytes]:
    """One SHAKE128 squeeze of ``master_key || tweak`` per tweak, and the masks end to end.

    Each output keys its lane as it is: the cipher reads the subkey from its
    first ``key_len`` bytes, and its last ``block_len`` bytes are the mask.
    """
    mk, kl = key.master_key, key.cipher.key_len
    size = kl + key.cipher.block_len
    outs = [shake128(mk + tweak, size) for tweak in tweaks]
    return outs, b"".join([out[kl:] for out in outs])


def _encrypt(key: TweakableKey, tweaks: list[bytes], blocks: bytes) -> bytes:
    """The encrypting core: the squeezes, one cipher batch keyed by them, the masks applied; no input checks."""
    outs, masks = _squeeze(key, tweaks)
    return _xor(key.cipher.encrypt(outs, blocks), masks)


def _decrypt(key: TweakableKey, tweaks: list[bytes], blocks: bytes) -> bytes:
    """The decrypting core, the inverse of :func:`_encrypt`; no input checks either."""
    outs, masks = _squeeze(key, tweaks)
    return key.cipher.decrypt(outs, _xor(blocks, masks))


def _check_batch(key: TweakableKey, tweaks: list[bytes], blocks: bytes) -> None:
    n = key.cipher.block_len
    if len(blocks) != n * len(tweaks) or any(len(tweak) != n for tweak in tweaks):
        raise ValueError(f"every tweak must be {n} bytes, with one {n}-byte block each; got {len(blocks)} block bytes")


def tweak_encrypt_many(key: TweakableKey, tweaks: list[bytes], blocks: bytes) -> bytes:
    """Encrypt ``blocks``, one block per tweak, each under the permutation its tweak selects.

    ``blocks``, any bytes-like object, and the result are the blocks end to
    end.  The blocks are independent, so the cipher sees them as one batch.
    """
    blocks = _bytes(blocks)
    _check_batch(key, tweaks, blocks)
    return _encrypt(key, tweaks, blocks)


def tweak_decrypt_many(key: TweakableKey, tweaks: list[bytes], blocks: bytes) -> bytes:
    """Invert :func:`tweak_encrypt_many` for the same key and tweaks."""
    blocks = _bytes(blocks)
    _check_batch(key, tweaks, blocks)
    return _decrypt(key, tweaks, blocks)
