"""Tweakable cipher built from any block cipher by hashing (key, tweak).

A single SHAKE128 squeeze of ``master_key || tweak`` yields a per-tweak
subkey plus an n-byte mask; a block is encrypted under the subkey and the
mask is XORed onto the result.  Distinct tweaks therefore select
independent-looking permutations without touching the underlying cipher's
round structure, and any :class:`~tortoise.block_cipher.CipherSpec` can be
dropped in unchanged.  Each squeeze output goes whole to the spec's
``encrypt`` or ``decrypt``, as its lane's key entry: the cipher reads the
subkey from its first ``key_len`` bytes, so no subkey is cut out and
joined.  :func:`tweak_encrypt_many` and :func:`tweak_decrypt_many` are
the one public entry point: they take many tweaks and blocks at once and
hand the blocks to the cipher as one batch, and a single block is a batch
of one.  They check their inputs, then call the core of their direction,
``_encrypt`` or ``_decrypt``, which ``aead`` calls directly: it has
bounded every input on entry.  Tweaks are one block wide and opaque here:
the modes in ``aead`` choose them and lay them out.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .block_cipher import CipherSpec, _bytes

__all__ = ["TweakableKey", "tweak_encrypt_many", "tweak_decrypt_many"]


def shake128(data: bytes, out_len: int) -> bytes:
    """``out_len`` bytes of SHAKE128(``data``); a shorter output is a prefix of a longer one."""
    return hashlib.shake_128(data).digest(out_len)


def _xor(a: bytes, b: bytes) -> bytes:
    """XOR of two byte strings, for operands built to the same length."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(b), "big")


@dataclass(frozen=True)
class TweakableKey:
    """Master key bound to the cipher it will be used with; kept as a ``bytes`` copy, left out of ``repr``."""

    master_key: bytes = field(repr=False)
    cipher: CipherSpec

    def __post_init__(self) -> None:
        if not isinstance(self.cipher, CipherSpec):
            raise TypeError(f"cipher must be a CipherSpec, not {type(self.cipher).__name__}")
        object.__setattr__(self, "master_key", _bytes(self.master_key))
        if len(self.master_key) != self.cipher.key_len:
            raise ValueError(
                f"master_key must be {self.cipher.key_len} bytes for "
                f"{self.cipher.name}, got {len(self.master_key)}"
            )


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


def _check_batch(key: TweakableKey, tweaks: list[bytes], blocks: bytes) -> tuple[list[bytes], bytes]:
    """``tweaks`` and ``blocks`` as ``bytes``, checked to hold one block per tweak, each tweak a block wide."""
    if not isinstance(key, TweakableKey):
        raise TypeError(f"key must be a TweakableKey, not {type(key).__name__}")
    tweaks, blocks, n = [_bytes(tweak) for tweak in tweaks], _bytes(blocks), key.cipher.block_len
    if len(blocks) != n * len(tweaks) or any(len(tweak) != n for tweak in tweaks):
        raise ValueError(f"every tweak must be {n} bytes, with one {n}-byte block each; got {len(blocks)} block bytes")
    return tweaks, blocks


def tweak_encrypt_many(key: TweakableKey, tweaks: list[bytes], blocks: bytes) -> bytes:
    """Encrypt ``blocks``, one block per tweak, each under the permutation its tweak selects.

    Each tweak and ``blocks`` may be any bytes-like object; ``blocks`` and the
    result are the blocks end to end, which the cipher sees as one batch.
    """
    return _encrypt(key, *_check_batch(key, tweaks, blocks))


def tweak_decrypt_many(key: TweakableKey, tweaks: list[bytes], blocks: bytes) -> bytes:
    """Invert :func:`tweak_encrypt_many` for the same key and tweaks."""
    return _decrypt(key, *_check_batch(key, tweaks, blocks))
