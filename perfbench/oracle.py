"""Reference AES-128 composition of both modes, coded from the scheme itself.

It shares no code with ``tortoise``: the tweakable cipher is rebuilt from
``hashlib`` SHAKE128 and the ``cryptography`` AES-ECB primitive, and the
two modes from their equations.  The benchmark seals each workload's first
round through it and compares SHA-256 digests with the library's output,
so a backend or refactor that is not bit-exact counts as failing, not as
fast.  The same tweakable cipher is the benchmark's calibration kernel:
run as a script, this module reads a call count per line from stdin and
answers each with the kernel's seconds per call over that many calls.
"""

from __future__ import annotations

import hashlib
import sys
from time import perf_counter

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

N = 16


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(N, "big")


def _tweak_encrypt(key: bytes, tweak: bytes, block: bytes) -> bytes:
    out = hashlib.shake_128(key + tweak).digest(2 * N)
    enc = Cipher(algorithms.AES(out[:N]), modes.ECB()).encryptor().update(block)
    return _xor(enc, out[N:])


def _padded_blocks(data: bytes) -> list[bytes]:
    k = N - len(data) % N
    data += bytes([k]) * k
    return [data[i : i + N] for i in range(0, len(data), N)]


def _ad_accumulator(key: bytes, ad: bytes) -> bytes:
    acc = bytes(N)
    for i, block in enumerate(_padded_blocks(ad)):
        acc = _xor(acc, _tweak_encrypt(key, b"\x20" + i.to_bytes(N - 1, "big"), block))
    return acc


def _counter_tweak(prefix: int, nonce8: bytes, j: int) -> bytes:
    return bytes([prefix << 4]) + nonce8 + j.to_bytes(7, "big")


def seal_nr(key: bytes, nonce: bytes, ad: bytes, pt: bytes) -> tuple[bytes, bytes]:
    """Nonce-respecting seal: returns (ciphertext, tag)."""
    blocks = _padded_blocks(pt)
    checksum = bytes(N)
    ct = []
    for j, p in enumerate(blocks):
        checksum = _xor(checksum, p)
        ct.append(_tweak_encrypt(key, _counter_tweak(0, nonce, j), p))
    tag = _tweak_encrypt(key, _counter_tweak(1, nonce, len(blocks)), checksum)
    return b"".join(ct), _xor(tag, _ad_accumulator(key, ad))


def seal_mr(key: bytes, nonce: bytes, ad: bytes, pt: bytes) -> tuple[bytes, bytes]:
    """Misuse-resistant seal: returns (ciphertext, tag)."""
    blocks = _padded_blocks(pt)
    acc = _ad_accumulator(key, ad)
    for j, p in enumerate(blocks):
        acc = _xor(acc, _tweak_encrypt(key, _counter_tweak(0, nonce[:8], j), p))
    tag = _tweak_encrypt(key, b"\x10" + nonce, acc)
    seed = b"\x00" + nonce
    ct = [_xor(p, _tweak_encrypt(key, _xor(tag, j.to_bytes(N, "big")), seed)) for j, p in enumerate(blocks)]
    return b"".join(ct), tag


SEAL = {"nr": seal_nr, "mr": seal_mr}


def envelope(mode: str, nonce: bytes, ct: bytes, tag: bytes) -> bytes:
    """The CLI's ``TORT`` version-1 envelope around one sealed message."""
    mode_byte = {"nr": 0, "mr": 1}[mode]
    return b"TORT" + bytes([1, mode_byte, len(nonce)]) + nonce + tag + len(ct).to_bytes(8, "big") + ct


def reference_call_s(calls: int) -> float:
    """Seconds per call of this module's tweakable cipher, over ``calls`` calls.

    The benchmark's calibration kernel: fixed code doing the same kind of
    work as the library's per-block path, so its cost tracks the speed the
    shared machine is giving its CPU at the moment.
    """
    key, tweak, block = bytes(range(16)), bytes(16), bytes(16)
    t0 = perf_counter()
    for _ in range(calls):
        _tweak_encrypt(key, tweak, block)
    return (perf_counter() - t0) / calls


if __name__ == "__main__":
    for line in sys.stdin:
        print(reference_call_s(int(line)), flush=True)
