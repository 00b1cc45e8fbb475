"""Block-cipher contract and the two built-in instantiations.

Everything above this layer is generic over :class:`CipherSpec`: a fixed
block length, a fixed key length, and an encrypt/decrypt pair that takes
a whole batch of blocks with one key each and is a permutation of every
block for every key.  :meth:`CipherSpec.from_blocks` builds that pair
from single-block functions.  Two specs ship with the package:

* ``AES128`` - the production cipher, gated by the known-answer vectors.
  Every batch goes to OpenSSL's EVP interface through ``ctypes``, on one
  context per thread re-keyed for every block; a single block is a batch
  of one, ``AES128.encrypt([key], block)``.  Where that libcrypto cannot
  be loaded, the first AES-128 call raises ``RuntimeError``, and a caller
  can plug in another AES-128 as a ``CipherSpec``.
* ``TOY`` - a deliberately weak 16-bit substitution-permutation network,
  built from its block pair.  Its entire codomain can be enumerated on a
  desktop, which is what the brute-force verification harness needs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

__all__ = [
    "CipherSpec",
    "AES128",
    "TOY",
    "CIPHERS",
    "get_cipher",
    "toy_encrypt_block",
    "toy_decrypt_block",
]

_Block = Callable[[bytes, bytes], bytes]
_Batch = Callable[[list[bytes], bytes], bytes]


def _check_len(name: str, value: bytes, expected: int) -> None:
    if len(value) != expected:
        raise ValueError(f"{name} must be {expected} bytes, got {len(value)}")


@dataclass(frozen=True)
class CipherSpec:
    """A pluggable block cipher: two functions over a batch of blocks.

    ``encrypt(keys, blocks)`` takes ``blocks`` end to end and ``keys`` a
    list with one entry per block, whose first ``key_len`` bytes are that
    block's key, so that the tweakable layer hands each lane its SHAKE128
    output as it is; the result is laid out like ``blocks``.  For every
    ``key_len``-byte key it must be a bijection on ``block_len``-byte
    blocks, and ``decrypt`` its exact inverse.  ``block_len`` must be in
    [1, 255], the block lengths PKCS#7 can pad to.  Wrong lengths raise
    ``ValueError``; a backend failure raises ``RuntimeError``, as ``AES128``
    does without libcrypto or when an EVP call fails.  Specs are immutable
    and safe to share across threads.
    """

    name: str
    block_len: int
    key_len: int
    encrypt: _Batch
    decrypt: _Batch

    def __post_init__(self) -> None:
        if not 1 <= self.block_len <= 255:
            raise ValueError(f"block_len must be in [1, 255], got {self.block_len}")

    @classmethod
    def from_blocks(
        cls, name: str, block_len: int, key_len: int, encrypt_block: _Block, decrypt_block: _Block
    ) -> CipherSpec:
        """A spec whose batch pair calls ``encrypt_block(key, block)`` or ``decrypt_block`` lane by lane.

        Each batch checks that there is one key entry per block, then hands
        each block function the first ``key_len`` bytes of its entry; the
        block functions check the exact lengths they need.
        """

        def lanes(block_fn: _Block) -> _Batch:
            def batch(keys: list[bytes], blocks: bytes) -> bytes:
                if len(keys) * block_len != len(blocks):
                    raise ValueError(
                        f"need one key per {block_len}-byte block, got {len(keys)} for {len(blocks)} bytes"
                    )
                n = block_len
                return b"".join([block_fn(key[:key_len], blocks[i * n : i * n + n]) for i, key in enumerate(keys)])

            return batch

        return cls(name, block_len, key_len, lanes(encrypt_block), lanes(decrypt_block))


# --- AES-128 through OpenSSL's EVP interface --------------------------
#
# One EVP context re-keyed per block costs a few us a lane, most of it two
# ``ctypes`` calls, made through ``PyDLL`` so that they keep the
# interpreter lock: releasing it would cost more than these calls.
# ``hashlib``'s ``_hashlib`` extension already links libcrypto, so loading
# the extension's own file resolves the EVP symbols through that
# dependency: no other library is searched for or loaded.  Without it,
# AES-128 is unavailable, and its first call raises ``RuntimeError``.


def _load_libcrypto() -> ctypes.PyDLL:
    import _hashlib

    lib = ctypes.PyDLL(_hashlib.__file__)
    ptr, int_ = ctypes.c_void_p, ctypes.c_int
    for name, restype, argtypes in (
        ("EVP_CIPHER_CTX_new", ptr, []),
        ("EVP_CIPHER_CTX_free", None, [ptr]),
        ("EVP_aes_128_ecb", ptr, []),
        # (ctx, cipher, engine, key, iv) and (ctx, out, in, inl) run once per
        # lane, and declared argtypes made a lane about 20% slower.
        # Undeclared, ctypes passes each argument as it is, so every pointer
        # must be a ``c_void_p`` or its ``from_param``, ``bytes``, ``byref``
        # or None, and every Python int is taken as a C int.
        ("EVP_EncryptInit_ex", int_, None),
        ("EVP_DecryptInit_ex", int_, None),
        ("EVP_Cipher", int_, None),
    ):
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


try:
    import ctypes

    _LIBCRYPTO = _load_libcrypto()
except (ImportError, OSError, AttributeError):
    _LIBCRYPTO = None


class _Context:
    """One thread's EVP context, set up for AES-128-ECB, and its lane arena.

    ``lane`` holds what every lane passes besides its key, built once: the
    context as a ready pointer argument, the bound re-key of each direction
    (``EVP_DecryptInit_ex``, then ``EVP_EncryptInit_ex``), ``EVP_Cipher``, a
    view of the 32 KiB arena and a pointer to each of its ``_LANES`` lanes.
    A thread switch can fall between one lane's re-key and its block, so
    threads must not share a context.  Each thread's is freed with it, and
    :meth:`close` drops ``lane``, so no pointer to a freed context is left.
    """

    ptr = None  # until ``__init__`` has a context to free

    def __init__(self, lib: ctypes.PyDLL) -> None:
        self.lib, self.ptr = lib, ctypes.c_void_p(lib.EVP_CIPHER_CTX_new())
        if not self.ptr:
            raise MemoryError("EVP_CIPHER_CTX_new failed")
        try:
            if lib.EVP_EncryptInit_ex(self.ptr, ctypes.c_void_p(lib.EVP_aes_128_ecb()), None, None, None) != 1:
                raise RuntimeError("EVP_EncryptInit_ex failed")
        except BaseException:
            self.close()
            raise
        self.arena = bytearray(_ARENA)
        view = ctypes.c_char.from_buffer(self.arena)
        # ctypes would turn a ``c_void_p`` into a new argument object on every call; this one goes as it is.
        ctx = ctypes.c_void_p.from_param(self.ptr.value)
        lanes = tuple(ctypes.byref(view, i) for i in range(0, _ARENA, 16))
        inits = (lib.EVP_DecryptInit_ex, lib.EVP_EncryptInit_ex)
        self.lane = (ctx, inits, lib.EVP_Cipher, memoryview(self.arena), lanes)

    def close(self) -> None:
        self.lane = None
        if self.ptr:
            self.lib.EVP_CIPHER_CTX_free(self.ptr)  # also cleanses the key schedule
            self.ptr = None

    __del__ = close


_THREAD = threading.local()
_LANES = 2048  # 16-byte lanes in a thread's arena: aead's run size
_ARENA = 16 * _LANES
_ZEROS = memoryview(bytes(_ARENA))  # what a batch writes over the span of the arena it used
# Loaded after a batch's last lane, so that no subkey's schedule outlives the call.
_ZERO_KEY = bytes(16)

_NO_LIBCRYPTO = (
    "aes128 needs the libcrypto that hashlib's _hashlib extension links, and it could not be loaded;"
    " plug in another AES-128 as a CipherSpec"
)


def _aes128_evp(enc: int) -> _Batch:
    """The AES-128 batch of one direction: ``enc`` 1 encrypts, 0 decrypts.

    EVP keys each lane with the first 16 bytes of its ``keys`` entry, which must be ``bytes``: ctypes
    would pass a ``str`` as a wide-character buffer and refuse other buffers mid-batch.  ``blocks``
    may be any bytes-like object.  They go through the thread's arena in chunks of up to ``_LANES``,
    each encrypted there in place with the context's pre-built arguments, copied out as ``bytes`` and
    zeroed; the caller's blocks are never written.  On a failure the arena is zeroed, and the context dropped and freed.
    """
    init_failed = ("EVP_DecryptInit_ex failed", "EVP_EncryptInit_ex failed")[enc]

    def kernel(keys: list[bytes], blocks: bytes) -> bytes:
        if type(blocks) is not bytes:  # a str or a list of ints is refused here, not in the arena mid-batch
            blocks = memoryview(blocks).tobytes()
        n = len(blocks)
        if len(keys) != n >> 4 or n & 15:
            raise ValueError(f"need one 16-byte key per 16-byte block, got {len(keys)} keys for {n} block bytes")
        for key in keys:
            if type(key) is not bytes:
                raise TypeError(f"each key entry must be bytes, got {type(key).__name__}")
            if len(key) < 16:  # EVP reads 16 bytes of each entry, so it would read past this one's end
                raise ValueError(f"need one 16-byte key per 16-byte block, got a key entry of {len(key)} bytes")
        context = getattr(_THREAD, "context", None)
        if context is None:
            if _LIBCRYPTO is None:
                raise RuntimeError(_NO_LIBCRYPTO)
            context = _THREAD.context = _Context(_LIBCRYPTO)
        ctx, inits, cipher, arena, lanes = context.lane
        init, rest, parts = inits[enc], iter(keys), []
        try:
            for start in range(0, n, _ARENA):
                chunk = blocks[start : start + _ARENA]
                m = len(chunk)
                arena[:m] = chunk
                # ``lanes`` goes first, so that zip takes no key from ``rest`` when a full chunk ends.
                for at, key in zip(lanes, rest):
                    # The cipher carries over a re-key, the init called sets the direction, and EVP_Cipher never pads.
                    if init(ctx, None, None, key, None) != 1:
                        raise RuntimeError(init_failed)
                    # EVP_Cipher returns 16, the bytes written, on OpenSSL 3's provider path but 1 on 1.1.1
                    # (its man page warns of this), and a failure as 0 or -1: so any result under 1 fails.
                    if cipher(ctx, at, at, 16) < 1:
                        raise RuntimeError("EVP_Cipher failed")
                parts.append(arena[:m].tobytes())
                arena[:m] = _ZEROS[:m]
            if init(ctx, None, None, _ZERO_KEY, None) != 1:
                raise RuntimeError(init_failed)
        except BaseException:
            # The context may hold a subkey or be in an unknown state, and the arena lanes of this batch: drop both.
            _THREAD.context = None
            arena[:] = _ZEROS
            context.close()
            raise
        return b"".join(parts)  # one part is returned as it is

    return kernel


# --- Toy cipher --------------------------------------------------------
#
# 4-round SPN on 16-bit blocks: round-key XOR, 4-bit S-box on each nibble,
# rotate one nibble left, then a final whitening key.  Weak on purpose; it
# exists so the generic framework can be checked exhaustively.

_SBOX4 = (0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2)
_SBOX4_INV = tuple(sorted(range(16), key=_SBOX4.__getitem__))


def _rotl16(x: int, r: int) -> int:
    return ((x << r) | (x >> (16 - r))) & 0xFFFF


# A round's substitution and rotation, as one lookup per byte of the state:
# x becomes HI[x >> 8] ^ LO[x & 255].  Forward substitutes every nibble,
# then rotates a nibble left.  A nibble-wise substitution commutes with a
# nibble rotation, so the inverse rotates the inverse substitution right.
# Each HI entry is the LO entry for the same byte, rotated by a byte.
_FWD_LO = [_rotl16(_SBOX4[b >> 4] << 4 | _SBOX4[b & 15], 4) for b in range(256)]
_INV_LO = [_rotl16(_SBOX4_INV[b >> 4] << 4 | _SBOX4_INV[b & 15], 12) for b in range(256)]
_FWD_HI = [_rotl16(x, 8) for x in _FWD_LO]
_INV_HI = [_rotl16(x, 8) for x in _INV_LO]

_TOY_RC = (0x243F, 0x6A88, 0x85A3, 0x08D3, 0x1319)


@lru_cache(maxsize=4096)
def _toy_round_keys(key: int) -> tuple[int, ...]:
    return tuple(_rotl16(key, (3 * r) % 16) ^ _TOY_RC[r] for r in range(5))


def toy_encrypt_block(key: bytes, block: bytes) -> bytes:
    _check_len("key", key, 2)
    _check_len("block", block, 2)
    rks = _toy_round_keys(int.from_bytes(key, "big"))
    s = int.from_bytes(block, "big") ^ rks[0]
    for rk in rks[1:]:
        s = _FWD_HI[s >> 8] ^ _FWD_LO[s & 255] ^ rk
    return s.to_bytes(2, "big")


def toy_decrypt_block(key: bytes, block: bytes) -> bytes:
    _check_len("key", key, 2)
    _check_len("block", block, 2)
    rks = _toy_round_keys(int.from_bytes(key, "big"))
    s = int.from_bytes(block, "big") ^ rks[4]
    for rk in rks[3::-1]:
        s = _INV_HI[s >> 8] ^ _INV_LO[s & 255] ^ rk
    return s.to_bytes(2, "big")


AES128 = CipherSpec("aes128", 16, 16, _aes128_evp(1), _aes128_evp(0))
TOY = CipherSpec.from_blocks("toy", 2, 2, toy_encrypt_block, toy_decrypt_block)

CIPHERS: dict[str, CipherSpec] = {spec.name: spec for spec in (AES128, TOY)}


def get_cipher(name: str) -> CipherSpec:
    try:
        return CIPHERS[name]
    except KeyError:
        raise ValueError(f"unknown cipher {name!r}; known: {sorted(CIPHERS)}") from None
