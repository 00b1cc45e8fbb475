"""Block-cipher contract and the two built-in instantiations.

Everything above this layer is generic over :class:`CipherSpec`: a fixed
block length, a fixed key length, and an encrypt/decrypt pair that takes
a whole batch of blocks with one key each and is a permutation of every
block for every key.  Both built-in specs are such batch pairs, each
direction one kernel; every batch checks its lanes in :func:`_lanes`;
:meth:`CipherSpec.from_blocks` is the adapter that plugs in a cipher
which comes as single-block functions.  A single block is a batch of
one, ``AES128.encrypt([key], block)``.

* ``AES128`` - the production cipher, gated by the known-answer vectors.
  Every batch goes to OpenSSL's EVP interface through ``ctypes``, on one
  context per thread re-keyed for every block.  Where that libcrypto
  cannot be loaded, the first AES-128 call raises ``RuntimeError``, and
  a caller can plug in another AES-128 as a ``CipherSpec``.
* ``TOY`` - a deliberately weak 16-bit substitution-permutation network.
  Its entire codomain can be enumerated on a desktop, which is what the
  brute-force verification harness needs.  One factory per direction,
  :func:`_toy`, builds both codings over the same round tables and round
  keys: the batch runs the rounds inline, lane by lane, and
  :func:`toy_encrypt_block` and :func:`toy_decrypt_block` run them a block
  at a time, as the reference that ``kat diff`` and the tests check the
  batches against.
"""

from __future__ import annotations

import operator
import struct
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

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


def _bytes(data: bytes) -> bytes:
    """The package's one rule for bytes-like ``data``: ``bytes`` as it is, else a flat byte view, ``len`` in bytes."""
    if type(data) is bytes:
        return data
    view = memoryview(data)  # anything that is not bytes-like raises TypeError here
    return view.cast("B") if view.c_contiguous else view.tobytes()  # a view with gaps has no flat view: copy it


def _lanes(keys: list[bytes], blocks: bytes, block_len: int, key_len: int) -> bytes:
    """``blocks`` by :func:`_bytes`, checked with ``keys`` by the one rule of every batch (see :class:`CipherSpec`)."""
    if type(blocks) is not bytes:  # every batch the modes make is bytes, and skips the call
        blocks = _bytes(blocks)
    if len(keys) * block_len != len(blocks):
        raise ValueError(
            f"need one {key_len}-byte key per {block_len}-byte block, got {len(keys)} keys for {len(blocks)} bytes"
        )
    for key in keys:
        if type(key) is not bytes:
            raise TypeError(f"each key entry must be bytes, got {type(key).__name__}")
        if len(key) < key_len:
            raise ValueError(f"need one {key_len}-byte key per {block_len}-byte block, got a {len(key)}-byte entry")
    return blocks


@dataclass(frozen=True)
class CipherSpec:
    """A pluggable block cipher: two functions over a batch of blocks.

    ``encrypt(keys, blocks)`` takes ``blocks`` end to end and ``keys`` a
    list with one entry per block, whose first ``key_len`` bytes are that
    block's key, so that the tweakable layer hands each lane its SHAKE128
    output as it is; the result is laid out like ``blocks``.  For every
    ``key_len``-byte key it must be a bijection on ``block_len``-byte
    blocks, and ``decrypt`` its exact inverse.  ``block_len`` must be an
    int in [1, 255], the block lengths PKCS#7 can pad to, and ``key_len``
    an int of at least 1.  Every batch is checked by :func:`_lanes` before
    its first lane: ``blocks`` bytes-like and each entry ``bytes``, else
    ``TypeError``; one entry of at least ``key_len`` bytes per block, else
    ``ValueError``.  A backend failure raises ``RuntimeError``, as ``AES128``
    does without libcrypto or when an EVP call fails.  Specs are immutable
    and safe to share across threads.
    """

    name: str
    block_len: int
    key_len: int
    encrypt: _Batch
    decrypt: _Batch

    def __post_init__(self) -> None:
        object.__setattr__(self, "block_len", operator.index(self.block_len))
        object.__setattr__(self, "key_len", operator.index(self.key_len))
        if not 1 <= self.block_len <= 255:
            raise ValueError(f"block_len must be in [1, 255], got {self.block_len}")
        if self.key_len < 1:
            raise ValueError(f"key_len must be at least 1, got {self.key_len}")

    @classmethod
    def from_blocks(
        cls, name: str, block_len: int, key_len: int, encrypt_block: _Block, decrypt_block: _Block
    ) -> CipherSpec:
        """A spec whose batch pair calls ``encrypt_block(key, block)`` or ``decrypt_block`` lane by lane.

        The adapter for a plug-in cipher that comes as a single-block pair.
        Each batch is checked by :func:`_lanes`, as the built-in ones are, so
        a short or non-``bytes`` key entry is refused before any block call;
        each block function then gets exactly ``key_len`` bytes of key and
        ``block_len`` bytes of block, both ``bytes``, so a view is copied.
        """

        def lanes(block_fn: _Block) -> _Batch:
            def batch(keys: list[bytes], blocks: bytes) -> bytes:
                n, k = spec.block_len, spec.key_len  # the lengths as the spec typed and bounded them
                blocks = bytes(_lanes(keys, blocks, n, k))
                return b"".join([block_fn(key[:k], blocks[i * n : i * n + n]) for i, key in enumerate(keys)])

            return batch

        spec = cls(name, block_len, key_len, lanes(encrypt_block), lanes(decrypt_block))
        return spec


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
        # The engine-free (ctx, cipher, key, iv) re-key and (ctx, out, in, inl)
        # run once per lane; declared argtypes made a lane about 20% slower.
        # Undeclared, ctypes passes each argument as it is, so every pointer
        # must be a ``c_void_p`` or its ``from_param``, ``bytes``, ``byref``
        # or None, and every Python int is taken as a C int.
        ("EVP_EncryptInit", int_, None),
        ("EVP_DecryptInit", int_, None),
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
    (``EVP_DecryptInit``, then ``EVP_EncryptInit``), ``EVP_Cipher``, a
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
            if lib.EVP_EncryptInit(self.ptr, ctypes.c_void_p(lib.EVP_aes_128_ecb()), None, None) != 1:
                raise RuntimeError("EVP_EncryptInit failed")
        except BaseException:
            self.close()
            raise
        self.arena = bytearray(_ARENA)
        view = ctypes.c_char.from_buffer(self.arena)
        # ctypes would turn a ``c_void_p`` into a new argument object on every call; this one goes as it is.
        ctx = ctypes.c_void_p.from_param(self.ptr.value)
        lanes = tuple(ctypes.byref(view, i) for i in range(0, _ARENA, 16))
        inits = (lib.EVP_DecryptInit, lib.EVP_EncryptInit)
        self.lane = (ctx, inits, lib.EVP_Cipher, memoryview(self.arena), lanes)

    def close(self) -> None:
        self.lane = None
        if self.ptr:
            self.lib.EVP_CIPHER_CTX_free(self.ptr)  # also cleanses the key schedule
            self.ptr = None

    __del__ = close


_THREAD = threading.local()
_LANES = 2048  # 16-byte lanes in a thread's arena: the most that one kernel pass, or one aead batch, holds
_ARENA = 16 * _LANES
_ZEROS = memoryview(bytes(_ARENA))  # what a pass writes over the span of the arena it used
# Loaded after a pass's last lane, so that no subkey's schedule outlives it.
_ZERO_KEY = bytes(16)


def _runs(count: int) -> Iterator[range]:
    """Lanes 0 to ``count`` - 1, ``count`` > 0, in even runs of at most ``_LANES``, made one by one as they are used."""
    step = -(-count // -(-count // _LANES))
    return (range(lo, min(lo + step, count)) for lo in range(0, count, step))


_NO_LIBCRYPTO = (
    "aes128 needs the libcrypto that hashlib's _hashlib extension links, and it could not be loaded;"
    " plug in another AES-128 as a CipherSpec"
)


def _aes128_evp(enc: int) -> _Batch:
    """The AES-128 batch of one direction: ``enc`` 1 encrypts, 0 decrypts.

    EVP keys each lane with the first 16 bytes of its ``keys`` entry, which must be ``bytes``: ctypes would pass
    a ``str`` as a wide-character buffer and refuse other buffers mid-batch.  ``blocks`` may be any bytes-like
    object.  A pass of up to ``_LANES`` lanes goes through the thread's arena, where it is encrypted in place
    with the context's pre-built arguments, copied out as ``bytes`` and zeroed; the caller's blocks are never
    written.  A longer batch, which only a direct caller makes, is checked whole, then cut into :func:`_runs` of
    one pass each, each checked again.  On a failure the arena is zeroed, and the context dropped and freed.
    """
    init_failed = ("EVP_DecryptInit failed", "EVP_EncryptInit failed")[enc]

    def kernel(keys: list[bytes], blocks: bytes) -> bytes:
        blocks = _lanes(keys, blocks, 16, 16)  # EVP reads 16 bytes of each entry: a short one must not reach it
        n = len(blocks)
        if len(keys) > _LANES:
            runs = _runs(len(keys))
            return b"".join([kernel(keys[r.start : r.stop], blocks[16 * r.start : 16 * r.stop]) for r in runs])
        context = getattr(_THREAD, "context", None)
        if context is None:
            if _LIBCRYPTO is None:
                raise RuntimeError(_NO_LIBCRYPTO)
            context = _THREAD.context = _Context(_LIBCRYPTO)
        ctx, inits, cipher, arena, lanes = context.lane
        init = inits[enc]
        try:
            arena[:n] = blocks
            for at, key in zip(lanes, keys):
                # The cipher carries over a re-key, the init called sets the direction, and EVP_Cipher never pads.
                if init(ctx, None, key, None) != 1:
                    raise RuntimeError(init_failed)
                # EVP_Cipher returns 16, the bytes written, on OpenSSL 3's provider path but 1 on 1.1.1
                # (its man page warns of this), and a failure as 0 or -1: so any result under 1 fails.
                if cipher(ctx, at, at, 16) < 1:
                    raise RuntimeError("EVP_Cipher failed")
            out = arena[:n].tobytes()
            arena[:n] = _ZEROS[:n]
            if init(ctx, None, _ZERO_KEY, None) != 1:
                raise RuntimeError(init_failed)
        except BaseException:
            # The context may hold a subkey or be in an unknown state, and the arena this pass's lanes: drop both.
            _THREAD.context = None
            arena[:] = _ZEROS
            context.close()
            raise
        return out

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
    # Round key r is the key rotated left by 3r bits XOR _TOY_RC[r]: the two copies of the key shifted right by 16 - 3r.
    k, (c0, c1, c2, c3, c4) = key << 16 | key, _TOY_RC
    return key ^ c0, (k >> 13 & 0xFFFF) ^ c1, (k >> 10 & 0xFFFF) ^ c2, (k >> 7 & 0xFFFF) ^ c3, (k >> 4 & 0xFFFF) ^ c4


def _toy(hi: list[int], lo: list[int], schedule: Callable[[int], tuple[int, ...]]) -> tuple[_Block, _Batch]:
    """One direction's two codings over the ``hi``/``lo`` round tables and ``schedule``'s keys in the order applied.

    The single-block reference checks that key and block are 2 bytes each and loops over the round keys.  The
    batch is checked by :func:`_lanes` before any lane; the first 2 bytes of each key entry are its lane's key.
    Each lane then runs the whitening key and the four table rounds inline, and the output is packed once.
    """

    def reference(key: bytes, block: bytes) -> bytes:
        if len(key) != 2 or len(block) != 2:
            raise ValueError(f"key and block must be 2 bytes each, got {len(key)} and {len(block)}")
        rks = schedule(int.from_bytes(key, "big"))
        s = int.from_bytes(block, "big") ^ rks[0]
        for rk in rks[1:]:
            s = hi[s >> 8] ^ lo[s & 255] ^ rk
        return s.to_bytes(2, "big")

    def kernel(keys: list[bytes], blocks: bytes) -> bytes:
        blocks = _lanes(keys, blocks, 2, 2)
        count = len(keys)
        out = []
        for key, s in zip(keys, struct.unpack(f">{count}H", blocks)):
            k0, k1, k2, k3, k4 = schedule(key[0] << 8 | key[1])
            s ^= k0
            s = hi[s >> 8] ^ lo[s & 255] ^ k1
            s = hi[s >> 8] ^ lo[s & 255] ^ k2
            s = hi[s >> 8] ^ lo[s & 255] ^ k3
            out.append(hi[s >> 8] ^ lo[s & 255] ^ k4)
        return struct.pack(f">{count}H", *out)

    return reference, kernel


toy_encrypt_block, _toy_encrypt = _toy(_FWD_HI, _FWD_LO, _toy_round_keys)
# Decryption reads the same cached schedule, last round key first.
toy_decrypt_block, _toy_decrypt = _toy(_INV_HI, _INV_LO, lambda key: _toy_round_keys(key)[::-1])

AES128 = CipherSpec("aes128", 16, 16, _aes128_evp(1), _aes128_evp(0))
TOY = CipherSpec("toy", 2, 2, _toy_encrypt, _toy_decrypt)

CIPHERS: dict[str, CipherSpec] = {spec.name: spec for spec in (AES128, TOY)}


def get_cipher(name: str) -> CipherSpec:
    try:
        return CIPHERS[name]
    except KeyError:
        raise ValueError(f"unknown cipher {name!r}; known: {sorted(CIPHERS)}") from None
