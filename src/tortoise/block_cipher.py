"""Block-cipher contract and the two built-in instantiations.

Everything above this layer is generic over :class:`CipherSpec`: a fixed
block length, a fixed key length, and an encrypt/decrypt pair that is a
permutation of single blocks for every key.  A spec may add a kernel that
takes a whole batch of blocks with one key each; without one, batches go
block by block.  Two specs ship with the package:

* ``AES128`` - the production cipher.  Single blocks go to the
  ``cryptography`` package.  Batches go to OpenSSL's EVP interface, one
  context re-keyed per block, or, from ``_SLICED_MIN_LANES`` blocks on, to
  a byte-sliced kernel in pure Python that gives every block its own key
  schedule.  All three are gated by the repository's known-answer vectors.
* ``TOY`` - a deliberately weak 16-bit substitution-permutation network.
  Its entire codomain can be enumerated on a desktop, which is what the
  brute-force verification harness needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

__all__ = [
    "CipherSpec",
    "AES128",
    "TOY",
    "CIPHERS",
    "get_cipher",
    "aes128_encrypt_block",
    "aes128_decrypt_block",
    "toy_encrypt_block",
    "toy_decrypt_block",
]


def _check_len(name: str, value: bytes, expected: int) -> None:
    if len(value) != expected:
        raise ValueError(f"{name} must be {expected} bytes, got {len(value)}")


@dataclass(frozen=True)
class CipherSpec:
    """A pluggable single-block cipher.

    ``encrypt_block(key, block)`` must be a bijection on ``block_len``-byte
    strings for every ``key_len``-byte key, and ``decrypt_block`` its exact
    inverse.  ``encrypt_kernel(keys, blocks)`` and ``decrypt_kernel``, if
    given, compute the same over a whole batch at once and take every
    batch, of any size; a spec without them goes block by block.  Specs are
    immutable and safe to share across threads.
    """

    name: str
    block_len: int
    key_len: int
    encrypt_block: Callable[[bytes, bytes], bytes]
    decrypt_block: Callable[[bytes, bytes], bytes]
    encrypt_kernel: Callable[[bytes, bytes], bytes] | None = None
    decrypt_kernel: Callable[[bytes, bytes], bytes] | None = None

    def encrypt_blocks(self, keys: bytes, blocks: bytes) -> bytes:
        """Encrypt a batch: ``blocks`` end to end, ``keys`` one per block in the same order.

        The result is laid out like ``blocks``.
        """
        return self._batch(self.encrypt_block, self.encrypt_kernel, keys, blocks)

    def decrypt_blocks(self, keys: bytes, blocks: bytes) -> bytes:
        """Invert :meth:`encrypt_blocks` for the same keys."""
        return self._batch(self.decrypt_block, self.decrypt_kernel, keys, blocks)

    def _batch(self, single: Callable, kernel: Callable | None, keys: bytes, blocks: bytes) -> bytes:
        k, n = self.key_len, self.block_len
        lanes = len(blocks) // n
        if len(blocks) % n or len(keys) != k * lanes:
            raise ValueError(
                f"need one {k}-byte key per {n}-byte block, got {len(keys)} key bytes and {len(blocks)} block bytes"
            )
        if kernel is None:
            return _each_block(single, k, n, keys, blocks)
        return kernel(keys, blocks)


def _each_block(single: Callable[[bytes, bytes], bytes], k: int, n: int, keys: bytes, blocks: bytes) -> bytes:
    """A batch as one ``single(key, block)`` call per lane."""
    return b"".join([single(keys[i * k : i * k + k], blocks[i * n : i * n + n]) for i in range(len(blocks) // n)])


# --- AES-128 -----------------------------------------------------------

# Stateless, so one instance serves every call.
_ECB = modes.ECB()


def aes128_encrypt_block(key: bytes, block: bytes) -> bytes:
    """Encrypt a single 16-byte block with AES-128."""
    _check_len("key", key, 16)
    _check_len("block", block, 16)
    return Cipher(algorithms.AES(key), _ECB).encryptor().update(block)


def aes128_decrypt_block(key: bytes, block: bytes) -> bytes:
    """Decrypt a single 16-byte block with AES-128."""
    _check_len("key", key, 16)
    _check_len("block", block, 16)
    return Cipher(algorithms.AES(key), _ECB).decryptor().update(block)


# --- AES-128 through OpenSSL's EVP interface ---------------------------
#
# A ``cryptography`` context costs about 19 us to build, and a batch needs
# one per block.  One EVP context re-keyed per block costs a few us a lane,
# most of it two ``ctypes`` calls.  ``hashlib``'s ``_hashlib`` extension
# already links libcrypto, so loading the extension's own file resolves
# the EVP symbols through that dependency: no other library is searched
# for or loaded.  Without it, batches go block by block.


def _load_libcrypto() -> ctypes.CDLL:
    import _hashlib

    lib = ctypes.CDLL(_hashlib.__file__)
    ptr, int_ = ctypes.c_void_p, ctypes.c_int
    for name, restype, argtypes in (
        ("EVP_CIPHER_CTX_new", ptr, []),
        ("EVP_CIPHER_CTX_free", None, [ptr]),
        ("EVP_aes_128_ecb", ptr, []),
        ("EVP_CIPHER_CTX_set_padding", int_, [ptr, int_]),
        # (ctx, cipher, engine, key, iv, enc) and (ctx, out, outl, in, inl)
        ("EVP_CipherInit_ex", int_, [ptr, ptr, ptr, ptr, ptr, int_]),
        ("EVP_CipherUpdate", int_, [ptr, ptr, ptr, ptr, int_]),
    ):
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


try:
    import ctypes

    _LIBCRYPTO = _load_libcrypto()
except (ImportError, OSError, AttributeError):
    _LIBCRYPTO = None


def _aes128_evp(keys: bytes, blocks: bytes, enc: int) -> bytes:
    """AES-128 of each 16-byte block under its own key: ``enc`` 1 encrypts, 0 decrypts."""
    n = len(blocks)
    # The lane loop reads 16 key bytes per block through raw pointers.
    if len(keys) != n or n % 16:
        raise ValueError(f"need one 16-byte key per 16-byte block, got {len(keys)} key bytes and {n} block bytes")
    lib = _LIBCRYPTO
    buf = ctypes.create_string_buffer(keys + blocks, 3 * n)  # keys, blocks, then the output
    outl = ctypes.c_int()
    base, outl_ptr = ctypes.addressof(buf), ctypes.addressof(outl)
    ctx = lib.EVP_CIPHER_CTX_new()
    if not ctx:
        raise MemoryError("EVP_CIPHER_CTX_new failed")
    try:
        if lib.EVP_CipherInit_ex(ctx, lib.EVP_aes_128_ecb(), None, None, None, enc) != 1:
            raise RuntimeError("EVP_CipherInit_ex failed")
        if lib.EVP_CIPHER_CTX_set_padding(ctx, 0) != 1:
            raise RuntimeError("EVP_CIPHER_CTX_set_padding failed")
        init, update = lib.EVP_CipherInit_ex, lib.EVP_CipherUpdate
        for key in range(base, base + n, 16):
            # enc -1 keeps the direction; the cipher and padding carry over.
            if init(ctx, None, None, key, None, -1) != 1:
                raise RuntimeError("EVP_CipherInit_ex failed")
            if update(ctx, key + 2 * n, outl_ptr, key + n, 16) != 1 or outl.value != 16:
                raise RuntimeError("EVP_CipherUpdate failed")
    finally:
        lib.EVP_CIPHER_CTX_free(ctx)  # also cleanses the key schedule
    return ctypes.string_at(base + 2 * n, n)


# --- AES-128, byte-sliced across lanes ---------------------------------
#
# Every block of a batch has its own key, so no key schedule or cipher
# context can be shared.  The kernel transposes the batch instead: row p
# holds byte p of every lane (``blocks[p::16]``) and the rows are laid end
# to end in one byte string.  State byte p is column p // 4, row p % 4, as
# in FIPS-197.  A byte substitution is then one ``bytes.translate`` over
# the whole batch, ShiftRows and the byte moves of MixColumns are joins of
# rows in permuted order, and every XOR (AddRoundKey, the MixColumns sums,
# the key schedule) is one big-int XOR over the whole state.
#
# The lookups are indexed by key and state bytes, so this path is not
# constant-time against a cache-timing attacker on the same machine; the
# AES-NI paths behind EVP and ``cryptography`` are.


def _xtime(a: int) -> int:
    a <<= 1
    return a ^ 0x11B if a & 0x100 else a


def _aes_sbox() -> bytes:
    """The S-box from its definition: GF(2^8) inverse, then the affine map."""
    exp, log = [0] * 255, [0] * 256
    x = 1
    for i in range(255):
        exp[i], log[x] = x, i
        x ^= _xtime(x)  # times 3, a generator of the multiplicative group
    sbox = []
    for a in range(256):
        b = exp[-log[a] % 255] if a else 0
        r = b | b << 8  # (r >> (8 - k)) & 0xFF rotates b left by k
        sbox.append(b ^ (r >> 7 & 0xFF) ^ (r >> 6 & 0xFF) ^ (r >> 5 & 0xFF) ^ (r >> 4 & 0xFF) ^ 0x63)
    return bytes(sbox)


_XTIME = bytes(_xtime(x) for x in range(256))


def _times(m: int) -> bytes:
    """The translation table of x * m in GF(2^8)."""
    out, power = 0, bytes(range(256))
    while m:
        if m & 1:
            out ^= int.from_bytes(power, "big")
        power = power.translate(_XTIME)
        m >>= 1
    return out.to_bytes(256, "big")


# Translation tables: S, 2*S and 3*S for SubBytes composed with MixColumns,
# the inverse S-box, and the four InvMixColumns multipliers.
_S1 = _aes_sbox()
_S2 = _S1.translate(_times(2))
_S3 = _S1.translate(_times(3))
_INV_S = bytes(sorted(range(256), key=_S1.__getitem__))
_INV_MIX = tuple(_times(m) for m in (14, 11, 13, 9))
# The key schedule's S-box, one table per round with that round's rcon folded in.
_KEY_SBOX = tuple(bytes(s ^ rcon for s in _S1) for rcon in b"\x01\x02\x04\x08\x10\x20\x40\x80\x1b\x36")

# Row orders.  _SHIFTED[k][p] is the byte whose k-th MixColumns term lands
# in byte p once ShiftRows has moved it: byte p takes 2*S, 3*S, S and S of
# bytes _SHIFTED[0..3][p].  _INV_SHIFTED undoes ShiftRows, and _COLUMN[k]
# picks the k-th InvMixColumns term from the same column.
_SHIFTED = tuple(tuple(4 * ((p // 4 + p % 4 + k) % 4) + (p % 4 + k) % 4 for p in range(16)) for k in range(4))
_INV_SHIFTED = tuple(4 * ((p // 4 - p % 4) % 4) + p % 4 for p in range(16))
_COLUMN = tuple(tuple(4 * (p // 4) + (p % 4 + k) % 4 for p in range(16)) for k in range(4))


def _to_rows(data: bytes) -> int:
    """Lane-major 16-byte blocks as one int over the row layout."""
    return int.from_bytes(b"".join([data[p::16] for p in range(16)]), "big")


def _from_rows(state: int, lanes: int) -> bytes:
    """Invert :func:`_to_rows`."""
    rows = state.to_bytes(16 * lanes, "big")
    out = bytearray(16 * lanes)
    for p in range(16):
        out[p::16] = rows[p * lanes : (p + 1) * lanes]
    return bytes(out)


def _gather(rows: bytes, order: tuple[int, ...], lanes: int) -> int:
    """The rows of ``rows`` joined in ``order``, as one int."""
    view = memoryview(rows)
    return int.from_bytes(b"".join([view[p * lanes : (p + 1) * lanes] for p in order]), "big")


def _round_keys(keys: bytes, lanes: int) -> list[int]:
    """All 11 round keys of every lane, each one int over the row layout."""
    word = 4 * lanes
    bits = 8 * word
    low = (1 << bits) - 1
    k = _to_rows(keys)
    out = [k]
    for table in _KEY_SBOX:
        w3 = (k & low).to_bytes(word, "big")  # rows 12-15, the last word
        # RotWord takes rows 13, 14, 15, 12; byte 0 also takes the rcon.
        t = w3[lanes : 2 * lanes].translate(table) + (w3[2 * lanes :] + w3[:lanes]).translate(_S1)
        t = int.from_bytes(t, "big")
        t |= t << bits
        k ^= k >> bits  # prefix XOR of the four words ...
        k ^= k >> 2 * bits
        k ^= t | t << 2 * bits  # ... then the new word into all four
        out.append(k)
    return out


def _aes128_encrypt_sliced(keys: bytes, blocks: bytes) -> bytes:
    lanes = len(blocks) // 16
    size = 16 * lanes
    rks = _round_keys(keys, lanes)
    a, b, c, d = _SHIFTED
    s = _to_rows(blocks) ^ rks[0]
    for rk in rks[1:10]:
        raw = s.to_bytes(size, "big")
        sub = raw.translate(_S1)
        s = (
            _gather(raw.translate(_S2), a, lanes)
            ^ _gather(raw.translate(_S3), b, lanes)
            ^ _gather(sub, c, lanes)
            ^ _gather(sub, d, lanes)
            ^ rk
        )
    s = _gather(s.to_bytes(size, "big").translate(_S1), a, lanes) ^ rks[10]
    return _from_rows(s, lanes)


def _aes128_decrypt_sliced(keys: bytes, blocks: bytes) -> bytes:
    # The inverse cipher as FIPS-197 states it: InvMixColumns after
    # AddRoundKey costs four translations per round, where the equivalent
    # inverse cipher would also spend four on every round key.
    lanes = len(blocks) // 16
    size = 16 * lanes
    rks = _round_keys(keys, lanes)
    s = _to_rows(blocks) ^ rks[10]
    for rk in reversed(rks[1:10]):
        raw = (_gather(s.to_bytes(size, "big").translate(_INV_S), _INV_SHIFTED, lanes) ^ rk).to_bytes(size, "big")
        s = 0
        for table, order in zip(_INV_MIX, _COLUMN):
            s ^= _gather(raw.translate(table), order, lanes)
    s = _gather(s.to_bytes(size, "big").translate(_INV_S), _INV_SHIFTED, lanes) ^ rks[0]
    return _from_rows(s, lanes)


# --- AES-128 batches: EVP below the threshold, sliced from it on --------

# EVP costs about 3.1 us a lane from a few dozen lanes on.  The sliced
# kernel's fixed cost is about 200 us a call, so its encryption overtakes
# EVP between 256 and 512 lanes: 3.4 against 3.1 us a lane at 256, 2.9
# against 3.1 at 512 (2-core Xeon, one CPU).  Decryption shares the
# threshold.  The sliced kernel decrypts about 20% slower than EVP at any
# size, but on 64 KiB nr opens, whose runs are 1,366 lanes, sending them
# to EVP measured within noise (2.60 against 2.66 MiB/s), so a second
# threshold would buy nothing measurable.
_SLICED_MIN_LANES = 512


def _aes128_encrypt_kernel(keys: bytes, blocks: bytes) -> bytes:
    if len(blocks) >= 16 * _SLICED_MIN_LANES:
        return _aes128_encrypt_sliced(keys, blocks)
    if _LIBCRYPTO is None:
        return _each_block(aes128_encrypt_block, 16, 16, keys, blocks)
    return _aes128_evp(keys, blocks, 1)


def _aes128_decrypt_kernel(keys: bytes, blocks: bytes) -> bytes:
    if len(blocks) >= 16 * _SLICED_MIN_LANES:
        return _aes128_decrypt_sliced(keys, blocks)
    if _LIBCRYPTO is None:
        return _each_block(aes128_decrypt_block, 16, 16, keys, blocks)
    return _aes128_evp(keys, blocks, 0)


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


AES128 = CipherSpec(
    "aes128", 16, 16, aes128_encrypt_block, aes128_decrypt_block, _aes128_encrypt_kernel, _aes128_decrypt_kernel
)
TOY = CipherSpec("toy", 2, 2, toy_encrypt_block, toy_decrypt_block)

CIPHERS: dict[str, CipherSpec] = {spec.name: spec for spec in (AES128, TOY)}


def get_cipher(name: str) -> CipherSpec:
    try:
        return CIPHERS[name]
    except KeyError:
        raise ValueError(f"unknown cipher {name!r}; known: {sorted(CIPHERS)}") from None
