"""The batch block-cipher contract and the batch tweakable calls built on it."""

import ctypes
import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from itertools import accumulate
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

import composed_tweakable
import reference_aes
from composed_tweakable import CRYPTOGRAPHY_AES128
from tortoise import aead, block_cipher, tweakable
from tortoise.block_cipher import AES128, CIPHERS, TOY, CipherSpec
from tortoise.aead import OPEN, SEAL, AeadMode, nonce_length, open_nr, seal_nr
from tortoise.tweakable import (
    TweakableKey,
    _ad_tweaks,
    _mr_stream_tweaks,
    _mr_tag_tweak,
    _nr_msg_tweaks,
    _nr_tag_tweak,
    tweak_decrypt_many,
    tweak_encrypt_many,
)

ROOT = Path(__file__).resolve().parent.parent
MAX = aead._SEGMENT
# Empty and tiny batches, 511-513 lanes (where a table-based kernel once took over), around the
# largest batch aead makes, which fills the EVP kernel's arena, and one that goes through the arena
# in three chunks.
AES_LANES = [0, 1, 2, 3, 511, 512, 513, MAX - 1, MAX, MAX + 1, 2 * MAX + 1]


def _split(data: bytes, n: int) -> list[bytes]:
    return [data[i : i + n] for i in range(0, len(data), n)]


# A plug-in built from its block pair alone: no batch kernel, and a key twice the block length.
AES256 = composed_tweakable.aes_spec(32)


@pytest.mark.parametrize("lanes", AES_LANES)
def test_aes128_batch_matches_single_block_calls(lanes):
    rng = random.Random(lanes)
    keys, blocks = rng.randbytes(16 * lanes), rng.randbytes(16 * lanes)
    ct = AES128.encrypt_blocks(keys, blocks)
    pairs = list(zip(_split(keys, 16), _split(blocks, 16), _split(ct, 16)))
    # Single blocks from cryptography: the library's own single blocks run the EVP kernel too.
    assert [CRYPTOGRAPHY_AES128.encrypt_block(k, p) for k, p, _ in pairs] == [c for _, _, c in pairs]
    assert AES128.decrypt_blocks(keys, blocks) == b"".join(CRYPTOGRAPHY_AES128.decrypt_block(k, p) for k, p, _ in pairs)
    assert AES128.decrypt_blocks(keys, ct) == blocks


@pytest.mark.parametrize("lanes", AES_LANES)
def test_aes128_batch_matches_independent_implementation(lanes):
    rng = random.Random(0xB0 + lanes)
    keys, blocks = rng.randbytes(16 * lanes), rng.randbytes(16 * lanes)
    # Every lane is checked at the small sizes; a spread sample at the large ones.
    picks = range(lanes) if lanes <= 513 else sorted(rng.sample(range(lanes), 40) + [0, lanes - 1])
    ct = _split(AES128.encrypt_blocks(keys, blocks), 16)
    pt = _split(AES128.decrypt_blocks(keys, blocks), 16)
    for i in picks:
        key, block = keys[16 * i : 16 * i + 16], blocks[16 * i : 16 * i + 16]
        assert ct[i] == reference_aes.encrypt_block(key, block)
        assert pt[i] == reference_aes.decrypt_block(key, block)


def _fresh_interpreter(script, *args):
    """Run ``script`` in a new interpreter with ``src`` and ``tests`` on its path."""
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}, timeout=120,
    )


# Run in a fresh interpreter: libcrypto is loaded when block_cipher is imported.
_WITHOUT_LIBCRYPTO = """
import os, sys
sys.modules["_hashlib"] = None  # hashlib falls back to its builtin SHAKE128, and no libcrypto loads
from tortoise import block_cipher, cli
from tortoise.aead import open_mr, open_nr, seal_mr, seal_nr
from tortoise.block_cipher import AES128, TOY
from tortoise.tweakable import TweakableKey

toy_kat, work = sys.argv[1], sys.argv[2]
assert block_cipher._LIBCRYPTO is None
key = TweakableKey(bytes(16), AES128)
for call, args in [
    (AES128.encrypt_block, (bytes(16), bytes(16))),
    (AES128.decrypt_block, (bytes(16), bytes(16))),
    (AES128.encrypt_blocks, (bytes(48), bytes(48))),
    (AES128.decrypt_blocks, (b"", b"")),
    (seal_nr, (key, bytes(8), b"ad", b"plaintext")),
    (open_mr, (key, bytes(15), b"ad", bytes(16), bytes(16))),
]:
    try:
        call(*args)
    except RuntimeError as exc:
        assert str(exc) == block_cipher._NO_LIBCRYPTO, exc
    else:
        raise AssertionError(f"{call} ran without libcrypto")
toy = TweakableKey(b"\\x13\\x37", TOY)
for seal, open_ in ((seal_nr, open_nr), (seal_mr, open_mr)):
    sealed = seal(toy, b"\\x05", b"ad", b"plaintext")
    assert open_(toy, b"\\x05", b"ad", sealed.ciphertext, sealed.tag) == b"plaintext"
assert cli.main(["kat", "verify", toy_kat]) == 0
plain, out = os.path.join(work, "plain.bin"), os.path.join(work, "sealed.bin")
with open(plain, "wb") as f:
    f.write(b"payload")
rc = cli.main(["encrypt", "--mode", "nr", "--key-hex", "00" * 16, "--nonce-random", "--in", plain, "--out", out])
assert rc == 1, rc
assert os.listdir(work) == ["plain.bin"], os.listdir(work)
"""


def test_aes128_without_libcrypto_raises_a_documented_error(tmp_path):
    proc = _fresh_interpreter(_WITHOUT_LIBCRYPTO, ROOT / "kats" / "toy.kat", tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "20/20 records passed"
    assert proc.stderr == f"error: {block_cipher._NO_LIBCRYPTO}\n"


@pytest.mark.skipif(sys.platform != "linux", reason="hashlib links libcrypto dynamically on Linux")
def test_libcrypto_loads_on_linux():
    # Without it the built-in aes128 cannot run at all.
    assert block_cipher._LIBCRYPTO is not None


_WITHOUT_CRYPTOGRAPHY = """
import sys
sys.modules["cryptography"] = None  # importing it, or any module under it, raises ImportError
from pathlib import Path
from tortoise import AES128, TweakableKey, cli, open_mr, open_nr, seal_mr, seal_nr

kats, work = Path(sys.argv[1]), Path(sys.argv[2])
# FIPS-197 Appendix C.1, through the single-block pair and through batches.
key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
pt, ct = bytes.fromhex("00112233445566778899aabbccddeeff"), bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
assert AES128.encrypt_block(key, pt) == ct and AES128.decrypt_block(key, ct) == pt
assert AES128.encrypt_blocks(key * 3, pt * 3) == ct * 3 and AES128.decrypt_blocks(key * 3, ct * 3) == pt * 3
for seal, open_, nonce in ((seal_nr, open_nr, bytes(8)), (seal_mr, open_mr, bytes(15))):
    sealed = seal(TweakableKey(key, AES128), nonce, b"ad", b"plaintext")
    assert open_(TweakableKey(key, AES128), nonce, b"ad", sealed.ciphertext, sealed.tag) == b"plaintext"
plain = work / "plain.bin"
plain.write_bytes(bytes(range(256)) * 4)
for mode in ("nr", "mr"):
    sealed, opened = work / f"sealed.{mode}", work / f"opened.{mode}"
    args = ["--key-hex", key.hex(), "--ad-hex", "6164"]
    assert cli.main(["encrypt", "--mode", mode, "--nonce-random", *args, "--in", str(plain), "--out", str(sealed)]) == 0
    assert cli.main(["decrypt", *args, "--in", str(sealed), "--out", str(opened)]) == 0
    assert opened.read_bytes() == plain.read_bytes()
assert cli.main(["kat", "verify", str(kats / "aes128.kat")]) == 0
assert cli.main(["kat", "verify", str(kats / "toy.kat")]) == 0
assert cli.main(["kat", "diff"]) == 0
"""


@pytest.mark.skipif(block_cipher._LIBCRYPTO is None, reason="no libcrypto behind hashlib")
def test_no_tortoise_path_needs_cryptography(tmp_path):
    # cryptography comes with the test extra only, as an oracle; tortoise itself runs without it.
    proc = _fresh_interpreter(_WITHOUT_CRYPTOGRAPHY, ROOT / "kats", tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(block_cipher._LIBCRYPTO is None, reason="no libcrypto behind hashlib")
def test_small_aes128_batch_makes_no_per_block_call(monkeypatch):
    def refuse(key, block):
        raise AssertionError("per-block call")

    monkeypatch.setattr(block_cipher, "aes128_encrypt_block", refuse)
    monkeypatch.setattr(block_cipher, "aes128_decrypt_block", refuse)
    keys, blocks = random.Random(3).randbytes(48), random.Random(4).randbytes(48)
    assert AES128.decrypt_blocks(keys, AES128.encrypt_blocks(keys, blocks)) == blocks


class _Lib:
    """The loaded libcrypto with one function replaced, counting contexts made and freed."""

    def __init__(self, real, name, fake):
        self._real, self.made, self.freed = real, 0, 0
        setattr(self, name, fake)

    def __getattr__(self, name):
        return getattr(self._real, name)

    def EVP_CIPHER_CTX_new(self):
        self.made += 1
        return self._real.EVP_CIPHER_CTX_new()

    def EVP_CIPHER_CTX_free(self, ctx):
        self.freed += 1
        self._real.EVP_CIPHER_CTX_free(ctx)


def _on_a_new_thread(fn):
    """``fn()`` on a thread of its own, which starts with no EVP context and frees its own on exit."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=60)


# Each direction's batch and a mode call that starts with a batch of that direction.
_ZERO = TweakableKey(bytes(16), AES128)
_DIRECTIONS = {
    "encrypt": (AES128.encrypt_blocks, lambda: seal_nr(_ZERO, bytes(8), b"", bytes(40))),
    "decrypt": (AES128.decrypt_blocks, lambda: open_nr(_ZERO, bytes(8), b"", bytes(48), bytes(16))),
}


@pytest.mark.skipif(block_cipher._LIBCRYPTO is None, reason="no libcrypto behind hashlib")
@pytest.mark.parametrize(
    "name,code,direction",
    [
        # The context is set up with EVP_EncryptInit_ex, so its failure reaches both directions.
        ("EVP_EncryptInit_ex", 0, "encrypt"),
        ("EVP_EncryptInit_ex", 0, "decrypt"),
        ("EVP_DecryptInit_ex", 0, "decrypt"),
        # EVP_Cipher fails with 0 on OpenSSL 1.1.1 and with -1 on OpenSSL 3's provider path.
        *(("EVP_Cipher", code, direction) for code in (0, -1) for direction in ("encrypt", "decrypt")),
    ],
)
def test_failed_evp_call_raises_and_frees_the_context(name, code, direction, monkeypatch):
    real = getattr(block_cipher._LIBCRYPTO, name)
    failures = []

    def fail_twice(*args):
        if len(failures) < 2:
            failures.append(name)
            return code
        return real(*args)

    lib = _Lib(block_cipher._LIBCRYPTO, name, fail_twice)
    monkeypatch.setattr(block_cipher, "_LIBCRYPTO", lib)
    keys, blocks = random.Random(5).randbytes(48), random.Random(6).randbytes(48)
    batch, mode_call = _DIRECTIONS[direction]

    def run():
        with pytest.raises(RuntimeError, match=name):
            batch(keys, blocks)
        assert (lib.made, lib.freed) == (1, 1) and getattr(block_cipher._THREAD, "context", None) is None
        with pytest.raises(RuntimeError, match=name):
            mode_call()
        assert (lib.made, lib.freed) == (2, 2) and getattr(block_cipher._THREAD, "context", None) is None
        # The next batch on this thread gets a fresh context, and it stays open for the batch after.
        out = batch(keys, blocks)
        assert AES128.encrypt_blocks(keys, AES128.decrypt_blocks(keys, out)) == out
        assert (lib.made, lib.freed) == (3, 2) and block_cipher._THREAD.context.ptr
        return out

    out = _on_a_new_thread(run)
    single = {"encrypt": CRYPTOGRAPHY_AES128.encrypt_block, "decrypt": CRYPTOGRAPHY_AES128.decrypt_block}[direction]
    assert out == b"".join(single(k, b) for k, b in zip(_split(keys, 16), _split(blocks, 16)))
    assert lib.freed == 3  # with its thread


@pytest.mark.skipif(block_cipher._LIBCRYPTO is None, reason="no libcrypto behind hashlib")
def test_every_batch_ends_on_the_zero_key(monkeypatch):
    # Each lane re-keys with its direction's init, and the last re-key of every batch loads the zero key.
    keys_seen = []

    def spy(name):
        real = getattr(block_cipher._LIBCRYPTO, name)

        def init(ctx, cipher, engine, key, iv):
            keys_seen.append((name, key))
            return real(ctx, cipher, engine, key, iv)

        return init

    lib = _Lib(block_cipher._LIBCRYPTO, "EVP_EncryptInit_ex", spy("EVP_EncryptInit_ex"))
    lib.EVP_DecryptInit_ex = spy("EVP_DecryptInit_ex")
    monkeypatch.setattr(block_cipher, "_LIBCRYPTO", lib)

    def run():
        AES128.encrypt_blocks(b"", b"")  # sets the thread's context up
        for lanes in (0, 1, 3, 600):
            keys = random.Random(lanes).randbytes(16 * lanes)
            for direction, name in (("encrypt", "EVP_EncryptInit_ex"), ("decrypt", "EVP_DecryptInit_ex")):
                keys_seen.clear()
                _DIRECTIONS[direction][0](keys, bytes(16 * lanes))
                assert keys_seen == [(name, key) for key in [*_split(keys, 16), bytes(16)]]

    _on_a_new_thread(run)


@pytest.mark.skipif(block_cipher._LIBCRYPTO is None, reason="no libcrypto behind hashlib")
def test_threads_seal_and_open_the_same_bytes_as_one_thread():
    # Each thread must have its own context: a thread switch can fall between one lane's re-key and its update.
    rng = random.Random(4)
    jobs = [
        (mode, TweakableKey(rng.randbytes(16), AES128), rng.randbytes(nonce_length(mode)), rng.randbytes(13), pt)
        for mode in AeadMode
        for pt in (rng.randbytes(40), rng.randbytes(16 * 511 + 3), rng.randbytes(16 * 700))
    ]
    want = [SEAL[mode](key, nonce, ad, pt) for mode, key, nonce, ad, pt in jobs]

    def worker(offset):
        got = []
        for i in range(2 * len(jobs)):
            mode, key, nonce, ad, pt = jobs[(offset + i) % len(jobs)]
            sealed = SEAL[mode](key, nonce, ad, pt)
            got.append((sealed, OPEN[mode](key, nonce, ad, sealed.ciphertext, sealed.tag) == pt))
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [pool.submit(worker, offset) for offset in range(4)]
            outputs = [r.result(timeout=120) for r in results]
    finally:
        sys.setswitchinterval(interval)
    for offset, got in enumerate(outputs):
        assert got == [(want[(offset + i) % len(jobs)], True) for i in range(2 * len(jobs))]


@pytest.mark.skipif(block_cipher._LIBCRYPTO is None, reason="no libcrypto behind hashlib")
@pytest.mark.parametrize("direction", ["encrypt", "decrypt"])
def test_short_evp_output_raises(direction, monkeypatch):
    # On OpenSSL 3's provider path EVP_Cipher returns the bytes it wrote: a lane whose block was
    # written but that reports 0 bytes must not be returned.
    real = block_cipher._LIBCRYPTO.EVP_Cipher

    def short(ctx, out, inp, inl):
        assert real(ctx, out, inp, inl) == 16
        return 0

    lib = _Lib(block_cipher._LIBCRYPTO, "EVP_Cipher", short)
    monkeypatch.setattr(block_cipher, "_LIBCRYPTO", lib)

    def run():
        with pytest.raises(RuntimeError, match="EVP_Cipher"):
            _DIRECTIONS[direction][0](bytes(16), bytes(16))
        assert (lib.made, lib.freed) == (1, 1)

    _on_a_new_thread(run)


@pytest.mark.skipif(block_cipher._LIBCRYPTO is None, reason="no libcrypto behind hashlib")
@pytest.mark.parametrize("direction", ["encrypt", "decrypt"])
def test_arena_holds_only_zero_bytes_between_batches(direction, monkeypatch):
    # Each batch zeroes the span of the thread's arena it used; a failed one zeroes the arena and
    # drops it with the context.
    real = block_cipher._LIBCRYPTO.EVP_Cipher
    calls, seen = [], []

    def fail_on_the_third_lane_of_a_five_lane_batch(ctx, out, inp, inl):
        calls.append(ctx)
        if len(calls) == 3:
            seen.append(any(block_cipher._THREAD.context.arena))  # this batch's lanes are in the arena
            return 0
        return real(ctx, out, inp, inl)

    lib = _Lib(block_cipher._LIBCRYPTO, "EVP_Cipher", fail_on_the_third_lane_of_a_five_lane_batch)
    monkeypatch.setattr(block_cipher, "_LIBCRYPTO", lib)
    batch = _DIRECTIONS[direction][0]
    rng = random.Random(12)
    zeros = bytes(16 * MAX)

    def run():
        keys, blocks = rng.randbytes(80), rng.randbytes(80)
        AES128.encrypt_blocks(b"", b"")  # sets the thread's context up, with no EVP_Cipher call
        context = block_cipher._THREAD.context
        arena = context.arena
        assert len(arena) == 16 * block_cipher._LANES == len(zeros)
        with pytest.raises(RuntimeError, match="EVP_Cipher"):
            batch(keys, blocks)
        assert seen == [True] and arena == zeros
        assert block_cipher._THREAD.context is None and context.lane is None and (lib.made, lib.freed) == (1, 1)
        # The next context's arena is zeroed after each batch of each size, in both directions.
        for lanes in (1, 5, MAX, 2 * MAX + 1):
            keys, blocks = rng.randbytes(16 * lanes), rng.randbytes(16 * lanes)
            for each in (AES128.encrypt_blocks, AES128.decrypt_blocks):
                assert each(keys, blocks) != bytes(16 * lanes)
                assert block_cipher._THREAD.context.arena == zeros
        assert lib.made == 2

    _on_a_new_thread(run)


@pytest.mark.skipif(block_cipher._LIBCRYPTO is None, reason="no libcrypto behind hashlib")
def test_batches_after_a_threads_first_build_no_lane_pointers(monkeypatch):
    # A thread's first batch builds its context's view of the arena and one pointer per lane; no
    # later batch builds either, whatever its size or direction.
    made = []
    byref, from_buffer = ctypes.byref, ctypes.c_char.from_buffer
    monkeypatch.setattr(ctypes, "byref", lambda *args: made.append("byref") or byref(*args))
    monkeypatch.setattr(ctypes.c_char, "from_buffer", lambda *args: made.append("from_buffer") or from_buffer(*args))
    rng = random.Random(13)
    key = TweakableKey(rng.randbytes(16), AES128)

    def run():
        AES128.encrypt_blocks(bytes(16), bytes(16))
        assert sorted(set(made)) == ["byref", "from_buffer"] and len(made) == block_cipher._LANES + 1
        made.clear()
        for lanes in (0, 1, 5, MAX, 2 * MAX + 1):
            keys, blocks = rng.randbytes(16 * lanes), rng.randbytes(16 * lanes)
            AES128.decrypt_blocks(keys, AES128.encrypt_blocks(keys, blocks))
        for mode in AeadMode:
            nonce, pt = rng.randbytes(nonce_length(mode)), rng.randbytes(100)
            sealed = SEAL[mode](key, nonce, b"ad", pt)
            assert OPEN[mode](key, nonce, b"ad", sealed.ciphertext, sealed.tag) == pt
        assert made == []

    _on_a_new_thread(run)


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview], ids=lambda t: t.__name__)
def test_in_place_lanes_write_only_the_kernels_own_buffer(kind):
    # The kernel encrypts each lane in place in a copy of the batch: the caller's blocks stay as they were.
    rng = random.Random(11)
    key = TweakableKey(rng.randbytes(16), AES128)
    lanes = 5
    keys, blocks, tweaks = rng.randbytes(16 * lanes), rng.randbytes(16 * lanes), _split(rng.randbytes(16 * lanes), 16)
    calls = [
        (AES128.encrypt_blocks, keys),
        (AES128.decrypt_blocks, keys),
        (AES128.encrypt_kernel, _split(keys, 16)),
        (AES128.decrypt_kernel, _split(keys, 16)),
        (lambda t, b: tweak_encrypt_many(key, t, b), tweaks),
        (lambda t, b: tweak_decrypt_many(key, t, b), tweaks),
    ]
    for fn, first in calls:
        want = fn(first, blocks)
        held = bytearray(blocks)
        arg = held if kind is bytearray else kind(held)  # a bytes copy, or the buffer itself or a view of it
        got = fn(first, arg)
        assert got == want and type(got) is bytes
        assert bytes(arg) == blocks
    # Batches of different lengths, one after another on one thread, share no buffer: the first
    # result still holds every lane after the second batch ran.
    first = AES128.encrypt_blocks(keys, blocks)
    second = AES128.encrypt_blocks(keys[16:32], blocks[16:32])
    assert first == b"".join(map(CRYPTOGRAPHY_AES128.encrypt_block, _split(keys, 16), _split(blocks, 16)))
    assert second == first[16:32]


@pytest.mark.parametrize(
    "keys,blocks",
    [
        ([bytes(15)], bytes(16)),
        ([bytes(32), bytes(15), bytes(16)], bytes(48)),
        ([bytes(16)] * 2, bytes(48)),
        ([bytes(16)] * 4, bytes(48)),
        ([bytes(16)], b""),
        ([bytes(17)], bytes(17)),
    ],
    ids=["15-byte entry", "15-byte entry among longer", "one entry too few", "one entry too many",
         "entry without a block", "partial block"],
)
def test_evp_kernel_checks_shapes_before_any_foreign_call(keys, blocks, monkeypatch):
    # EVP reads 16 bytes of each entry, so a short entry must never reach it.
    class NoCalls:
        def __getattr__(self, name):
            raise AssertionError(f"{name} reached")

    monkeypatch.setattr(block_cipher, "_LIBCRYPTO", NoCalls())
    for enc in (1, 0):
        with pytest.raises(ValueError, match="16-byte key per 16-byte block"):
            block_cipher._aes128_evp(enc)(keys, blocks)


def test_evp_kernel_keys_each_lane_with_the_first_16_bytes_of_its_entry():
    # The tweakable core hands the kernel whole 32-byte squeeze outputs: subkey, then mask.
    rng = random.Random(32)
    entries, blocks = [rng.randbytes(32) for _ in range(5)], rng.randbytes(80)
    want = [CRYPTOGRAPHY_AES128.encrypt_block(e[:16], b) for e, b in zip(entries, _split(blocks, 16))]
    assert AES128.encrypt_kernel(entries, blocks) == b"".join(want)
    assert AES128.decrypt_kernel(entries, b"".join(want)) == blocks


@pytest.mark.parametrize("spec", [AES128, TOY], ids=lambda s: s.name)
@pytest.mark.parametrize("kind", [bytearray, memoryview], ids=lambda t: t.__name__)
def test_public_entries_take_bytes_like_input(spec, kind):
    # ctypes takes no bytearray or memoryview as a pointer: the public entries convert, the cores need not.
    AES128.encrypt_blocks(b"", b"")  # sets this thread's EVP context up
    context = block_cipher._THREAD.context
    rng = random.Random(7)
    k, n = spec.key_len, spec.block_len
    keys, blocks = rng.randbytes(3 * k), rng.randbytes(3 * n)
    key, tweaks = TweakableKey(keys[:k], spec), _split(rng.randbytes(3 * n), n)
    single = {AES128: (block_cipher.aes128_encrypt_block, block_cipher.aes128_decrypt_block),
              TOY: (block_cipher.toy_encrypt_block, block_cipher.toy_decrypt_block)}[spec]
    calls = [
        *((fn, keys[:k], blocks[:n]) for fn in single),
        (spec.encrypt_blocks, keys, blocks),
        (spec.decrypt_blocks, keys, blocks),
        (lambda t, b: tweak_encrypt_many(key, t, b), tweaks, blocks),
        (lambda t, b: tweak_decrypt_many(key, t, b), tweaks, blocks),
    ]
    for fn, a, b in calls:
        want = fn(a, b)
        assert fn(kind(a) if isinstance(a, bytes) else [kind(t) for t in a], kind(b)) == want
    assert block_cipher._THREAD.context is context and context.ptr
    with pytest.raises(TypeError):
        spec.encrypt_blocks(k, n)  # an int is refused, not read as a length of zero bytes


def test_aes128_batch_fips197_vector():
    # FIPS-197 Appendix C.1, so the batch path rests on AES-128 itself and not only on the per-block path.
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    ct = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    assert AES128.encrypt_blocks(key * 3, pt * 3) == ct * 3
    assert AES128.decrypt_blocks(key * 3, ct * 3) == pt * 3


@pytest.mark.parametrize(
    "spec,lanes",
    [(TOY, 0), (TOY, 1), (TOY, 5), (TOY, 300), (AES256, 1), (AES256, 511), (AES256, 512), (AES256, 513)],
    ids=lambda v: v.name if isinstance(v, CipherSpec) else str(v),
)
def test_batch_without_kernel_matches_single_block_calls(spec, lanes):
    rng = random.Random(lanes)
    k, n = spec.key_len, spec.block_len
    keys, blocks = rng.randbytes(k * lanes), rng.randbytes(n * lanes)
    pairs = list(zip(_split(keys, k), _split(blocks, n)))
    ct = spec.encrypt_blocks(keys, blocks)
    assert ct == b"".join(spec.encrypt_block(key, b) for key, b in pairs)
    assert spec.decrypt_blocks(keys, blocks) == b"".join(spec.decrypt_block(key, b) for key, b in pairs)
    assert spec.decrypt_blocks(keys, ct) == blocks


def test_aes256_plugin_fips197_vector():
    # FIPS-197 Appendix C.3, so the hand composition below rests on AES-256 itself.
    key = bytes(range(32))
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    ct = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
    assert AES256.encrypt_block(key, pt) == ct
    assert AES256.decrypt_block(key, ct) == pt


@pytest.mark.parametrize("spec", [*CIPHERS.values(), AES256], ids=lambda s: s.name)
def test_batch_shape_checked(spec):
    k, n = spec.key_len, spec.block_len
    bad = [(bytes(k), bytes(n + 1)), (bytes(k + 1), bytes(n)), (bytes(2 * k), bytes(n)), (bytes(k), bytes(2 * n))]
    for keys, blocks in bad:
        with pytest.raises(ValueError):
            spec.encrypt_blocks(keys, blocks)
        with pytest.raises(ValueError):
            spec.decrypt_blocks(keys, blocks)


@pytest.mark.parametrize(
    "spec,lanes",
    [(AES128, 3), (AES128, 519), (TOY, 3), (TOY, 40), (AES256, 3), (AES256, 519)],
    ids=lambda v: v.name if isinstance(v, CipherSpec) else str(v),
)
def test_tweak_many_matches_hand_composition(spec, lanes):
    rng = random.Random(lanes)
    key = TweakableKey(rng.randbytes(spec.key_len), spec)
    n = spec.block_len
    tweaks = [rng.randbytes(n) for _ in range(lanes)]
    blocks = rng.randbytes(n * lanes)
    ct = tweak_encrypt_many(key, tweaks, blocks)
    assert ct == b"".join(composed_tweakable.encrypt(key, t, b) for t, b in zip(tweaks, _split(blocks, n)))
    assert tweak_decrypt_many(key, tweaks, blocks) == b"".join(
        composed_tweakable.decrypt(key, t, b) for t, b in zip(tweaks, _split(blocks, n))
    )
    assert tweak_decrypt_many(key, tweaks, ct) == blocks


def test_tweak_many_checks_shapes():
    key = TweakableKey(bytes(16), AES128)
    with pytest.raises(ValueError, match="tweak must be 16 bytes"):
        tweak_encrypt_many(key, [bytes(16), bytes(15)], bytes(32))
    with pytest.raises(ValueError, match="tweak must be 16 bytes"):
        tweak_decrypt_many(key, [bytes(17)], bytes(16))
    with pytest.raises(ValueError):
        tweak_encrypt_many(key, [bytes(16)], bytes(32))
    with pytest.raises(ValueError):
        tweak_decrypt_many(key, [bytes(16)] * 2, bytes(16))
    assert tweak_encrypt_many(key, [], b"") == b""


@pytest.mark.parametrize("spec", [AES128, TOY, AES256], ids=lambda s: s.name)
def test_public_entries_refuse_malformed_batches_before_any_work(spec, monkeypatch):
    # aead calls the unchecked cores, so every other way in must check first: tweak_*_many before
    # the first SHAKE squeeze, encrypt_blocks/decrypt_blocks before the first block call or kernel lane.
    work = []
    real_shake = tweakable.shake128
    monkeypatch.setattr(tweakable, "shake128", lambda data, size: work.append("squeeze") or real_shake(data, size))

    def spy(name):
        fn = getattr(spec, name)
        return lambda keys, blocks: work.append(name) or fn(keys, blocks)

    names = [f for f in ("encrypt_block", "decrypt_block", "encrypt_kernel", "decrypt_kernel") if getattr(spec, f)]
    spied = dataclasses.replace(spec, **{name: spy(name) for name in names})
    key, k, n = TweakableKey(bytes(spec.key_len), spied), spec.key_len, spec.block_len
    # Tweaks too wide and too narrow, then one block too many and one too few.
    bad = [([bytes(n + 1)], bytes(n)), ([bytes(n), bytes(n - 1)], bytes(2 * n)), ([bytes(n)], bytes(2 * n))]
    for entry in (tweak_encrypt_many, tweak_decrypt_many):
        for tweaks, blocks in bad + [([bytes(n)] * 2, bytes(n))]:
            with pytest.raises(ValueError):
                entry(key, tweaks, blocks)
    for batch in (spied.encrypt_blocks, spied.decrypt_blocks):
        for keys, blocks in [(bytes(k - 1), bytes(n)), (bytes(k), bytes(2 * n)), (bytes(k), bytes(n + 1))]:
            with pytest.raises(ValueError):
                batch(keys, blocks)
    assert work == []
    # The spies do see a well-formed batch.
    tweak_decrypt_many(key, [bytes(n)], bytes(n))
    assert work[0] == "squeeze" and work[-1] in ("decrypt_block", "decrypt_kernel")


@pytest.mark.parametrize("block_len", [16, 2])
def test_nr_tweak_batch_matches_single(block_len):
    nonce = bytes(range(1, min(8, block_len - 1) + 1))
    counters = range(3, 15)
    assert _nr_msg_tweaks(nonce, counters, block_len) == [
        _nr_msg_tweaks(nonce, range(j, j + 1), block_len)[0] for j in counters
    ]
    assert _nr_msg_tweaks(nonce, range(0), block_len) == []


@pytest.mark.parametrize("block_len", [16, 2])
def test_nr_tag_tweak_is_the_prefix_one_counter_tweak(block_len):
    # The layout written out by hand: 0x10, nonce, 7-byte count at n=16; 0x10 | count, nonce at n=2.
    nonce = bytes(range(1, min(8, block_len - 1) + 1))
    for count in range(1, 16):
        want = bytes.fromhex(f"100102030405060708{count:014x}" if block_len == 16 else f"1{count:x}01")
        assert _nr_tag_tweak(nonce, count, block_len) == want
        # The message tweak of the same counter differs only in the prefix nibble.
        [msg] = _nr_msg_tweaks(nonce, range(count, count + 1), block_len)
        assert bytes([msg[0] ^ 0x10]) + msg[1:] == want


@pytest.mark.parametrize("block_len", [16, 2])
def test_ad_tweak_batch_matches_single(block_len):
    indices = range(250, 256)
    assert _ad_tweaks(indices, block_len) == [_ad_tweaks(range(i, i + 1), block_len)[0] for i in indices]
    assert _ad_tweaks(range(0), block_len) == []


def test_stream_tweak_batch_matches_single():
    tag = bytes(range(16))
    counters = range(300)
    assert _mr_stream_tweaks(tag, counters, 16) == [_mr_stream_tweaks(tag, range(j, j + 1), 16)[0] for j in counters]


@pytest.mark.parametrize("mode", list(AeadMode))
def test_aead_runs_give_the_same_bytes(mode, monkeypatch):
    # 40 message and 11 AD blocks cut into runs of at most 3 give the bytes of one run each.
    rng = random.Random(7)
    key = TweakableKey(rng.randbytes(16), AES128)
    nonce, ad, pt = rng.randbytes(nonce_length(mode)), rng.randbytes(170), rng.randbytes(16 * 40 - 5)
    whole = SEAL[mode](key, nonce, ad, pt)
    monkeypatch.setattr(aead, "_SEGMENT", 3)
    assert SEAL[mode](key, nonce, ad, pt) == whole
    assert OPEN[mode](key, nonce, ad, whole.ciphertext, whole.tag) == pt


def _seal_by_hand(mode, key, nonce, ad, pt):
    """The mode's equations block by block through ``composed_tweakable``, for 16-byte blocks."""
    def enc(tweak, block):
        return composed_tweakable.encrypt(key, tweak, block)

    xor = composed_tweakable.xor
    blocks = _split(composed_tweakable.pad(pt, 16), 16)
    m = len(blocks)
    auth = composed_tweakable.ad_sum(key, ad)
    if mode is AeadMode.NONCE_RESPECTING:
        ct = b"".join(map(enc, _nr_msg_tweaks(nonce, range(m), 16), blocks))
        return ct, xor(enc(_nr_tag_tweak(nonce, m, 16), reduce(xor, blocks)), auth)
    sums = list(map(enc, _nr_msg_tweaks(nonce[:8], range(m), 16), blocks))
    tag = enc(_mr_tag_tweak(nonce), reduce(xor, sums, auth))
    stream = [enc(t, b"\x00" + nonce) for t in _mr_stream_tweaks(tag, range(m), 16)]
    return b"".join(map(xor, blocks, stream)), tag


@pytest.mark.parametrize("segment", [1, 2, 3, 4, 5])
def test_runs_cut_across_message_tag_and_ad_give_the_same_bytes(segment, monkeypatch):
    # A pass lays the message, the nr tag block and the AD end to end and cuts them into runs.
    # Across these sizes each of its boundaries falls on a run edge, one block before one and one
    # block after one.
    rng = random.Random(segment)
    key = TweakableKey(rng.randbytes(16), AES128)
    cases = [(mode, m, a) for mode in AeadMode for m in range(1, 3 * segment + 3) for a in range(1, segment + 3)]
    inputs = {}
    for mode, m, a in cases:
        nonce, ad, pt = rng.randbytes(nonce_length(mode)), rng.randbytes(16 * a - 1), rng.randbytes(16 * m - 1)
        sealed = SEAL[mode](key, nonce, ad, pt)
        assert (sealed.ciphertext, sealed.tag) == _seal_by_hand(mode, key, nonce, ad, pt)
        inputs[mode, m, a] = nonce, ad, pt, sealed
    lanes = []
    real = aead._encrypt
    monkeypatch.setattr(aead, "_encrypt", lambda k, t, b: lanes.append(len(t)) or real(k, t, b))
    monkeypatch.setattr(aead, "_SEGMENT", segment)
    seen = set()
    for (mode, m, a), (nonce, ad, pt, sealed) in inputs.items():
        lanes.clear()
        assert SEAL[mode](key, nonce, ad, pt) == sealed
        # The first pass of a seal holds the message, the nr tag block and the AD.
        blocks = m + a + (mode is AeadMode.NONCE_RESPECTING)
        first = lanes[: list(accumulate(lanes)).index(blocks) + 1]
        assert max(first) <= segment
        edges = set(accumulate(first[:-1]))
        ends = [m, m + 1] if mode is AeadMode.NONCE_RESPECTING else [m]
        seen |= {(mode, i, end - edge) for i, end in enumerate(ends) for edge in edges if abs(end - edge) <= 1}
        assert OPEN[mode](key, nonce, ad, sealed.ciphertext, sealed.tag) == pt
    assert seen == {(mode, i, d) for mode in AeadMode for i in range(2 - (mode is AeadMode.MISUSE_RESISTANT))
                    for d in (-1, 0, 1)}


@pytest.mark.parametrize("mode", list(AeadMode))
@pytest.mark.parametrize("pt_len", [0, 17, 16 * 512 + 3])
def test_block_pair_only_spec_seals_and_opens(mode, pt_len):
    rng = random.Random(pt_len)
    key = TweakableKey(rng.randbytes(32), AES256)
    nonce, ad, pt = rng.randbytes(nonce_length(mode)), rng.randbytes(40), rng.randbytes(pt_len)
    sealed = SEAL[mode](key, nonce, ad, pt)
    assert len(sealed.ciphertext) == 16 * (pt_len // 16 + 1) and len(sealed.tag) == 16
    assert OPEN[mode](key, nonce, ad, sealed.ciphertext, sealed.tag) == pt


def test_aes256_seal_nr_matches_hand_composition():
    # The scheme's equations written out with hashlib and AES-256 alone.
    rng = random.Random(256)
    master, nonce, ad, pt = rng.randbytes(32), rng.randbytes(8), rng.randbytes(5), rng.randbytes(20)

    def xor(a, b):
        return bytes(x ^ y for x, y in zip(a, b))

    def tweak_encrypt_by_hand(tweak, block):
        out = hashlib.shake_128(master + tweak).digest(32 + 16)  # subkey, then mask
        return xor(Cipher(algorithms.AES(out[:32]), modes.ECB()).encryptor().update(block), out[32:])

    p0, p1 = pt[:16], pt[16:] + bytes([12]) * 12
    ct = tweak_encrypt_by_hand(b"\x00" + nonce + bytes(7), p0)
    ct += tweak_encrypt_by_hand(b"\x00" + nonce + (1).to_bytes(7, "big"), p1)
    auth = tweak_encrypt_by_hand(b"\x20" + bytes(15), ad + bytes([11]) * 11)
    tag = xor(tweak_encrypt_by_hand(b"\x10" + nonce + (2).to_bytes(7, "big"), xor(p0, p1)), auth)
    sealed = seal_nr(TweakableKey(master, AES256), nonce, ad, pt)
    assert (sealed.ciphertext, sealed.tag) == (ct, tag)
