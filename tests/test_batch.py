"""The batch block-cipher contract and the batch tweakable calls built on it."""

import ctypes
import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

import composed_tweakable
import reference_aes
from composed_tweakable import AD, MSG, TAG, aes_decrypt_block, aes_encrypt_block, pad, seal, stream_tweak, tweak
from tortoise import aead, block_cipher, tweakable
from tortoise.block_cipher import AES128, CIPHERS, TOY, CipherSpec, toy_decrypt_block, toy_encrypt_block
from tortoise.aead import (
    OPEN,
    SEAL,
    AeadMode,
    _AD,
    _MSG,
    _mr_stream_tweaks,
    _tag_tweak,
    _tweaks,
    nonce_length,
    open_nr,
    seal_nr,
)
from tortoise.tweakable import TweakableKey, tweak_decrypt_many, tweak_encrypt_many

ROOT = Path(__file__).resolve().parent.parent
MAX = block_cipher._LANES
# Empty and tiny batches, 511-513 lanes (where a table-based kernel once took over), around the
# largest batch aead makes, which fills the EVP kernel's arena, and one that goes through the arena
# in three runs.
AES_LANES = [0, 1, 2, 3, 511, 512, 513, MAX - 1, MAX, MAX + 1, 2 * MAX + 1]


def _split(data: bytes, n: int) -> list[bytes]:
    return [data[i : i + n] for i in range(0, len(data), n)]


# A plug-in built with from_blocks from its block pair, with a key twice the block length.
AES256 = composed_tweakable.aes_spec(32)
# The single-block pair of each spec here: TOY's reference, and the pair the AES-256 plug-in is built from.
BLOCK_PAIRS = {"toy": (toy_encrypt_block, toy_decrypt_block), "aes256": (aes_encrypt_block, aes_decrypt_block)}


@pytest.mark.parametrize("lanes", AES_LANES)
def test_aes128_batch_matches_single_block_calls(lanes):
    rng = random.Random(lanes)
    keys, blocks = _split(rng.randbytes(16 * lanes), 16), rng.randbytes(16 * lanes)
    ct = AES128.encrypt(keys, blocks)
    pairs = list(zip(keys, _split(blocks, 16), _split(ct, 16)))
    # Single blocks from cryptography: a one-lane AES128 batch runs the EVP kernel too.
    assert [aes_encrypt_block(k, p) for k, p, _ in pairs] == [c for _, _, c in pairs]
    assert AES128.decrypt(keys, blocks) == b"".join(aes_decrypt_block(k, p) for k, p, _ in pairs)
    assert AES128.decrypt(keys, ct) == blocks


@pytest.mark.parametrize("lanes", AES_LANES)
def test_aes128_batch_matches_independent_implementation(lanes):
    rng = random.Random(0xB0 + lanes)
    keys, blocks = _split(rng.randbytes(16 * lanes), 16), rng.randbytes(16 * lanes)
    # Every lane is checked at the small sizes; a spread sample at the large ones.
    picks = range(lanes) if lanes <= 513 else sorted(rng.sample(range(lanes), 40) + [0, lanes - 1])
    ct = _split(AES128.encrypt(keys, blocks), 16)
    pt = _split(AES128.decrypt(keys, blocks), 16)
    for i in picks:
        key, block = keys[i], blocks[16 * i : 16 * i + 16]
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
    (AES128.encrypt, ([bytes(16)], bytes(16))),
    (AES128.decrypt, ([bytes(16)], bytes(16))),
    (AES128.encrypt, ([bytes(16)] * 3, bytes(48))),
    (AES128.decrypt, ([], b"")),
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


@pytest.mark.skipif(sys.platform != "linux", reason="only Linux lists the libraries a process maps in /proc/self/maps")
def test_a_libcrypto_loaded_into_the_process_is_the_one_aes128_uses():
    # The EVP symbols are looked up through _hashlib's own file.  If that extension brought a libcrypto into
    # this process, the lookup had a libcrypto to find, so a None here is a lost lookup, not a missing library.
    pytest.importorskip("_hashlib")
    with open("/proc/self/maps") as maps:
        loaded = sorted({line.split()[-1] for line in maps if "libcrypto" in line})
    if not loaded:
        pytest.skip("no libcrypto is mapped into this process: _hashlib has OpenSSL linked in, or none")
    assert block_cipher._LIBCRYPTO is not None, f"{loaded} is loaded, but aes128 found no EVP symbols through it"


_WITHOUT_CRYPTOGRAPHY = """
import sys
sys.modules["cryptography"] = None  # importing it, or any module under it, raises ImportError
from pathlib import Path
from tortoise import AES128, TweakableKey, cli, open_mr, open_nr, seal_mr, seal_nr

kats, work = Path(sys.argv[1]), Path(sys.argv[2])
# FIPS-197 Appendix C.1, through a one-lane batch and a three-lane one.
key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
pt, ct = bytes.fromhex("00112233445566778899aabbccddeeff"), bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
assert AES128.encrypt([key], pt) == ct and AES128.decrypt([key], ct) == pt
assert AES128.encrypt([key] * 3, pt * 3) == ct * 3 and AES128.decrypt([key] * 3, ct * 3) == pt * 3
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
    "encrypt": (AES128.encrypt, lambda: seal_nr(_ZERO, bytes(8), b"", bytes(40))),
    "decrypt": (AES128.decrypt, lambda: open_nr(_ZERO, bytes(8), b"", bytes(48), bytes(16))),
}


@pytest.mark.skipif(block_cipher._LIBCRYPTO is None, reason="no libcrypto behind hashlib")
@pytest.mark.parametrize(
    "name,code,direction",
    [
        # The context is set up with EVP_EncryptInit, so its failure reaches both directions.
        ("EVP_EncryptInit", 0, "encrypt"),
        ("EVP_EncryptInit", 0, "decrypt"),
        ("EVP_DecryptInit", 0, "decrypt"),
        # EVP_Cipher fails with 0 on OpenSSL 1.1.1 and with -1 on OpenSSL 3's provider path.
        *(("EVP_Cipher", code, direction) for code in (0, -1) for direction in ("encrypt", "decrypt")),
    ],
)
def test_failed_evp_call_raises_and_frees_the_context(name, code, direction, monkeypatch):
    real = getattr(block_cipher._LIBCRYPTO, name)
    failures = []

    def fail_twice(*args):
        # A re-key takes the engine-free form's four arguments, (ctx, cipher, key, iv); EVP_Cipher takes four too.
        assert len(args) == 4, args
        if len(failures) < 2:
            failures.append(name)
            return code
        return real(*args)

    lib = _Lib(block_cipher._LIBCRYPTO, name, fail_twice)
    monkeypatch.setattr(block_cipher, "_LIBCRYPTO", lib)
    keys, blocks = _split(random.Random(5).randbytes(48), 16), random.Random(6).randbytes(48)
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
        assert AES128.encrypt(keys, AES128.decrypt(keys, out)) == out
        assert (lib.made, lib.freed) == (3, 2) and block_cipher._THREAD.context.ptr
        return out

    out = _on_a_new_thread(run)
    single = {"encrypt": aes_encrypt_block, "decrypt": aes_decrypt_block}[direction]
    assert out == b"".join(map(single, keys, _split(blocks, 16)))
    assert lib.freed == 3  # with its thread


@pytest.mark.skipif(block_cipher._LIBCRYPTO is None, reason="no libcrypto behind hashlib")
@pytest.mark.parametrize("direction", ["encrypt", "decrypt"])
def test_failed_zero_key_rekey_after_the_last_lane_raises_and_frees_the_context(direction, monkeypatch):
    # Every lane has run and the output is copied out, but the re-key to the zero key that ends the pass
    # fails: the pass raises, its span of the arena is already zero, and the context, which may still hold
    # the last lane's subkey, is dropped and freed.  The thread's next batch gets a fresh context.
    name = {"encrypt": "EVP_EncryptInit", "decrypt": "EVP_DecryptInit"}[direction]
    real, armed = getattr(block_cipher._LIBCRYPTO, name), []

    def fail_the_zero_key_when_armed(ctx, cipher, key, iv):
        if key is block_cipher._ZERO_KEY and armed:
            armed.pop()
            return 0
        return real(ctx, cipher, key, iv)

    lib = _Lib(block_cipher._LIBCRYPTO, name, fail_the_zero_key_when_armed)
    monkeypatch.setattr(block_cipher, "_LIBCRYPTO", lib)
    keys, blocks = _split(random.Random(21).randbytes(80), 16), random.Random(22).randbytes(80)
    batch = _DIRECTIONS[direction][0]

    def run():
        batch([], b"")  # sets the thread's context up
        context = block_cipher._THREAD.context
        armed.append(True)
        with pytest.raises(RuntimeError, match=name):
            batch(keys, blocks)
        assert armed == [] and context.arena == bytes(16 * MAX) and context.lane is None
        assert getattr(block_cipher._THREAD, "context", None) is None and (lib.made, lib.freed) == (1, 1)
        out = batch(keys, blocks)
        assert block_cipher._THREAD.context.ptr and (lib.made, lib.freed) == (2, 1)
        return out

    out = _on_a_new_thread(run)
    single = {"encrypt": aes_encrypt_block, "decrypt": aes_decrypt_block}[direction]
    assert out == b"".join(map(single, keys, _split(blocks, 16)))
    assert lib.freed == 2  # with its thread


@pytest.mark.skipif(block_cipher._LIBCRYPTO is None, reason="no libcrypto behind hashlib")
def test_a_null_context_raises_memory_error_and_frees_nothing(monkeypatch):
    # EVP_CIPHER_CTX_new returns NULL when OpenSSL cannot allocate: the batch raises MemoryError before
    # any EVP call on it, no context is kept or freed, and the thread's next batch tries again.
    nulls = [None, None]
    real_new = block_cipher._LIBCRYPTO.EVP_CIPHER_CTX_new
    lib = _Lib(block_cipher._LIBCRYPTO, "EVP_CIPHER_CTX_new", lambda: nulls.pop() if nulls else real_new())
    monkeypatch.setattr(block_cipher, "_LIBCRYPTO", lib)
    keys, blocks = _split(random.Random(23).randbytes(48), 16), random.Random(24).randbytes(48)

    def run():
        with pytest.raises(MemoryError, match="EVP_CIPHER_CTX_new"):
            AES128.encrypt(keys, blocks)
        with pytest.raises(MemoryError, match="EVP_CIPHER_CTX_new"):
            seal_nr(_ZERO, bytes(8), b"", bytes(40))
        assert getattr(block_cipher._THREAD, "context", None) is None and lib.freed == 0
        out = AES128.encrypt(keys, blocks)
        assert block_cipher._THREAD.context.ptr and lib.freed == 0
        return out

    assert _on_a_new_thread(run) == b"".join(map(aes_encrypt_block, keys, _split(blocks, 16)))
    assert lib.freed == 1  # the one real context, with its thread


@pytest.mark.skipif(block_cipher._LIBCRYPTO is None, reason="no libcrypto behind hashlib")
def test_every_batch_ends_on_the_zero_key(monkeypatch):
    # Each lane re-keys with its direction's init, and the last re-key of every batch loads the zero key.
    keys_seen = []

    def spy(name):
        real = getattr(block_cipher._LIBCRYPTO, name)

        def init(ctx, cipher, key, iv):
            keys_seen.append((name, key))
            return real(ctx, cipher, key, iv)

        return init

    lib = _Lib(block_cipher._LIBCRYPTO, "EVP_EncryptInit", spy("EVP_EncryptInit"))
    lib.EVP_DecryptInit = spy("EVP_DecryptInit")
    monkeypatch.setattr(block_cipher, "_LIBCRYPTO", lib)

    def run():
        AES128.encrypt([], b"")  # sets the thread's context up
        for lanes in (0, 1, 3, 600, MAX + 1):
            keys = _split(random.Random(lanes).randbytes(16 * lanes), 16)
            want = [*keys, bytes(16)]
            if lanes > MAX:  # two even passes through the arena, of 1,025 and 1,024 lanes, each ending on the zero key
                want.insert(MAX // 2 + 1, bytes(16))
            for direction, name in (("encrypt", "EVP_EncryptInit"), ("decrypt", "EVP_DecryptInit")):
                keys_seen.clear()
                _DIRECTIONS[direction][0](keys, bytes(16 * lanes))
                assert keys_seen == [(name, key) for key in want]

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
            _DIRECTIONS[direction][0]([bytes(16)], bytes(16))
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
        keys, blocks = _split(rng.randbytes(80), 16), rng.randbytes(80)
        AES128.encrypt([], b"")  # sets the thread's context up, with no EVP_Cipher call
        context = block_cipher._THREAD.context
        arena = context.arena
        assert len(arena) == 16 * block_cipher._LANES == len(zeros)
        with pytest.raises(RuntimeError, match="EVP_Cipher"):
            batch(keys, blocks)
        assert seen == [True] and arena == zeros
        assert block_cipher._THREAD.context is None and context.lane is None and (lib.made, lib.freed) == (1, 1)
        # The next context's arena is zeroed after each batch of each size, in both directions.
        for lanes in (1, 5, MAX, 2 * MAX + 1):
            keys, blocks = _split(rng.randbytes(16 * lanes), 16), rng.randbytes(16 * lanes)
            for each in (AES128.encrypt, AES128.decrypt):
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
        AES128.encrypt([bytes(16)], bytes(16))
        assert sorted(set(made)) == ["byref", "from_buffer"] and len(made) == block_cipher._LANES + 1
        made.clear()
        for lanes in (0, 1, 5, MAX, 2 * MAX + 1):
            keys, blocks = _split(rng.randbytes(16 * lanes), 16), rng.randbytes(16 * lanes)
            AES128.decrypt(keys, AES128.encrypt(keys, blocks))
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
    keys, blocks = _split(rng.randbytes(16 * lanes), 16), rng.randbytes(16 * lanes)
    tweaks = _split(rng.randbytes(16 * lanes), 16)
    calls = [
        (AES128.encrypt, keys),
        (AES128.decrypt, keys),
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
    first = AES128.encrypt(keys, blocks)
    second = AES128.encrypt(keys[1:2], blocks[16:32])
    assert first == b"".join(map(aes_encrypt_block, keys, _split(blocks, 16)))
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
    # EVP reads 16 bytes of each entry, so a short entry must never reach it.  A new thread has no
    # context yet, so any EVP call would go through the library replaced here.
    class NoCalls:
        def __getattr__(self, name):
            raise AssertionError(f"{name} reached")

    monkeypatch.setattr(block_cipher, "_LIBCRYPTO", NoCalls())

    def run():
        for batch in (AES128.encrypt, AES128.decrypt):
            with pytest.raises(ValueError, match="16-byte key per 16-byte block"):
                batch(keys, blocks)

    _on_a_new_thread(run)


@pytest.mark.skipif(block_cipher._LIBCRYPTO is None, reason="no libcrypto behind hashlib")
@pytest.mark.parametrize(
    "bad,error", [("a" * 16, TypeError), (bytes(15), ValueError)], ids=["str entry", "15-byte entry"]
)
def test_batch_longer_than_the_arena_is_checked_whole_before_its_first_pass(bad, error, monkeypatch):
    # A batch of more than one arena goes in runs: a bad entry in a later run must stop it before the
    # first run reaches EVP, and leave the thread's context open.
    calls = []

    def spy(name):
        real = getattr(block_cipher._LIBCRYPTO, name)
        # A re-key is (ctx, cipher, key, iv), and EVP_Cipher (ctx, out, in, inl): four arguments each.
        return lambda a, b, c, d: calls.append(name) or real(a, b, c, d)

    lib = _Lib(block_cipher._LIBCRYPTO, "EVP_Cipher", spy("EVP_Cipher"))
    lib.EVP_EncryptInit, lib.EVP_DecryptInit = spy("EVP_EncryptInit"), spy("EVP_DecryptInit")
    monkeypatch.setattr(block_cipher, "_LIBCRYPTO", lib)
    lanes = 2 * MAX + 1
    keys, blocks = _split(random.Random(14).randbytes(16 * lanes), 16), random.Random(15).randbytes(16 * lanes)

    def run():
        AES128.encrypt([], b"")  # sets the thread's context up
        context = block_cipher._THREAD.context
        calls.clear()
        # Lane 2,048 is the first lane past one arena; the last lane is in the last run.
        for at in (MAX, lanes - 1):
            for batch in (AES128.encrypt, AES128.decrypt):
                with pytest.raises(error):
                    batch([*keys[:at], bad, *keys[at + 1 :]], blocks)
                assert calls == [] and block_cipher._THREAD.context is context and context.lane
        assert AES128.encrypt(keys, blocks) == b"".join(map(aes_encrypt_block, keys, _split(blocks, 16)))
        # The spies are the ones the kernel calls: each lane and each pass's zero key, three even passes.
        assert calls.count("EVP_EncryptInit") == lanes + 3 and calls.count("EVP_Cipher") == lanes
        assert (lib.made, lib.freed) == (1, 0)

    _on_a_new_thread(run)


@pytest.mark.skipif(block_cipher._LIBCRYPTO is None, reason="no libcrypto behind hashlib")
@pytest.mark.parametrize(
    "bad,where",
    [("a" * 16, "entry"), (bytearray(16), "entry"), (memoryview(bytes(16)), "entry"),
     ("a" * 16, "blocks"), (list(bytes(16)), "blocks")],
    ids=["str entry", "bytearray entry", "memoryview entry", "str blocks", "list blocks"],
)
def test_aes128_refuses_inputs_that_are_not_bytes(bad, where):
    # ctypes would pass a str key as a wide-character buffer, and refuse the buffers in the middle of a batch;
    # a str or list of blocks passes the shape check by its length.  Each is refused before any EVP call.
    AES128.encrypt([], b"")  # sets this thread's EVP context up
    context = block_cipher._THREAD.context
    if where == "entry":
        cases = [([bad], bytes(16)), ([bytes(16), bad, bytes(32)], bytes(48))]
        match = f"must be bytes, got {type(bad).__name__}"
    else:
        cases, match = [([bytes(16)], bad)], "bytes-like"
    for batch in (AES128.encrypt, AES128.decrypt):
        for keys, blocks in cases:
            with pytest.raises(TypeError, match=match):
                batch(keys, blocks)
            assert block_cipher._THREAD.context is context and context.lane
    assert AES128.encrypt([bytes(16)], bytes(16)) == aes_encrypt_block(bytes(16), bytes(16))


def test_evp_kernel_keys_each_lane_with_the_first_16_bytes_of_its_entry():
    # The tweakable core hands the kernel whole 32-byte squeeze outputs: subkey, then mask.
    rng = random.Random(32)
    entries, blocks = [rng.randbytes(32) for _ in range(5)], rng.randbytes(80)
    want = [aes_encrypt_block(e[:16], b) for e, b in zip(entries, _split(blocks, 16))]
    assert AES128.encrypt(entries, blocks) == b"".join(want)
    assert AES128.decrypt(entries, b"".join(want)) == blocks


@pytest.mark.parametrize("spec", [AES128, TOY], ids=lambda s: s.name)
@pytest.mark.parametrize("kind", [bytearray, memoryview], ids=lambda t: t.__name__)
def test_public_entries_take_bytes_like_input(spec, kind):
    # Every batch and tweak_*_many take their blocks, and each tweak, through block_cipher._bytes: bytes as they
    # are, another buffer as a flat view, not a copy.  The AES-128 batch copies the view into its arena, which is
    # what ctypes points at, and the toy batch unpacks it.  Key entries stay bytes for both built-in batches;
    # the toy block pair, the single-block reference, takes any.
    AES128.encrypt([], b"")  # sets this thread's EVP context up
    context = block_cipher._THREAD.context
    rng = random.Random(7)
    k, n = spec.key_len, spec.block_len
    keys, blocks = _split(rng.randbytes(3 * k), k), rng.randbytes(3 * n)
    key, tweaks = TweakableKey(keys[0], spec), _split(rng.randbytes(3 * n), n)
    for fn in (spec.encrypt, spec.decrypt):
        assert fn(keys, kind(blocks)) == fn(keys, blocks)
    for fn in BLOCK_PAIRS.get(spec.name, ()):
        assert fn(kind(keys[0]), kind(blocks[:n])) == fn(keys[0], blocks[:n])
    for fn in (tweak_encrypt_many, tweak_decrypt_many):
        assert fn(key, [kind(t) for t in tweaks], kind(blocks)) == fn(key, tweaks, blocks)
    assert block_cipher._THREAD.context is context and context.ptr
    with pytest.raises(TypeError):
        spec.encrypt([bytes(k)], n)  # an int is refused, not read as a length of zero bytes


@pytest.mark.parametrize(
    "spec,lanes",
    [(TOY, 0), (TOY, 1), (TOY, 5), (TOY, 300), (AES256, 1), (AES256, 511), (AES256, 512), (AES256, 513)],
    ids=lambda v: v.name if isinstance(v, CipherSpec) else str(v),
)
def test_from_blocks_batch_matches_single_block_calls(spec, lanes):
    # Each lane gets a squeeze-sized entry, as from the tweakable core: the toy kernel reads the key from its
    # first 2 bytes, and from_blocks cuts it to the key.
    rng = random.Random(lanes)
    k, n = spec.key_len, spec.block_len
    entries, blocks = [rng.randbytes(k + n) for _ in range(lanes)], rng.randbytes(n * lanes)
    pairs = list(zip([e[:k] for e in entries], _split(blocks, n)))
    encrypt_block, decrypt_block = BLOCK_PAIRS[spec.name]
    ct = spec.encrypt(entries, blocks)
    assert ct == b"".join(encrypt_block(key, b) for key, b in pairs)
    assert spec.decrypt(entries, blocks) == b"".join(decrypt_block(key, b) for key, b in pairs)
    assert spec.decrypt(entries, ct) == blocks


def test_aes256_plugin_fips197_vector():
    # FIPS-197 Appendix C.3, so the hand composition below rests on AES-256 itself.
    key = bytes(range(32))
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    ct = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
    assert AES256.encrypt([key], pt) == ct
    assert AES256.decrypt([key], ct) == pt


@pytest.mark.parametrize("spec", [*CIPHERS.values(), AES256], ids=lambda s: s.name)
def test_batch_shape_checked(spec):
    # Every spec holds to one lane rule.  The from_blocks plug-in is rebuilt on recording block functions: a
    # mismatch is refused before any block call.  The built-in batches are checked as they are.
    k, n = spec.key_len, spec.block_len
    calls, plugin = [], spec is AES256
    if plugin:
        record = [lambda key, block, fn=fn: calls.append(key) or fn(key, block) for fn in BLOCK_PAIRS[spec.name]]
        spec = CipherSpec.from_blocks(spec.name, n, k, *record)
    bad = [([bytes(k)], bytes(n + 1)), ([bytes(k)] * 2, bytes(n)), ([bytes(k)], bytes(2 * n)), ([], bytes(n)),
           ([bytes(k)], b""),
           # Key entries too short: one byte short, alone or after a good one, and three quarters of the key,
           # 24 bytes for the 32-byte plug-in, which AES would run as AES-192, and an empty one.
           ([bytes(k - 1)], bytes(n)), ([bytes(k), bytes(k - 1)], bytes(2 * n)), ([bytes(3 * k // 4)], bytes(n)),
           ([b""], bytes(n))]
    for keys, blocks in bad:
        for batch in (spec.encrypt, spec.decrypt):
            with pytest.raises(ValueError, match=f"need one {k}-byte key per {n}-byte block"):
                batch(keys, blocks)
    # A str or a list of ints has the length of a well-formed batch, but is not bytes-like; a key entry must be
    # bytes, even one of the key's length.
    for keys, blocks in [([bytes(k)], "a" * n), ([bytes(k)], list(bytes(n))), (["a" * k], bytes(n)),
                         ([bytearray(k)], bytes(n)), ([bytes(k), memoryview(bytes(k))], bytes(2 * n))]:
        for batch in (spec.encrypt, spec.decrypt):
            with pytest.raises(TypeError):
                batch(keys, blocks)
    assert calls == []
    # A longer entry keys its lane with its first key_len bytes, which are all a plug-in's block function sees.
    spec.decrypt([bytes(k + 1)] * 2, spec.encrypt([bytes(k)] * 2, bytes(2 * n)))
    assert calls == ([bytes(k)] * 4 if plugin else [])


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
    # aead calls the unchecked cores, so tweak_*_many must check before the first SHAKE squeeze or
    # cipher batch; test_batch_shape_checked covers the batches' own checks.
    work = []
    real_shake = tweakable.shake128
    monkeypatch.setattr(tweakable, "shake128", lambda data, size: work.append("squeeze") or real_shake(data, size))

    def spy(name):
        fn = getattr(spec, name)
        return lambda keys, blocks: work.append(name) or fn(keys, blocks)

    spied = dataclasses.replace(spec, encrypt=spy("encrypt"), decrypt=spy("decrypt"))
    key, n = TweakableKey(bytes(spec.key_len), spied), spec.block_len
    # Tweaks too wide and too narrow, then one block too many and one too few.
    bad = [([bytes(n + 1)], bytes(n)), ([bytes(n), bytes(n - 1)], bytes(2 * n)), ([bytes(n)], bytes(2 * n))]
    for entry in (tweak_encrypt_many, tweak_decrypt_many):
        for tweaks, blocks in bad + [([bytes(n)] * 2, bytes(n))]:
            with pytest.raises(ValueError):
                entry(key, tweaks, blocks)
    assert work == []
    # The spies do see a well-formed batch.
    tweak_decrypt_many(key, [bytes(n)], bytes(n))
    assert work == ["squeeze", "decrypt"]


@pytest.mark.parametrize("block_len", [16, 2])
def test_nr_tweak_batch_matches_single(block_len):
    nonce = bytes(range(1, nonce_length(AeadMode.NONCE_RESPECTING, block_len) + 1))
    counters = range(1, 16)
    assert _tweaks(_MSG, nonce, counters, block_len) == [tweak(MSG, nonce, j, block_len) for j in counters]
    assert _tweaks(_MSG, nonce, range(0), block_len) == []


@pytest.mark.parametrize("block_len", [16, 2])
def test_nr_tag_tweak_is_the_prefix_one_counter_tweak(block_len):
    # The layout written out by hand: 0x10, nonce, 7-byte count at n=16; 0x10 | count, nonce at n=2.
    nonce = bytes(range(1, nonce_length(AeadMode.NONCE_RESPECTING, block_len) + 1))
    for count in range(1, 16):
        want = bytes.fromhex(f"100102030405060708{count:014x}" if block_len == 16 else f"1{count:x}01")
        assert _tag_tweak(nonce, count, block_len) == tweak(TAG, nonce, count, block_len) == want
        # The message tweak of the same counter differs only in the prefix nibble.
        msg = tweak(MSG, nonce, count, block_len)
        assert bytes([msg[0] ^ 0x10]) + msg[1:] == want


@pytest.mark.parametrize("block_len", [16, 2])
def test_ad_tweak_batch_matches_single(block_len):
    indices = range(250, 256)
    assert _tweaks(_AD, b"", indices, block_len) == [tweak(AD, b"", i, block_len) for i in indices]
    assert _tweaks(_AD, b"", range(0), block_len) == []


def test_stream_tweak_batch_matches_single():
    tag = bytes(range(16))
    counters = range(300)
    assert _mr_stream_tweaks(tag, counters, 16) == [stream_tweak(tag, j) for j in counters]


@pytest.mark.parametrize("mode", list(AeadMode))
def test_aead_runs_give_the_same_bytes(mode, monkeypatch):
    # 40 message and 11 AD blocks cut into runs of at most 3 give the bytes of one run each.
    rng = random.Random(7)
    key = TweakableKey(rng.randbytes(16), AES128)
    nonce, ad, pt = rng.randbytes(nonce_length(mode)), rng.randbytes(170), rng.randbytes(16 * 40 - 5)
    whole = SEAL[mode](key, nonce, ad, pt)
    monkeypatch.setattr(block_cipher, "_LANES", 3)
    assert SEAL[mode](key, nonce, ad, pt) == whole
    assert OPEN[mode](key, nonce, ad, whole.ciphertext, whole.tag) == pt


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
        assert (sealed.ciphertext, sealed.tag) == seal(mode, key, nonce, ad, pad(pt, 16))
        inputs[mode, m, a] = nonce, ad, pt, sealed
    lanes = []
    real = aead._encrypt
    monkeypatch.setattr(aead, "_encrypt", lambda k, t, b: lanes.append(len(t)) or real(k, t, b))
    monkeypatch.setattr(block_cipher, "_LANES", segment)
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
