"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Every tolerance is bit-exact; time limits are asserted.
"""

import random
import time
from pathlib import Path

import composed_tweakable
from composed_tweakable import MSG, tweak

from tortoise.aead import (
    OPEN,
    SEAL,
    AeadMode,
    AuthenticationError,
    nonce_length,
    open_mr,
    open_nr,
    seal_mr,
    seal_nr,
)
from tortoise.block_cipher import AES128, TOY
from tortoise.cli import main
from tortoise.kat import differential_check, generate_kats, parse_kat_text, serialize_records, verify_kats
from tortoise.tweakable import TweakableKey, shake128

KATS_DIR = Path(__file__).resolve().parent.parent / "kats"


def _report(number: int, description: str, ok: bool, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {number} {status} {description} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def _bit_flips(data: bytes):
    for i in range(len(data) * 8):
        yield bytes(
            b ^ (0x80 >> (i % 8)) if byte == i // 8 else b
            for byte, b in enumerate(data)
        )


def test_criterion_1_aes128_kat():
    t0 = time.perf_counter()
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    ct = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    zero_ct = bytes.fromhex("66e94bd4ef8a2c3b884cfa59ca342b2e")
    ok = True
    for lanes in (1, 3):  # a single block is a one-lane batch
        ok = ok and AES128.encrypt([key] * lanes, pt * lanes) == ct * lanes
        ok = ok and AES128.decrypt([key] * lanes, ct * lanes) == pt * lanes
        ok = ok and AES128.encrypt([bytes(16)] * lanes, bytes(16 * lanes)) == zero_ct * lanes
        ok = ok and AES128.decrypt([bytes(16)] * lanes, zero_ct * lanes) == bytes(16 * lanes)
    _report(1, "AES-128 standard and all-zero vectors, both directions, one lane and three", ok, t0, 1.0)


def test_criterion_2_shake128_kat_and_prefix_property():
    t0 = time.perf_counter()
    ok = shake128(b"", 16) == bytes.fromhex("7f9c2ba4e88f827d616045507605853e")
    rng = random.Random(202)
    for _ in range(1000):
        data = rng.randbytes(rng.randrange(0, 100))
        m = rng.randrange(1, 64)
        m2 = m + rng.randrange(1, 64)
        ok = ok and shake128(data, m) == shake128(data, m2)[:m]
    _report(2, "SHAKE128 empty-input vector and 1000 prefix-property samples", ok, t0, 5.0)


def test_criterion_3_round_trip_suite():
    t0 = time.perf_counter()
    rng = random.Random(303)
    ok = True
    for mode in AeadMode:
        nlen = nonce_length(mode, 16)
        for case in range(10_000):
            key = TweakableKey(rng.randbytes(16), AES128)
            nonce = rng.randbytes(nlen)
            # sweep the boundary lengths exhaustively, then randomize
            pt_len = case % 54 if case < 2 * 54 else rng.randrange(54)
            ad_len = rng.randrange(36)
            pt, ad = rng.randbytes(pt_len), rng.randbytes(ad_len)
            sealed = SEAL[mode](key, nonce, ad, pt)
            if OPEN[mode](key, nonce, ad, sealed.ciphertext, sealed.tag) != pt:
                ok = False
                break
    _report(3, "20000 randomized seal/open round trips (pt 0..53, ad 0..35)", ok, t0, 60.0)


# Frozen vectors for forgery rejection, computed from an independent
# composition of the SHAKE and AES primitives before the library existed.
_F_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
_F_AD = bytes.fromhex("a0a1a2a3a4a5a6a7")
_F_PT = bytes.fromhex("546865206669766520626f78696e672077697a21")
_F_NR_NONCE = bytes.fromhex("1011121314151617")
_F_NR_CT = bytes.fromhex("6e00e8839c5b6b01c3dbabb4fb4c780a874035f90a7964e94cea218e1bb7c7aa")
_F_NR_TAG = bytes.fromhex("7d9db5fe8fc6779c7722b46f473da713")
_F_MR_NONCE = bytes.fromhex("101112131415161718191a1b1c1d1e")
_F_MR_CT = bytes.fromhex("e284c1e29ee6a3189b06a53e630f4ba0440f5d130182df755e9494905731ab5f")
_F_MR_TAG = bytes.fromhex("b046c19195f41161199fadbb571f229c")


def _count_accepted_forgeries(open_fn, key, nonce, ad, ct, tag) -> tuple[int, int]:
    accepted = total = 0
    variants = (
        [(nonce, ad, c, tag) for c in _bit_flips(ct)]
        + [(nonce, ad, ct, t) for t in _bit_flips(tag)]
        + [(nonce, a, ct, tag) for a in _bit_flips(ad)]
        + [(n, ad, ct, tag) for n in _bit_flips(nonce)]
    )
    for n, a, c, t in variants:
        total += 1
        try:
            open_fn(key, n, a, c, t)
            accepted += 1
        except AuthenticationError:
            pass
    return accepted, total


def test_criterion_4_forgery_rejection_exhaustive():
    t0 = time.perf_counter()
    key = TweakableKey(_F_KEY, AES128)
    assert seal_nr(key, _F_NR_NONCE, _F_AD, _F_PT).ciphertext == _F_NR_CT
    assert seal_mr(key, _F_MR_NONCE, _F_AD, _F_PT).tag == _F_MR_TAG
    acc_nr, tot_nr = _count_accepted_forgeries(open_nr, key, _F_NR_NONCE, _F_AD, _F_NR_CT, _F_NR_TAG)
    acc_mr, tot_mr = _count_accepted_forgeries(open_mr, key, _F_MR_NONCE, _F_AD, _F_MR_CT, _F_MR_TAG)
    ok = acc_nr == 0 and acc_mr == 0 and tot_nr == 512 and tot_mr == 568
    _report(4, f"all {tot_nr}+{tot_mr} single-bit forgeries rejected", ok, t0, 30.0)


def test_criterion_5_mrae_determinism():
    t0 = time.perf_counter()
    key = TweakableKey(_F_KEY, AES128)
    outputs = {
        (s.ciphertext, s.tag)
        for s in (seal_mr(key, _F_MR_NONCE, _F_AD, _F_PT) for _ in range(100))
    }
    _report(5, "100 repeated misuse-resistant seals are bit-identical", len(outputs) == 1, t0, 30.0)


def test_criterion_6_nr_tag_structure():
    t0 = time.perf_counter()
    rng = random.Random(606)
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    ok = True
    for _ in range(100):
        key = TweakableKey(rng.randbytes(16), AES128)
        nonce = rng.randbytes(8)
        blocks = [rng.randbytes(16) for _ in range(3)]
        base = seal_nr(key, nonce, b"", b"".join(blocks))
        for perm in perms:
            sealed = seal_nr(key, nonce, b"", b"".join(blocks[p] for p in perm))
            if sealed.tag != base.tag:
                ok = False
            # ciphertext corresponds position-wise to the permuted blocks:
            # position j carries the relocated block under tweak j, and the
            # padding block (position 3) is identical.
            for j, p in enumerate(perm):
                if sealed.ciphertext[16 * j : 16 * (j + 1)] != composed_tweakable.encrypt(
                    key, tweak(MSG, nonce, j, 16), blocks[p]
                ):
                    ok = False
            if sealed.ciphertext[48:] != base.ciphertext[48:]:
                ok = False
    _report(6, "tag invariant under plaintext block permutation (100 messages x 6 perms)", ok, t0, 30.0)


# Toy-cipher forgery vectors, frozen after checking every single-bit
# mutation is rejected (with 2-byte tags that is not automatic).
_TF_KEY = b"\x42\x24"
_TF_AD = b"\x01\x02"
_TF_PT = b"toy msg"
_TF_NR_NONCE = b"\x5a"
_TF_NR_CT = bytes.fromhex("f9d1def95d15da1c")
_TF_NR_TAG = bytes.fromhex("7110")
_TF_MR_NONCE = b"\xa5"
_TF_MR_CT = bytes.fromhex("b82c9cb4a524d76e")
_TF_MR_TAG = bytes.fromhex("febd")


def test_criterion_7_genericity_with_toy_cipher():
    t0 = time.perf_counter()
    rng = random.Random(707)
    ok = True
    # round trips across all short lengths
    for mode in AeadMode:
        nlen = nonce_length(mode, 2)
        for pt_len in range(12):
            for ad_len in range(8):
                key = TweakableKey(rng.randbytes(2), TOY)
                nonce = rng.randbytes(nlen)
                pt, ad = rng.randbytes(pt_len), rng.randbytes(ad_len)
                sealed = SEAL[mode](key, nonce, ad, pt)
                if OPEN[mode](key, nonce, ad, sealed.ciphertext, sealed.tag) != pt:
                    ok = False
    # exhaustive forgery on the frozen toy vectors
    key = TweakableKey(_TF_KEY, TOY)
    assert seal_nr(key, _TF_NR_NONCE, _TF_AD, _TF_PT).ciphertext == _TF_NR_CT
    assert seal_mr(key, _TF_MR_NONCE, _TF_AD, _TF_PT).tag == _TF_MR_TAG
    acc_nr, _ = _count_accepted_forgeries(open_nr, key, _TF_NR_NONCE, _TF_AD, _TF_NR_CT, _TF_NR_TAG)
    acc_mr, _ = _count_accepted_forgeries(open_mr, key, _TF_MR_NONCE, _TF_AD, _TF_MR_CT, _TF_MR_TAG)
    ok = ok and acc_nr == 0 and acc_mr == 0
    # independent brute-force composition oracle
    report = differential_check(1000)
    ok = ok and report.ok
    _report(7, "toy-cipher round trips, forgeries, and 1000-trial differential check", ok, t0, 60.0)


def test_criterion_8_kat_corpus_stability():
    t0 = time.perf_counter()
    ok = True
    for name, (cipher, seed, count) in {
        "aes128.kat": ("aes128", 7, 10),
        "toy.kat": ("toy", 11, 10),
    }.items():
        text = (KATS_DIR / name).read_text()
        records, errors = parse_kat_text(text)
        ok = ok and not errors and verify_kats(records).ok
        # regeneration from the recorded seed is byte-for-byte identical;
        # the format itself is endianness-free (explicit big-endian fields,
        # hex text), so a second word order cannot change it
        ok = ok and serialize_records(generate_kats(seed, count, cipher)) == text
    _report(8, "committed corpora verify and regenerate byte-for-byte", ok, t0, 30.0)


def test_criterion_9_cli_end_to_end(tmp_path):
    t0 = time.perf_counter()
    rng = random.Random(909)
    payload = rng.randbytes(1 << 20)
    src = tmp_path / "plain.bin"
    src.write_bytes(payload)
    key_hex = "9f" * 16
    ok = True
    for mode, nonce_hex in (("nr", "00" * 8), ("mr", "00" * 15)):
        env = tmp_path / f"{mode}.tort"
        back = tmp_path / f"{mode}.out"
        ok = ok and main(["encrypt", "--key-hex", key_hex, "--mode", mode,
                          "--nonce-hex", nonce_hex, "--in", str(src), "--out", str(env)]) == 0
        ok = ok and main(["decrypt", "--key-hex", key_hex, "--in", str(env), "--out", str(back)]) == 0
        ok = ok and back.read_bytes() == payload
    # flip one ciphertext bit: exit 2 and no output file
    env = tmp_path / "nr.tort"
    blob = bytearray(env.read_bytes())
    blob[60] ^= 0x01
    tampered = tmp_path / "tampered.tort"
    tampered.write_bytes(bytes(blob))
    refused = tmp_path / "refused.out"
    ok = ok and main(["decrypt", "--key-hex", key_hex, "--in", str(tampered), "--out", str(refused)]) == 2
    ok = ok and not refused.exists()
    _report(9, "1 MiB file round trip in both modes; tampered envelope refused", ok, t0, 30.0)
