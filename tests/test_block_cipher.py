import random
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_aes
from tortoise.block_cipher import (
    AES128,
    CIPHERS,
    TOY,
    CipherSpec,
    aes128_decrypt_block,
    aes128_encrypt_block,
    get_cipher,
    toy_decrypt_block,
    toy_encrypt_block,
)

# FIPS-197 Appendix C.1
C1_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
C1_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
C1_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

# all-zero vector, frozen after cross-checking two independent implementations
ZERO_CT = bytes.fromhex("66e94bd4ef8a2c3b884cfa59ca342b2e")


def test_aes128_fips197_vector():
    assert aes128_encrypt_block(C1_KEY, C1_PT) == C1_CT
    assert aes128_decrypt_block(C1_KEY, C1_CT) == C1_PT


def test_aes128_all_zero_kat():
    assert aes128_encrypt_block(bytes(16), bytes(16)) == ZERO_CT
    assert aes128_decrypt_block(bytes(16), ZERO_CT) == bytes(16)


def test_aes128_round_trip_random():
    rng = random.Random(0xAE5)
    for _ in range(1000):
        key, pt = rng.randbytes(16), rng.randbytes(16)
        assert aes128_decrypt_block(key, aes128_encrypt_block(key, pt)) == pt


def test_aes128_matches_independent_implementation():
    rng = random.Random(0x07AC1E)
    for _ in range(200):
        key, pt = rng.randbytes(16), rng.randbytes(16)
        assert aes128_encrypt_block(key, pt) == reference_aes.encrypt_block(key, pt)
        ct = rng.randbytes(16)
        assert aes128_decrypt_block(key, ct) == reference_aes.decrypt_block(key, ct)


@pytest.mark.parametrize("bad_key", [b"", bytes(15), bytes(17), bytes(32)])
def test_aes128_key_length_checked(bad_key):
    with pytest.raises(ValueError):
        aes128_encrypt_block(bad_key, bytes(16))
    with pytest.raises(ValueError):
        aes128_decrypt_block(bad_key, bytes(16))


def test_aes128_block_length_checked():
    with pytest.raises(ValueError):
        aes128_encrypt_block(bytes(16), bytes(15))
    with pytest.raises(ValueError):
        aes128_decrypt_block(bytes(16), bytes(17))


def test_toy_exhaustive_bijectivity_sampled_keys():
    rng = random.Random(0x70F)
    keys = [rng.randbytes(2) for _ in range(16)]
    domain = [x.to_bytes(2, "big") for x in range(1 << 16)]
    for key in keys:
        image = {toy_encrypt_block(key, b) for b in domain}
        assert len(image) == 1 << 16


def test_toy_exhaustive_inverse_one_key():
    key = b"\x13\x37"
    for x in range(1 << 16):
        b = x.to_bytes(2, "big")
        assert toy_decrypt_block(key, toy_encrypt_block(key, b)) == b


def test_toy_distinct_keys_differ_somewhere():
    k1, k2 = b"\x00\x00", b"\x00\x01"
    assert any(
        toy_encrypt_block(k1, x.to_bytes(2, "big")) != toy_encrypt_block(k2, x.to_bytes(2, "big"))
        for x in range(1 << 16)
    )


def test_toy_length_checked():
    with pytest.raises(ValueError):
        toy_encrypt_block(b"\x00", bytes(2))
    with pytest.raises(ValueError):
        toy_decrypt_block(bytes(2), b"\x00\x00\x00")


@given(st.binary(min_size=2, max_size=2), st.binary(min_size=2, max_size=2))
def test_toy_round_trip(key, block):
    assert toy_decrypt_block(key, toy_encrypt_block(key, block)) == block


@pytest.mark.parametrize("spec", CIPHERS.values(), ids=lambda s: s.name)
def test_registered_specs_round_trip(spec):
    # A stable function of the name, unlike hash(), which is salted per process: a failure replays.
    rng = random.Random(zlib.crc32(spec.name.encode()))
    for _ in range(10_000):
        key = rng.randbytes(spec.key_len)
        block = rng.randbytes(spec.block_len)
        assert spec.decrypt_block(key, spec.encrypt_block(key, block)) == block


def test_registry_lookup():
    assert get_cipher("aes128") is AES128
    assert get_cipher("toy") is TOY
    with pytest.raises(ValueError):
        get_cipher("des")


@pytest.mark.parametrize("block_len", [0, 256])
def test_block_length_outside_what_pkcs7_pads_is_refused_at_construction(block_len):
    calls = []

    def block(key, data):
        calls.append(1)
        return data

    with pytest.raises(ValueError, match=r"block_len must be in \[1, 255\]"):
        CipherSpec("wide", block_len, 16, block, block)
    assert calls == []


@pytest.mark.parametrize("block_len", [1, 255])
def test_block_length_range_is_inclusive(block_len):
    assert CipherSpec("edge", block_len, 16, toy_encrypt_block, toy_decrypt_block).block_len == block_len
