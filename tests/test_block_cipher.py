import random
import struct
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

import composed_tweakable
import reference_aes
from tortoise import block_cipher
from tortoise.block_cipher import AES128, CIPHERS, TOY, CipherSpec, get_cipher, toy_decrypt_block, toy_encrypt_block

# FIPS-197 Appendix C.1
C1_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
C1_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
C1_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

# all-zero vector, frozen after cross-checking two independent implementations
ZERO_CT = bytes.fromhex("66e94bd4ef8a2c3b884cfa59ca342b2e")


def _aes128(key, block):
    return AES128.encrypt([key], block)


def _aes128_inverse(key, block):
    return AES128.decrypt([key], block)


# A single block is a one-lane batch; the same vector in every lane of a batch must come out in every lane.
@pytest.mark.parametrize("lanes", [1, 3])
def test_aes128_fips197_vector(lanes):
    assert AES128.encrypt([C1_KEY] * lanes, C1_PT * lanes) == C1_CT * lanes
    assert AES128.decrypt([C1_KEY] * lanes, C1_CT * lanes) == C1_PT * lanes


@pytest.mark.parametrize("lanes", [1, 3])
def test_aes128_all_zero_kat(lanes):
    assert AES128.encrypt([bytes(16)] * lanes, bytes(16 * lanes)) == ZERO_CT * lanes
    assert AES128.decrypt([bytes(16)] * lanes, ZERO_CT * lanes) == bytes(16 * lanes)


def test_aes128_round_trip_random():
    rng = random.Random(0xAE5)
    for _ in range(1000):
        key, pt = rng.randbytes(16), rng.randbytes(16)
        assert _aes128_inverse(key, _aes128(key, pt)) == pt


def test_aes128_matches_independent_implementation():
    rng = random.Random(0x07AC1E)
    for _ in range(200):
        key, pt = rng.randbytes(16), rng.randbytes(16)
        assert _aes128(key, pt) == reference_aes.encrypt_block(key, pt)
        ct = rng.randbytes(16)
        assert _aes128_inverse(key, ct) == reference_aes.decrypt_block(key, ct)


@pytest.mark.parametrize("short_key", [b"", bytes(15)])
def test_aes128_short_key_entry_refused(short_key):
    with pytest.raises(ValueError):
        _aes128(short_key, bytes(16))
    with pytest.raises(ValueError):
        _aes128_inverse(short_key, bytes(16))


def test_aes128_block_length_checked():
    with pytest.raises(ValueError):
        _aes128(bytes(16), bytes(15))
    with pytest.raises(ValueError):
        _aes128_inverse(bytes(16), bytes(17))


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


# Every 2-byte block, in order, end to end.
TOY_DOMAIN = struct.pack(">65536H", *range(1 << 16))


def _toy_reference(block_fn, key):
    return b"".join([block_fn(key, x.to_bytes(2, "big")) for x in range(1 << 16)])


@pytest.mark.parametrize("seed", range(8))
def test_toy_batch_matches_the_reference_on_every_block(seed):
    # Key entries as long as a squeeze (4 bytes) or longer: the batch reads the key from the first 2.
    rng = random.Random(0x70B + seed)
    entry = rng.randbytes(2 + 2 * (seed % 3))
    for batch, block_fn in ((TOY.encrypt, toy_encrypt_block), (TOY.decrypt, toy_decrypt_block)):
        want = _toy_reference(block_fn, entry[:2])
        for lanes in (1, 4, 1 << 16):
            size = 2 * lanes
            got = b"".join([batch([entry] * lanes, TOY_DOMAIN[i : i + size]) for i in range(0, 1 << 17, size)])
            assert got == want, f"lanes={lanes}"


def test_toy_batch_refuses_bad_input_before_any_lane():
    # A kernel built on a recording key schedule shows whether any lane ran.
    lanes = []

    def schedule(key):
        lanes.append(key)
        return block_cipher._toy_round_keys(key)

    spied = block_cipher._toy_batch(block_cipher._FWD_HI, block_cipher._FWD_LO, schedule)
    good = bytes(2)
    refused = [
        (ValueError, [good, b"\x01"], bytes(4)),  # a short key entry, after a good lane
        (TypeError, [good, bytearray(2)], bytes(4)),  # key entries must be bytes, as for AES-128
        (TypeError, [good, memoryview(bytes(4))], bytes(4)),
        (TypeError, [good, "ab"], bytes(4)),
        (ValueError, [good], bytes(3)),  # misaligned blocks
        (ValueError, [good, good], bytes(2)),
        (ValueError, [good], bytes(4)),
        (TypeError, [good], "ab"),  # not bytes-like
        (TypeError, [good], [0, 1]),
    ]
    for error, keys, blocks in refused:
        for batch in (spied, TOY.encrypt, TOY.decrypt):
            with pytest.raises(error):
                batch(keys, blocks)
    assert lanes == []
    assert spied([], b"") == TOY.encrypt([], b"") == TOY.decrypt([], bytearray()) == b""
    assert spied([good], memoryview(bytes(2))) == TOY.encrypt([good], bytes(2)) and lanes == [0]


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
        assert spec.decrypt([key], spec.encrypt([key], block)) == block


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

    for build in (CipherSpec, CipherSpec.from_blocks):
        with pytest.raises(ValueError, match=r"block_len must be in \[1, 255\]"):
            build("wide", block_len, 16, block, block)
    assert calls == []


@pytest.mark.parametrize("block_len", [1, 255])
def test_block_length_range_is_inclusive(block_len):
    # A spec built with from_blocks round-trips a batch at both ends of the range.
    spec = composed_tweakable.xor_spec(block_len)
    rng = random.Random(block_len)
    keys, blocks = [rng.randbytes(1) for _ in range(3)], rng.randbytes(3 * block_len)
    ct = spec.encrypt(keys, blocks)
    assert spec.block_len == block_len and len(ct) == len(blocks)
    assert spec.decrypt(keys, ct) == blocks
