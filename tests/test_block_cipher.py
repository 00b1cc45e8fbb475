import random
import struct
import zlib

import pytest

import composed_tweakable
from tortoise import block_cipher
from tortoise.block_cipher import AES128, CIPHERS, TOY, CipherSpec, get_cipher, toy_decrypt_block, toy_encrypt_block

# FIPS-197 Appendix C.1
C1_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
C1_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
C1_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

# all-zero vector, frozen after cross-checking two independent implementations
ZERO_CT = bytes.fromhex("66e94bd4ef8a2c3b884cfa59ca342b2e")


# A single block is a one-lane batch; the same vector in every lane of a batch must come out in every lane.
@pytest.mark.parametrize("lanes", [1, 3])
def test_aes128_fips197_vector(lanes):
    assert AES128.encrypt([C1_KEY] * lanes, C1_PT * lanes) == C1_CT * lanes
    assert AES128.decrypt([C1_KEY] * lanes, C1_CT * lanes) == C1_PT * lanes


@pytest.mark.parametrize("lanes", [1, 3])
def test_aes128_all_zero_kat(lanes):
    assert AES128.encrypt([bytes(16)] * lanes, bytes(16 * lanes)) == ZERO_CT * lanes
    assert AES128.decrypt([bytes(16)] * lanes, ZERO_CT * lanes) == bytes(16 * lanes)


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


def test_toy_batch_refuses_bad_input_before_any_lane():
    # A kernel built on a recording key schedule shows whether any lane ran.
    lanes = []

    def schedule(key):
        lanes.append(key)
        return block_cipher._toy_round_keys(key)

    spied = block_cipher._toy(block_cipher._FWD_HI, block_cipher._FWD_LO, schedule)[1]  # the batch coding
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


def test_toy_round_keys_are_the_rotated_key_xor_the_round_constants():
    # Every key, through the schedule itself rather than its cache: round key r is the key rotated
    # left by 3r bits XOR the round constant r, as the schedule was first written.
    schedule, rotl, rc = block_cipher._toy_round_keys.__wrapped__, block_cipher._rotl16, block_cipher._TOY_RC
    for key in range(1 << 16):
        assert schedule(key) == tuple(rotl(key, 3 * r) ^ rc[r] for r in range(5)), key


# TOY's rounds coded nibble by nibble from their definition, not from the fused round tables that both of the
# library's codings read: forward substitutes each nibble with _SBOX4, then rotates the state one nibble
# left; the inverse rotates one nibble right, then substitutes with _SBOX4_INV.  Nibbles are listed from the
# most significant.
def _nibbles(x):
    return [x >> 12, x >> 8 & 15, x >> 4 & 15, x & 15]


def _word(nibbles):
    a, b, c, d = nibbles
    return a << 12 | b << 8 | c << 4 | d


def _rotate_left(nibbles):
    return nibbles[1:] + nibbles[:1]


def _rotate_right(nibbles):
    return nibbles[3:] + nibbles[:3]


def _toy_round(x):
    return _word(_rotate_left([block_cipher._SBOX4[v] for v in _nibbles(x)]))


def _toy_inverse_round(x):
    return _word([block_cipher._SBOX4_INV[v] for v in _rotate_right(_nibbles(x))])


def test_toy_round_tables_and_both_codings_match_a_nibble_wise_coding():
    for hi, lo, round_, rotate in (
        (block_cipher._FWD_HI, block_cipher._FWD_LO, _toy_round, _rotate_left),
        (block_cipher._INV_HI, block_cipher._INV_LO, _toy_inverse_round, _rotate_right),
    ):
        # An entry holds the round's output nibbles that come from its own byte of the state, and 0 elsewhere.
        hi_out, lo_out = _word(rotate([15, 15, 0, 0])), _word(rotate([0, 0, 15, 15]))
        for b in range(256):
            assert lo[b] == round_(b) & lo_out, b
            assert hi[b] == round_(b << 8) & hi_out, b
    # The whole cipher, its round keys applied as defined (k0 first forward, k4 first inverse): every block
    # for one key, and 2,048 sampled blocks for three more, through both directions of both codings.  The
    # first 2,048 blocks of each key also go through 1-lane and 4-lane batches under a 6-byte key entry, the
    # key and 4 more bytes, of which a lane reads only the first 2.
    fwd, inv = [_toy_round(x) for x in range(1 << 16)], [_toy_inverse_round(x) for x in range(1 << 16)]
    rng = random.Random(0x7AB)
    for key, blocks in [(rng.randrange(1 << 16), range(1 << 16))] + [
        (rng.randrange(1 << 16), rng.sample(range(1 << 16), 2048)) for _ in range(3)
    ]:
        k0, k1, k2, k3, k4 = block_cipher._toy_round_keys(key)
        enc = [fwd[fwd[fwd[fwd[x ^ k0] ^ k1] ^ k2] ^ k3] ^ k4 for x in blocks]
        dec = [inv[inv[inv[inv[y ^ k4] ^ k3] ^ k2] ^ k1] ^ k0 for y in blocks]
        key, count = key.to_bytes(2, "big"), len(blocks)
        packed, singles = struct.pack(f">{count}H", *blocks), [x.to_bytes(2, "big") for x in blocks]
        entry = key + rng.randbytes(4)
        for batch, block_fn, want in ((TOY.encrypt, toy_encrypt_block, enc), (TOY.decrypt, toy_decrypt_block, dec)):
            want = struct.pack(f">{count}H", *want)
            assert batch([key] * count, packed) == want == b"".join([block_fn(key, x) for x in singles])
            for lanes in (1, 4):
                got = [batch([entry] * lanes, packed[i : i + 2 * lanes]) for i in range(0, 4096, 2 * lanes)]
                assert b"".join(got) == want[:4096], lanes


# Every 2-byte block, in order, end to end.
TOY_DOMAIN = struct.pack(">65536H", *range(1 << 16))


def _output_nibbles_reached(table):
    """For each input nibble, the output nibbles that some change of it alone changes, over 64 sampled blocks."""
    rng = random.Random(0xD1F)
    reached = [set() for _ in range(4)]
    for x in rng.sample(range(1 << 16), 64):
        for i in range(4):
            for d in range(1, 16):
                diff = table[x] ^ table[x ^ d << 4 * i]
                reached[i].update(j for j in range(4) if diff >> 4 * j & 15)
    return reached


def test_small_present_is_a_bijection_and_diffuses_where_toy_does_not():
    # SMALL_PRESENT (tests/composed_tweakable.py) diffuses: a change of any one input nibble reaches all four
    # output nibbles.  TOY does not: each input nibble reaches only the same output nibble, which its four
    # one-nibble rotations take it back to.
    spec, rng = composed_tweakable.SMALL_PRESENT, random.Random(0x5E4)
    for key in [bytes(2)] + [rng.randbytes(2) for _ in range(2)]:
        image = spec.encrypt([key] * (1 << 16), TOY_DOMAIN)
        assert spec.decrypt([key] * (1 << 16), image) == TOY_DOMAIN  # so encryption is one-to-one on all 2^16 blocks
        assert _output_nibbles_reached(struct.unpack(">65536H", image)) == [{0, 1, 2, 3}] * 4
    toy = struct.unpack(">65536H", TOY.encrypt([key] * (1 << 16), TOY_DOMAIN))
    assert _output_nibbles_reached(toy) == [{i} for i in range(4)]


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


_NOT_AN_INT = "cannot be interpreted as an integer"


@pytest.mark.parametrize(
    "block_len,key_len,error,match",
    [
        pytest.param(0, 16, ValueError, r"block_len must be in \[1, 255\]", id="0"),
        pytest.param(256, 16, ValueError, r"block_len must be in \[1, 255\]", id="256"),
        # A spec with no key bytes would seal under no secret: TweakableKey(b"", spec) would be accepted.
        pytest.param(16, 0, ValueError, "key_len must be at least 1, got 0", id="key_len 0"),
        pytest.param(16, -1, ValueError, "key_len must be at least 1, got -1", id="key_len -1"),
        pytest.param(16.0, 16, TypeError, _NOT_AN_INT, id="float block_len"),
        pytest.param("16", 16, TypeError, _NOT_AN_INT, id="str block_len"),
        pytest.param(16, 16.0, TypeError, _NOT_AN_INT, id="float key_len"),
        pytest.param(16, None, TypeError, _NOT_AN_INT, id="None key_len"),
    ],
)
def test_block_length_outside_what_pkcs7_pads_is_refused_at_construction(block_len, key_len, error, match):
    # Every length is an int in range once a spec is built, so no batch does arithmetic on anything else.
    calls = []

    def block(key, data):
        calls.append(1)
        return data

    for build in (CipherSpec, CipherSpec.from_blocks):
        with pytest.raises(error, match=match):
            build("wide", block_len, key_len, block, block)
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
