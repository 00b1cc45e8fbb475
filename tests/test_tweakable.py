import hashlib
import random
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

import composed_tweakable
from tortoise import aead, tweakable
from tortoise.aead import (
    AeadMode,
    _AD,
    _MSG,
    _mr_stream_tweaks,
    _tag_tweak,
    _tweaks,
    nonce_length,
)
from tortoise.block_cipher import AES128, TOY, toy_encrypt_block
from tortoise.tweakable import TweakableKey, shake128, tweak_decrypt_many, tweak_encrypt_many

ZERO_KEY = TweakableKey(bytes(16), AES128)
ZERO_TWEAK = bytes(16)

# SHAKE128(00^16 || 00^16) squeezed to 32 bytes, frozen from the verified
# XOF: first half subkey, second half mask.
ZERO_SUBKEY = bytes.fromhex("24a7ca4b75e3898d4f12e74dea8cbb65")
ZERO_MASK = bytes.fromhex("0733bd34525b281e4b6488d4291c0fdb")

# AES-128 instantiation with all-zero key, tweak, and block, frozen from
# the composed AES + SHAKE oracles.
ZERO_TE = bytes.fromhex("5755e227131a8a8039687a3558225c4f")

# SHAKE128 of the empty message: the NIST FIPS-202 example vector, verified
# against an independent implementation before freezing.
EMPTY_16 = bytes.fromhex("7f9c2ba4e88f827d616045507605853e")
EMPTY_32 = bytes.fromhex("7f9c2ba4e88f827d616045507605853ed73b8093f6efbc88eb1a6eacfa66ef26")

# SHAKE128 of 000102...1f, frozen from a cross-implementation check.
SEQ32_32 = bytes.fromhex("066a361dc675f856cecdc02b25218a10cec0cecf79859ec0fec3d409e5847a92")


# --- the SHAKE128 squeeze -------------------------------------------------

def test_empty_input_vectors():
    assert shake128(b"", 16) == EMPTY_16
    assert shake128(b"", 32) == EMPTY_32


def test_sequential_input_vector():
    assert shake128(bytes(range(32)), 32) == SEQ32_32


def test_deterministic():
    data = b"determinism check"
    assert shake128(data, 64) == shake128(data, 64)


@given(st.binary(max_size=200), st.integers(1, 64), st.integers(1, 64))
def test_prefix_property(data, m, extra):
    assert shake128(data, m) == shake128(data, m + extra)[:m]


@given(st.binary(max_size=100), st.integers(1, 300))
def test_output_length(data, out_len):
    assert len(shake128(data, out_len)) == out_len


# --- subkey/mask derivation ---------------------------------------------

def derive_subkey_and_mask(key, tweak):
    """The one SHAKE128 squeeze of a batch of one, split into the subkey the cipher reads and the mask."""
    (out,), mask = tweakable._squeeze(key, [tweak])
    kl = key.cipher.key_len
    assert out[kl:] == mask
    return out[:kl], mask


def test_derive_zero_kat():
    assert derive_subkey_and_mask(ZERO_KEY, ZERO_TWEAK) == (ZERO_SUBKEY, ZERO_MASK)


def test_derive_deterministic():
    key = TweakableKey(b"\xab" * 16, AES128)
    tweak = encode_ad_tweak(42)
    assert derive_subkey_and_mask(key, tweak) == derive_subkey_and_mask(key, tweak)


def test_derive_distinct_tweaks_differ():
    rng = random.Random(0xD1FF)
    key = TweakableKey(rng.randbytes(16), AES128)
    for _ in range(1000):
        t1, t2 = rng.randbytes(16), rng.randbytes(16)
        if t1 == t2:
            continue
        assert derive_subkey_and_mask(key, t1) != derive_subkey_and_mask(key, t2)


def test_single_tweak_bit_changes_derivation():
    rng = random.Random(0xB17)
    key = TweakableKey(rng.randbytes(16), AES128)
    base = rng.randbytes(16)
    ref = derive_subkey_and_mask(key, base)
    for bit in range(128):
        flipped = composed_tweakable.xor(base, (1 << bit).to_bytes(16, "big"))
        assert derive_subkey_and_mask(key, flipped) != ref


def test_master_key_length_checked():
    with pytest.raises(ValueError):
        TweakableKey(bytes(15), AES128)
    with pytest.raises(ValueError):
        TweakableKey(bytes(16), TOY)


# --- tweakable encrypt/decrypt, one lane at a time -----------------------

def tweak_encrypt(key, tweak, block):
    return tweak_encrypt_many(key, [tweak], block)


def tweak_decrypt(key, tweak, block):
    return tweak_decrypt_many(key, [tweak], block)


def test_tweak_encrypt_zero_kat():
    assert tweak_encrypt(ZERO_KEY, ZERO_TWEAK, bytes(16)) == ZERO_TE
    assert tweak_decrypt(ZERO_KEY, ZERO_TWEAK, ZERO_TE) == bytes(16)


def test_round_trip_all_specs():
    rng = random.Random(0x7E57)
    for spec, cases in ((TOY, 10_000), (AES128, 500)):
        for _ in range(cases):
            key = TweakableKey(rng.randbytes(spec.key_len), spec)
            tweak = rng.randbytes(spec.block_len)
            block = rng.randbytes(spec.block_len)
            assert tweak_decrypt(key, tweak, tweak_encrypt(key, tweak, block)) == block


def test_wrong_tweak_fails_to_invert():
    rng = random.Random(0xBAD)
    hits = 0
    for _ in range(1000):
        key = TweakableKey(rng.randbytes(16), AES128)
        t1, t2 = rng.randbytes(16), rng.randbytes(16)
        if t1 == t2:
            continue
        block = rng.randbytes(16)
        if tweak_decrypt(key, t2, tweak_encrypt(key, t1, block)) == block:
            hits += 1
    assert hits == 0


def test_toy_matches_composed_oracle():
    # Recompose SHAKE + toy permutation without going through the module.
    rng = random.Random(0xC0)
    for _ in range(2000):
        master, raw, block = rng.randbytes(2), rng.randbytes(2), rng.randbytes(2)
        digest = hashlib.shake_128(master + raw).digest(4)
        want = bytes(a ^ b for a, b in zip(toy_encrypt_block(digest[:2], block), digest[2:]))
        assert tweak_encrypt(TweakableKey(master, TOY), raw, block) == want


# Fixed before the run.  A random permutation of 2^16 points has Poisson(1) fixed points (to well within
# 2^-16), so 16 independent tables have Poisson(16) in total, inside [4, 32] but for a false-alarm rate of
# 2.2e-4.  A family averaging 3 fixed points a table (total mean 48) fails with probability 0.99, one
# averaging 1/8 (total mean 2) with probability 0.86.  The toy SPN is weaker than that model: its rounds
# never mix nibbles, so each table is four independent 4-bit permutations, whose fixed points multiply.
# The mean stays 16 but the spread is far wider: for such tables the false-alarm rate of [4, 32] is about
# 0.28 (simulated), so this seeded draw passes as a fixed regression, not as a test of randomness.
LRW_TWEAKS, LRW_FIXED_POINTS = 16, range(4, 33)


def test_toy_tweaks_select_distinct_random_looking_permutations():
    # Liskov-Rivest-Wagner (2002): distinct tweaks should select distinct, random-looking permutations.
    # Each full table comes from one squeeze and one call of the TOY batch kernel.
    rng = random.Random(0x1B5)
    key = TweakableKey(rng.randbytes(2), TOY)
    tweaks = [t.to_bytes(2, "big") for t in rng.sample(range(1 << 16), LRW_TWEAKS)]
    domain = struct.pack(">65536H", *range(1 << 16))
    tables = []
    for tweak in tweaks:
        out = hashlib.shake_128(key.master_key + tweak).digest(4)  # the subkey, then the mask
        mask = int.from_bytes(out[2:], "big")
        tables.append(tuple(c ^ mask for c in struct.unpack(">65536H", TOY.encrypt([out] * (1 << 16), domain))))
    assert struct.pack(">65536H", *tables[0]) == tweak_encrypt_many(key, [tweaks[0]] * (1 << 16), domain)
    for table in tables:
        assert sorted(table) == list(range(1 << 16))
    assert len(set(tables)) == LRW_TWEAKS
    fixed = sum(x == y for table in tables for x, y in zip(table, range(1 << 16)))
    assert fixed in LRW_FIXED_POINTS, fixed


def test_block_length_checked():
    with pytest.raises(ValueError):
        tweak_encrypt(ZERO_KEY, ZERO_TWEAK, bytes(15))
    with pytest.raises(ValueError):
        tweak_decrypt(ZERO_KEY, ZERO_TWEAK, bytes(17))
    with pytest.raises(ValueError):
        tweak_encrypt(ZERO_KEY, bytes(2), bytes(16))


# --- aead's tweak encoders: 16-byte layout ------------------------------

# One tweak each, as one-counter calls of the encoders aead uses.  They do not check their
# inputs: aead bounds them once per message, as tests/test_aead.py's limit tests pin.

def encode_ad_tweak(i, block_len=16):
    return _tweaks(_AD, b"", range(i, i + 1), block_len)[0]


def encode_nr_msg_tweak(prefix, nonce, j, block_len=16):
    # Prefix 0 is the message tweak of counter j, prefix 1 the tag tweak of a j-block message.
    if prefix:
        return _tag_tweak(nonce, j, block_len)
    return _tweaks(_MSG, nonce, range(j, j + 1), block_len)[0]


def encode_mr_tag_tweak(nonce):
    # The mr nonce fills every byte after the prefix, so the tag layout's count 0 goes in the nibble.
    return _tag_tweak(nonce, 0, len(nonce) + 1)


def encode_mr_stream_tweak(tag, j, block_len=16):
    return _mr_stream_tweaks(tag, range(j, j + 1), block_len)[0]


def test_ad_tweak_layout():
    assert encode_ad_tweak(0) == bytes.fromhex("20000000000000000000000000000000")
    assert encode_ad_tweak(1) == bytes.fromhex("20000000000000000000000000000001")
    assert encode_ad_tweak(2**120 - 1) == bytes.fromhex("20ffffffffffffffffffffffffffffff")


def test_nr_msg_tweak_layout():
    nonce = bytes.fromhex("0102030405060708")
    assert encode_nr_msg_tweak(0, nonce, 2) == bytes.fromhex("00010203040506070800000000000002")
    assert encode_nr_msg_tweak(1, bytes(8), 0) == bytes.fromhex("10000000000000000000000000000000")


def test_mr_tag_tweak_layout():
    assert encode_mr_tag_tweak(bytes(15)) == bytes.fromhex("10000000000000000000000000000000")
    assert encode_mr_tag_tweak(b"\xff" * 15) == bytes.fromhex("10ffffffffffffffffffffffffffffff")


def test_mr_stream_tweak_layout():
    tag = bytes(range(16))
    assert encode_mr_stream_tweak(tag, 0) == tag
    assert encode_mr_stream_tweak(bytes(16), 1) == bytes.fromhex("00000000000000000000000000000001")
    assert encode_mr_stream_tweak(bytes(16), 2**64 - 1) == bytes(8) + b"\xff" * 8


@given(st.binary(min_size=16, max_size=16), st.integers(0, 2**64 - 1))
def test_mr_stream_tweak_involution(tag, j):
    assert encode_mr_stream_tweak(encode_mr_stream_tweak(tag, j), j) == tag


# --- aead's tweak encoders: 2-byte toy layout ---------------------------

def test_toy_layouts():
    assert encode_ad_tweak(3, block_len=2) == bytes.fromhex("2003")
    assert encode_ad_tweak(0, block_len=1) == b"\x20"  # n=1's only AD index, in the nibble fallback
    assert encode_nr_msg_tweak(0, b"\xab", 5, block_len=2) == bytes.fromhex("05ab")
    assert encode_nr_msg_tweak(1, b"\xab", 5, block_len=2) == bytes.fromhex("15ab")
    assert encode_mr_tag_tweak(b"\xcd") == bytes.fromhex("10cd")
    assert encode_mr_stream_tweak(b"\x12\x34", 0x0101, block_len=2) == bytes.fromhex("1335")


def test_nonce_widths():
    assert nonce_length(AeadMode.NONCE_RESPECTING, 16) == 8
    assert nonce_length(AeadMode.NONCE_RESPECTING, 2) == 1


@pytest.mark.parametrize("block_len,limit,last", [(16, 2**56, "10" + "ab" * 8 + "ff" * 7), (2, 16, "1fab")])
def test_counter_limit_is_encoder_range(block_len, limit, last):
    # The last counter below the limit fills the counter field: one more would not fit it.
    nonce = b"\xab" * nonce_length(AeadMode.NONCE_RESPECTING, block_len)
    assert encode_nr_msg_tweak(1, nonce, limit - 1, block_len) == bytes.fromhex(last)


# --- encoder injectivity and domain separation ---------------------------

@given(
    st.integers(0, 2**120 - 1),
    st.integers(0, 1),
    st.binary(min_size=8, max_size=8),
    st.integers(0, 2**56 - 1),
    st.binary(min_size=15, max_size=15),
)
def test_domains_never_collide(i, prefix, nonce, j, mr_nonce):
    ad = encode_ad_tweak(i)
    msg = encode_nr_msg_tweak(prefix, nonce, j)
    tag = encode_mr_tag_tweak(mr_nonce)
    assert ad[0] == 0x20
    assert msg[0] >> 4 in (0, 1)
    assert tag[0] == 0x10
    assert ad != msg and ad != tag
    if prefix == 0:  # an nr tag tweak can equal an mr tag tweak, as the next tests pin
        assert msg != tag


@given(st.binary(min_size=8, max_size=8), st.integers(1, 2**56 - 1))
def test_aes128_nr_tag_tweaks_are_mr_tag_tweaks(nonce, j):
    # Both tag layouts start with nibble 0001: the nr tag tweak of (nonce, block count j)
    # is the mr tag tweak of the nonce followed by j in 7 bytes.
    assert encode_nr_msg_tweak(1, nonce, j) == encode_mr_tag_tweak(nonce + j.to_bytes(7, "big"))


def test_aes128_nr_and_mr_tags_share_a_permutation(monkeypatch):
    # So one master key used in both modes runs the nr and the mr tag block
    # through the same tweakable permutation.
    seen = []

    real = aead._encrypt

    def recording(key, tweaks, blocks):
        seen.extend(tweaks)
        return real(key, tweaks, blocks)

    monkeypatch.setattr(aead, "_encrypt", recording)
    key, nonce = TweakableKey(bytes(range(16)), AES128), bytes(range(8))
    tag_tweak = encode_nr_msg_tweak(1, nonce, 1)  # one padded block
    aead.seal_nr(key, nonce, b"", b"")
    assert seen.count(tag_tweak) == 1
    seen.clear()
    aead.seal_mr(key, nonce + (1).to_bytes(7, "big"), b"", b"")
    assert seen.count(tag_tweak) == 1


def test_aes128_mr_tag_starting_0x10_puts_its_keystream_on_mr_tag_tweaks():
    # The keystream tweak tag XOR j has no domain nibble.  A tag whose first byte is 0x10, one in
    # 256, makes every keystream tweak of its message the mr tag tweak of the nonce tag[1:] XOR j,
    # and mr takes any 15-byte nonce: keystream block j is the tweakable cipher of the seed
    # 0x00 || nonce under the tag tweak that an mr seal under that nonce uses for its tag.  The two
    # uses meet only if that seal's pre-tag sum equals the seed.  A search of 256 messages finds
    # such a tag with probability 1 - (255/256)^256, about 63%; this seed finds one at try 127.
    rng = random.Random(16)
    key, m = TweakableKey(rng.randbytes(16), AES128), 5
    for tries in range(1, 257):
        nonce, pt = rng.randbytes(15), rng.randbytes(16 * m - 1)  # pads to m blocks with one 0x01 byte
        sealed = aead.seal_mr(key, nonce, b"", pt)
        if sealed.tag[0] == 0x10:
            break
    assert (tries, sealed.tag[0]) == (127, 0x10)
    keystream = composed_tweakable.xor(sealed.ciphertext, pt + b"\x01")
    seed, rest = b"\x00" + nonce, int.from_bytes(sealed.tag[1:], "big")
    for j, tweak in enumerate(_mr_stream_tweaks(sealed.tag, range(m), 16)):
        tag_tweak = encode_mr_tag_tweak((rest ^ j).to_bytes(15, "big"))
        assert tweak == tag_tweak
        assert keystream[16 * j : 16 * j + 16] == tweak_encrypt(key, tag_tweak, seed)


def test_toy_domain_census():
    # Every tweak each layout can produce within the toy limits: nr seals at
    # most 15 padded blocks (its tag takes counter 15 at most), mr 16, and
    # the AD encoder numbers up to 256 blocks.
    limit = 16
    nonces = [bytes([b]) for b in range(256)]
    ad = {encode_ad_tweak(i, 2) for i in range(256)}
    nr_msg = {t for nonce in nonces for t in _tweaks(_MSG, nonce, range(limit - 1), 2)}
    nr_tag = {encode_nr_msg_tweak(1, nonce, j, 2) for nonce in nonces for j in range(1, limit)}
    mr_sum = {t for nonce in nonces for t in _tweaks(_MSG, nonce, range(limit), 2)}
    mr_tag = {encode_mr_tag_tweak(nonce) for nonce in nonces}
    stream = {t for x in range(1 << 16) for t in _mr_stream_tweaks(x.to_bytes(2, "big"), range(limit), 2)}
    assert (len(ad), len(nr_msg), len(nr_tag), len(mr_sum), len(mr_tag)) == (256, 15 * 256, 15 * 256, 16 * 256, 256)
    # AD, message and tag tweaks are disjoint, across both modes.
    msg, tag = nr_msg | mr_sum, nr_tag | mr_tag
    assert not ad & msg and not ad & tag and not msg & tag
    # Unlike on aes128, the two tag layouts never meet: the nr tag counter is at least 1 and sits in the nibble.
    assert not nr_tag & mr_tag
    # The mr tag sum reuses the nr message tweaks by construction, plus the 16th counter.
    assert nr_msg < mr_sum and mr_sum - nr_msg == {bytes([15]) + nonce for nonce in nonces}
    # The keystream tweak has no domain nibble and takes every 16-bit value.
    assert stream == {x.to_bytes(2, "big") for x in range(1 << 16)}


@given(
    st.tuples(st.integers(0, 1), st.binary(min_size=8, max_size=8), st.integers(0, 2**56 - 1)),
    st.tuples(st.integers(0, 1), st.binary(min_size=8, max_size=8), st.integers(0, 2**56 - 1)),
)
def test_nr_msg_tweak_injective(a, b):
    if a != b:
        assert encode_nr_msg_tweak(*a) != encode_nr_msg_tweak(*b)


@given(st.integers(0, 2**120 - 1), st.integers(0, 2**120 - 1))
def test_ad_tweak_injective(i1, i2):
    if i1 != i2:
        assert encode_ad_tweak(i1) != encode_ad_tweak(i2)


@given(
    st.tuples(st.integers(0, 1), st.binary(min_size=1, max_size=1), st.integers(0, 15)),
    st.tuples(st.integers(0, 1), st.binary(min_size=1, max_size=1), st.integers(0, 15)),
)
def test_toy_nr_msg_tweak_injective(a, b):
    if a != b:
        assert encode_nr_msg_tweak(*a, block_len=2) != encode_nr_msg_tweak(*b, block_len=2)
