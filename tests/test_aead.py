import hmac
import random
import sys
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composed_tweakable
from tortoise import aead, block_cipher, tweakable
from tortoise.aead import (
    OPEN,
    SEAL,
    AeadMode,
    AuthenticationError,
    _MSG,
    _tag_tweak,
    _tweaks,
    nonce_length,
    open_mr,
    open_nr,
    seal_mr,
    seal_nr,
)
from tortoise.block_cipher import AES128, TOY, CipherSpec
from tortoise.tweakable import TweakableKey

ZERO_KEY = TweakableKey(bytes(16), AES128)

# Frozen from composed AES + SHAKE oracles: all-zero key and nonce, empty
# associated data, empty plaintext.
NR_KAT_CT = bytes.fromhex("c44c93c4b9387a948e32e47e8ddcf4d7")
NR_KAT_TAG = bytes.fromhex("cec892afe1dbcb5be3a594efc1afc870")
MR_KAT_CT = bytes.fromhex("56221e8bff761bc349d1905e6c8c0e11")
MR_KAT_TAG = bytes.fromhex("51b5e24e0cb461a157fab256d8f5fbc8")
AUTH_EMPTY_AD = bytes.fromhex("5fba08572a71a90f1bea4153f87527f5")


# --- associated-data sum ---------------------------------------------------
# Seals against the oracle's AD sum over 1 to 7 padded AD blocks: tests/test_batch.py's hand composition.

def test_auth_empty_ad_kat():
    # The AD share of the frozen nr tag.  With an empty message the tag block is one block of
    # padding under the tag tweak of counter 1; empty AD still contributes one padded block.
    tag_block = composed_tweakable.encrypt(ZERO_KEY, _tag_tweak(bytes(8), 1, 16), bytes([16]) * 16)
    assert composed_tweakable.ad_sum(ZERO_KEY, b"") == AUTH_EMPTY_AD
    assert composed_tweakable.xor(tag_block, AUTH_EMPTY_AD) == NR_KAT_TAG


# --- nonce-respecting mode ------------------------------------------------

def test_seal_nr_zero_kat():
    sealed = seal_nr(ZERO_KEY, bytes(8), b"", b"")
    assert sealed.ciphertext == NR_KAT_CT
    assert sealed.tag == NR_KAT_TAG
    assert open_nr(ZERO_KEY, bytes(8), b"", NR_KAT_CT, NR_KAT_TAG) == b""


def test_seal_nr_distinct_nonces_distinct_ciphertexts():
    rng = random.Random(0x40)
    pt = b"same plaintext for both"
    for _ in range(50):
        n1, n2 = rng.randbytes(8), rng.randbytes(8)
        if n1 == n2:
            continue
        assert seal_nr(ZERO_KEY, n1, b"", pt).ciphertext != seal_nr(ZERO_KEY, n2, b"", pt).ciphertext


def test_nr_block_permutation_preserves_tag():
    rng = random.Random(0x9E12)
    key = TweakableKey(rng.randbytes(16), AES128)
    nonce = rng.randbytes(8)
    blocks = [rng.randbytes(16) for _ in range(3)]
    base = seal_nr(key, nonce, b"", b"".join(blocks))
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        permuted = seal_nr(key, nonce, b"", b"".join(blocks[p] for p in perm))
        assert permuted.tag == base.tag
        # each position encrypts the relocated block under that position's tweak
        for j, (p, tweak) in enumerate(zip(perm, _tweaks(_MSG, nonce, range(3), 16))):
            assert permuted.ciphertext[16 * j : 16 * (j + 1)] == composed_tweakable.encrypt(key, tweak, blocks[p])
        # the trailing padding block is untouched
        assert permuted.ciphertext[48:] == base.ciphertext[48:]


def test_open_nr_rejects_bit_flips_sampled():
    sealed = seal_nr(ZERO_KEY, bytes(8), b"ad", b"attack at dawn")
    for bit in range(0, len(sealed.ciphertext) * 8, 7):
        bad = composed_tweakable.xor(sealed.ciphertext, (1 << bit).to_bytes(len(sealed.ciphertext), "big"))
        with pytest.raises(AuthenticationError):
            open_nr(ZERO_KEY, bytes(8), b"ad", bad, sealed.tag)
    with pytest.raises(AuthenticationError):
        open_nr(ZERO_KEY, bytes(8), b"AD", sealed.ciphertext, sealed.tag)
    with pytest.raises(AuthenticationError):
        open_nr(ZERO_KEY, b"\x01" + bytes(7), b"ad", sealed.ciphertext, sealed.tag)


def test_open_nr_truncation_rejected():
    sealed = seal_nr(ZERO_KEY, bytes(8), b"", bytes(40))
    with pytest.raises(AuthenticationError):
        open_nr(ZERO_KEY, bytes(8), b"", sealed.ciphertext[:-16], sealed.tag)
    one_block = seal_nr(ZERO_KEY, bytes(8), b"", b"")
    with pytest.raises(ValueError):
        open_nr(ZERO_KEY, bytes(8), b"", one_block.ciphertext[:-16], one_block.tag)


def test_nr_argument_errors():
    with pytest.raises(ValueError):
        seal_nr(ZERO_KEY, bytes(15), b"", b"")
    with pytest.raises(ValueError):
        open_nr(ZERO_KEY, bytes(8), b"", bytes(24), bytes(16))
    with pytest.raises(ValueError):
        open_nr(ZERO_KEY, bytes(8), b"", b"", bytes(16))
    with pytest.raises(ValueError):
        open_nr(ZERO_KEY, bytes(8), b"", bytes(16), bytes(15))


@settings(max_examples=60)
@given(st.binary(max_size=53), st.binary(max_size=35))
def test_nr_round_trip_aes(pt, ad):
    sealed = seal_nr(ZERO_KEY, b"nonce!!!", ad, pt)
    assert open_nr(ZERO_KEY, b"nonce!!!", ad, sealed.ciphertext, sealed.tag) == pt


@given(
    st.binary(min_size=2, max_size=2),
    st.binary(min_size=1, max_size=1),
    st.binary(max_size=7),
    st.binary(max_size=11),
)
def test_nr_round_trip_toy(key, nonce, ad, pt):
    k = TweakableKey(key, TOY)
    sealed = seal_nr(k, nonce, ad, pt)
    assert len(sealed.ciphertext) % 2 == 0
    assert open_nr(k, nonce, ad, sealed.ciphertext, sealed.tag) == pt


# --- misuse-resistant mode --------------------------------------------------

def test_seal_mr_zero_kat():
    sealed = seal_mr(ZERO_KEY, bytes(15), b"", b"")
    assert sealed.ciphertext == MR_KAT_CT
    assert sealed.tag == MR_KAT_TAG
    assert open_mr(ZERO_KEY, bytes(15), b"", MR_KAT_CT, MR_KAT_TAG) == b""


def test_seal_mr_deterministic():
    nonce = bytes(range(15))
    outs = {
        (seal_mr(ZERO_KEY, nonce, b"ad", b"payload").ciphertext, seal_mr(ZERO_KEY, nonce, b"ad", b"payload").tag)
        for _ in range(20)
    }
    assert len(outs) == 1


def test_mr_single_block_change_changes_tag():
    rng = random.Random(0x3A6)
    nonce = rng.randbytes(15)
    for _ in range(50):
        pt1 = rng.randbytes(48)
        block = rng.randrange(3)
        delta = bytearray(pt1)
        delta[16 * block] ^= 0xFF
        pt2 = bytes(delta)
        assert seal_mr(ZERO_KEY, nonce, b"", pt1).tag != seal_mr(ZERO_KEY, nonce, b"", pt2).tag


def test_open_mr_rejects_bit_flips_sampled():
    nonce = bytes(range(15))
    sealed = seal_mr(ZERO_KEY, nonce, b"ad", b"attack at dawn")
    for bit in range(0, 128, 5):
        bad_tag = composed_tweakable.xor(sealed.tag, (1 << bit).to_bytes(16, "big"))
        with pytest.raises(AuthenticationError):
            open_mr(ZERO_KEY, nonce, b"ad", sealed.ciphertext, bad_tag)
    with pytest.raises(AuthenticationError):
        open_mr(ZERO_KEY, nonce, b"da", sealed.ciphertext, sealed.tag)
    with pytest.raises(AuthenticationError):
        open_mr(ZERO_KEY, b"\x80" + nonce[1:], b"ad", sealed.ciphertext, sealed.tag)


def test_mr_tag_swap_both_fail():
    n1, n2 = bytes(15), b"\x01" * 15
    s1 = seal_mr(ZERO_KEY, n1, b"", b"first message")
    s2 = seal_mr(ZERO_KEY, n2, b"", b"second message")
    with pytest.raises(AuthenticationError):
        open_mr(ZERO_KEY, n1, b"", s1.ciphertext, s2.tag)
    with pytest.raises(AuthenticationError):
        open_mr(ZERO_KEY, n2, b"", s2.ciphertext, s1.tag)


def test_mr_failure_reveals_nothing():
    sealed = seal_mr(ZERO_KEY, bytes(15), b"", b"super secret plaintext")
    bad_tag = composed_tweakable.xor(sealed.tag, b"\x01" + bytes(15))
    with pytest.raises(AuthenticationError) as exc_info:
        open_mr(ZERO_KEY, bytes(15), b"", sealed.ciphertext, bad_tag)
    assert b"secret" not in str(exc_info.value).encode()
    assert str(exc_info.value) == "authentication failed"


def test_mr_argument_errors():
    with pytest.raises(ValueError):
        seal_mr(ZERO_KEY, bytes(8), b"", b"")
    with pytest.raises(ValueError):
        open_mr(ZERO_KEY, bytes(15), b"", b"", bytes(16))
    with pytest.raises(ValueError):
        open_mr(ZERO_KEY, bytes(15), b"", bytes(24), bytes(16))
    with pytest.raises(ValueError):
        open_mr(ZERO_KEY, bytes(15), b"", bytes(16), bytes(15))


@settings(max_examples=60)
@given(st.binary(max_size=53), st.binary(max_size=35))
def test_mr_round_trip_aes(pt, ad):
    nonce = b"misuse nonce 15"
    sealed = seal_mr(ZERO_KEY, nonce, ad, pt)
    assert open_mr(ZERO_KEY, nonce, ad, sealed.ciphertext, sealed.tag) == pt


@given(
    st.binary(min_size=2, max_size=2),
    st.binary(min_size=1, max_size=1),
    st.binary(max_size=7),
    st.binary(max_size=11),
)
def test_mr_round_trip_toy(key, nonce, ad, pt):
    k = TweakableKey(key, TOY)
    sealed = seal_mr(k, nonce, ad, pt)
    assert open_mr(k, nonce, ad, sealed.ciphertext, sealed.tag) == pt


# --- cross-mode properties ---------------------------------------------------

def test_domain_separation_ad_vs_plaintext():
    data = b"the very same bytes"
    nr_as_ad = seal_nr(ZERO_KEY, bytes(8), data, b"")
    nr_as_pt = seal_nr(ZERO_KEY, bytes(8), b"", data)
    assert nr_as_ad.tag != nr_as_pt.tag
    mr_as_ad = seal_mr(ZERO_KEY, bytes(15), data, b"")
    mr_as_pt = seal_mr(ZERO_KEY, bytes(15), b"", data)
    assert mr_as_ad.tag != mr_as_pt.tag


def test_empty_vs_padded_ad_distinguished():
    # ("", x) and (x, "") must never collapse to the same authenticated view
    sealed = seal_nr(ZERO_KEY, bytes(8), b"", b"x")
    with pytest.raises(AuthenticationError):
        open_nr(ZERO_KEY, bytes(8), b"x", sealed.ciphertext, sealed.tag)


def test_nonce_length_helper():
    assert nonce_length(AeadMode.NONCE_RESPECTING) == 8
    assert nonce_length(AeadMode.MISUSE_RESISTANT) == 15
    assert nonce_length(AeadMode.NONCE_RESPECTING, 2) == 1
    assert nonce_length(AeadMode.MISUSE_RESISTANT, 2) == 1
    # The nr nonce is min(8, n // 2) bytes: 4 at n=8, leaving a 3-byte counter.  Only 3 <= n <= 15 differ
    # from the earlier min(8, n - 1), so n=2 (toy), n=16 (aes128) and the committed KATs are unchanged.
    assert [nonce_length(AeadMode.NONCE_RESPECTING, n) for n in (1, 3, 4, 8, 9, 10)] == [0, 1, 2, 4, 4, 5]
    for n in range(1, 256):
        assert nonce_length(AeadMode.NONCE_RESPECTING, n) == min(8, n // 2)
        assert nonce_length(AeadMode.MISUSE_RESISTANT, n) == n - 1
        if not 3 <= n <= 15:
            assert nonce_length(AeadMode.NONCE_RESPECTING, n) == min(8, n - 1)


def test_every_entry_takes_its_nonce_width_from_nonce_length():
    # One byte more or one byte less is refused, naming the width, at every block length a spec may have.
    for n in range(1, 256):
        key = TweakableKey(bytes(1), composed_tweakable.xor_spec(n))
        for mode in AeadMode:
            width = nonce_length(mode, n)
            for bad in {width - 1, width + 1} - {-1}:
                with pytest.raises(ValueError, match=f"nonce must be {width} bytes, got {bad}"):
                    SEAL[mode](key, bytes(bad), b"", b"")
                with pytest.raises(ValueError, match=f"nonce must be {width} bytes, got {bad}"):
                    OPEN[mode](key, bytes(bad), b"", bytes(n), bytes(n))


@pytest.mark.parametrize("lanes", [None, 2], ids=["one-call", "runs"])
@pytest.mark.parametrize("spec", [AES128, TOY], ids=["aes128", "toy"])
@pytest.mark.parametrize("mode", list(AeadMode))
def test_no_seal_or_open_calls_nonce_length(mode, spec, lanes, monkeypatch):
    # nonce_length checks a caller's arguments; a message reads its nonce width, in mr also the nr one its
    # sums pass takes, from the cached layout that _check reads its limits from.  With arenas of two blocks
    # every pass of the five-block message goes in runs.
    n, pt = spec.block_len, bytes(range(5 * spec.block_len - 1))
    key, nonce = TweakableKey(bytes(spec.key_len), spec), bytes(nonce_length(mode, n))
    if lanes:
        monkeypatch.setattr(block_cipher, "_LANES", lanes)
    monkeypatch.setattr(aead, "nonce_length", lambda *args: pytest.fail("a message called nonce_length"))
    sealed = SEAL[mode](key, nonce, b"ad", pt)
    assert OPEN[mode](key, nonce, b"ad", sealed.ciphertext, sealed.tag) == pt
    with pytest.raises(AuthenticationError):
        OPEN[mode](key, nonce, b"da", sealed.ciphertext, sealed.tag)


@pytest.mark.parametrize("lanes", [None, 2], ids=["one-call", "runs"])
@pytest.mark.parametrize("spec", [AES128, TOY], ids=["aes128", "toy"])
def test_modes_hash_in_c(spec, lanes, monkeypatch):
    # The members are singletons equal only to themselves, so they hash by identity, in C: a SEAL/OPEN lookup
    # and the layout cache that every message reads call no Python-level __hash__, as Enum's own is, which the
    # profiler sees as a call.  With arenas of two blocks every pass of the five-block message goes in runs.
    assert all(hash(mode) == object.__hash__(mode) for mode in AeadMode)
    n, pt = spec.block_len, bytes(range(5 * spec.block_len - 1))
    key = TweakableKey(bytes(spec.key_len), spec)
    nonces = {mode: bytes(nonce_length(mode, n)) for mode in AeadMode}
    if lanes:
        monkeypatch.setattr(block_cipher, "_LANES", lanes)
    hashes, opened, rejected = [], [], []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "__hash__":
            hashes.append(frame.f_code.co_filename)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for mode, nonce in nonces.items():
            sealed = SEAL[mode](key, nonce, b"ad", pt)
            opened.append(OPEN[mode](key, nonce, b"ad", sealed.ciphertext, sealed.tag))
            try:
                OPEN[mode](key, nonce, b"da", sealed.ciphertext, sealed.tag)
            except AuthenticationError:
                rejected.append(mode)
    finally:
        sys.setprofile(previous)
    assert opened == [pt, pt] and rejected == list(AeadMode)
    assert hashes == []


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 255), st.data())
def test_round_trip_any_block_length(n, data):
    # Every block length a spec may have pads, seals and opens; the forged-message tests pin the bytes.
    key = TweakableKey(data.draw(st.binary(min_size=1, max_size=1)), composed_tweakable.xor_spec(n))
    msg = data.draw(st.binary(min_size=3 * n + 5, max_size=3 * n + 5))
    ad = data.draw(st.binary(max_size=n - 1))  # one padded block, all that n=1 allows
    for mode in AeadMode:
        nonce = data.draw(st.binary(min_size=nonce_length(mode, n), max_size=nonce_length(mode, n)))
        for size in sorted({0, 1, n - 1, n, n + 1, 2 * n, 3 * n, 3 * n + 5}):
            sealed = SEAL[mode](key, nonce, ad, msg[:size])
            # Aligned plaintext gains a whole block of padding.
            assert (len(sealed.ciphertext), len(sealed.tag)) == ((size // n + 1) * n, n)
            assert OPEN[mode](key, nonce, ad, sealed.ciphertext, sealed.tag) == msg[:size]


# --- nonce reuse: what each mode gives up ------------------------------------

def test_nr_nonce_reuse_allows_splicing_forgery():
    # Two seals under one (key, nonce, AD) share every block tweak, so blocks at the same position
    # can be swapped between their envelopes.  (a, b, x) and (z, b', y), with y = x ^ b ^ b' and b ^ b'
    # zero over x's padding bytes, have padded checksums a ^ b ^ x' and z ^ b ^ x', where x' is x padded.
    # So a's block from the first envelope, b' and y's blocks from the second and the first tag open
    # to (a, b', y), a message neither seal saw.
    rng = random.Random(0x5EA1)
    key, nonce, ad = TweakableKey(rng.randbytes(16), AES128), rng.randbytes(8), rng.randbytes(13)
    a, b, z, x = rng.randbytes(16), rng.randbytes(16), rng.randbytes(16), rng.randbytes(9)
    b2 = rng.randbytes(9) + b[9:]  # agrees with b over x's 7 padding bytes
    y = bytes(p ^ q ^ r for p, q, r in zip(x, b, b2))
    first, second = seal_nr(key, nonce, ad, a + b + x), seal_nr(key, nonce, ad, z + b2 + y)
    forged = first.ciphertext[:16] + second.ciphertext[16:]
    assert open_nr(key, nonce, ad, forged, first.tag) == a + b2 + y
    assert a + b2 + y not in (a + b + x, z + b2 + y)
    # The same splice under distinct nonces is rejected.
    other = seal_nr(key, rng.randbytes(8), ad, z + b2 + y)
    with pytest.raises(AuthenticationError):
        open_nr(key, nonce, ad, first.ciphertext[:16] + other.ciphertext[16:], first.tag)


def test_mr_nonce_reuse_reveals_only_equality():
    # Under one (key, nonce, AD), equal inputs seal to equal envelopes, and one flipped bit anywhere
    # in the plaintext gives a new tag, hence a new keystream: no block of the two envelopes matches.
    rng = random.Random(0x3A11)
    key, nonce, ad = TweakableKey(rng.randbytes(16), AES128), rng.randbytes(15), rng.randbytes(13)
    pt = rng.randbytes(41)
    sealed = seal_mr(key, nonce, ad, pt)
    assert seal_mr(key, nonce, ad, pt) == sealed
    for bit in (0, 7, 8 * 16, 8 * len(pt) - 1):
        flipped = seal_mr(key, nonce, ad, (int.from_bytes(pt, "big") ^ 1 << bit).to_bytes(len(pt), "big"))
        assert flipped.tag != sealed.tag
        assert all(
            flipped.ciphertext[i : i + 16] != sealed.ciphertext[i : i + 16] for i in range(0, len(pt) + 7, 16)
        )


def test_aes128_mr_tags_one_bit_apart_swap_keystream_blocks():
    # Keystream block j runs the seed 0x00 || nonce under the tweak tag XOR j, so under one nonce
    # the tags t and t ^ 1 give blocks 0 and 1 each other's keystream.  No search is needed.
    rng = random.Random(0x13)
    key, nonce, tag = TweakableKey(rng.randbytes(16), AES128), rng.randbytes(15), rng.randbytes(16)
    near = (int.from_bytes(tag, "big") ^ 1).to_bytes(16, "big")
    a, b = (b"".join(aead._mr_stream(key, nonce, t, [bytes(32)], 2)) for t in (tag, near))
    assert a[16:] == b[:16] and a[:16] == b[16:] and a[:16] != a[16:]


def test_toy_mr_repeated_nonce_leaks_the_plaintext_xor_of_tags_in_one_window():
    # Two 15-block messages under one nonce whose 16-bit tags differ by d < 16 (all but the low
    # ceil(log2 15) = 4 bits agree) put block j of one and block j ^ d of the other under one
    # keystream tweak: there the ciphertext XOR is the padded plaintext XOR.  A pair of random tags
    # does so with probability 2^(4 - 16), so 256 messages hold Poisson(32,640 * 2^-12 = 7.97) such
    # pairs.  The bounds 1..20, fixed before the run, fail a correct scheme with probability
    # 4.4e-4; a rate 16 times higher (mean 127.5) passes them with probability below 1e-31.
    rng = random.Random(13)
    key, nonce = TweakableKey(rng.randbytes(2), TOY), rng.randbytes(1)
    padded = [rng.randbytes(28) + b"\x02\x02" for _ in range(256)]
    sealed = [seal_mr(key, nonce, b"", p[:-2]) for p in padded]
    tags = [int.from_bytes(s.tag, "big") for s in sealed]

    def leaks(a, b, d):
        """The positions j where block j of a and block j ^ d of b have the plaintext XOR as ciphertext XOR."""
        ca, cb, pa, pb = sealed[a].ciphertext, sealed[b].ciphertext, padded[a], padded[b]
        shared = [(2 * j, 2 * (j ^ d)) for j in range(15) if j ^ d < 15]
        xor = composed_tweakable.xor
        return [i for i, k in shared if xor(ca[i : i + 2], cb[k : k + 2]) == xor(pa[i : i + 2], pb[k : k + 2])]

    window = [(a, b, tags[a] ^ tags[b]) for a in range(256) for b in range(a + 1, 256) if tags[a] ^ tags[b] < 16]
    assert 1 <= len(window) <= 20
    for a, b, d in window:
        # Every shared position leaks: 14 of the 15, or all 15 if the tags are equal.
        assert len(leaks(a, b, d)) == (15 if d == 0 else 14)
    # Outside a window no two keystream tweaks meet, and the same check finds nothing.
    d = tags[0] ^ tags[1]
    assert d >= 16 and leaks(0, 1, d & 15) == []


def _nibble_flip_forgeries(spec):
    """Per mode: forgeries and opens over 40 seeded messages, each with one ciphertext nibble flipped outside
    its last block and the 16 values of each tag nibble tried, and how many nibbles each forgery changed."""
    rng = random.Random(0x70F)
    key = TweakableKey(rng.randbytes(2), spec)
    forged, opens, changed = dict.fromkeys(AeadMode, 0), dict.fromkeys(AeadMode, 0), []
    for mode in AeadMode:
        for _ in range(40):
            nonce, ad, pt = rng.randbytes(nonce_length(mode, 2)), rng.randbytes(3), rng.randbytes(rng.randrange(2, 30))
            sealed = SEAL[mode](key, nonce, ad, pt)
            ct, at = bytearray(sealed.ciphertext), rng.randrange(len(sealed.ciphertext) - 2)  # not the last block
            ct[at] ^= rng.randrange(1, 16) << rng.choice((0, 4))
            tag = int.from_bytes(sealed.tag, "big")
            guesses = [(tag & ~(15 << 4 * i) | v << 4 * i).to_bytes(2, "big") for i in range(4) for v in range(16)]
            for guess in guesses:
                opens[mode] += 1
                try:
                    got = OPEN[mode](key, nonce, ad, bytes(ct), guess)
                except AuthenticationError:
                    continue
                diff = int.from_bytes(got, "big") ^ int.from_bytes(pt, "big")
                assert len(got) == len(pt)
                changed.append([diff >> 4 * k & 15 != 0 for k in range(2 * len(pt))].count(True))
                forged[mode] += 1
                break
    return forged, opens, changed


def test_toy_nr_forges_from_one_nibble_flip_and_sixteen_guesses_per_tag_nibble():
    # TOY's limit: its rounds substitute each nibble and rotate by whole nibbles, so under any key it is
    # four independent 4-bit permutations.  In nr a flip of one ciphertext nibble outside the padded last
    # block changes one candidate nibble, so one checksum nibble and one tag nibble: trying the 16 values
    # of each tag nibble, 64 opens at most, forges every message.  A 16-bit PRP would accept each guess
    # with probability 2^-16: about 0.06 expected forgeries over the 3,626 guesses of this seed (1,066 in
    # nr, 2,560 in mr).  mr resists: its keystream tweak is the whole tag, so a new tag changes every
    # candidate block.
    forged, opens, changed = _nibble_flip_forgeries(TOY)
    assert forged == {AeadMode.NONCE_RESPECTING: 40, AeadMode.MISUSE_RESISTANT: 0} and changed == [1] * 40
    assert opens[AeadMode.NONCE_RESPECTING] <= 40 * 64 and opens[AeadMode.MISUSE_RESISTANT] == 40 * 64


def test_nibble_flip_forgery_fails_on_a_cipher_that_diffuses():
    # The same attack on SMALL_PRESENT, whose rounds mix every nibble: a flipped nibble changes its whole
    # candidate block, so each guess is accepted with probability about 2^-16.  Fixed before the run: about
    # 2,560 guesses per mode expect 0.04 forgeries, so at most 1 per mode passes, a false-alarm rate of
    # about 8e-4 per mode.  TOY's 40 of 40 in nr fails this bound.
    forged, opens, _ = _nibble_flip_forgeries(composed_tweakable.SMALL_PRESENT)
    assert all(n <= 1 for n in forged.values()), forged
    assert min(opens.values()) >= 40 * 64 - 63, opens  # every guess of every message but a forged one ran


def test_random_guesses_pass_the_tag_check_at_about_two_to_the_minus_sixteen(monkeypatch):
    """Random (ciphertext, tag) guesses on SMALL_PRESENT: the tag check passes each with probability 2^-16.

    Per mode, 6,144 guesses of 1 to 3 random ciphertext blocks and a random 2-byte tag, under one seeded key,
    nonce and AD.  A guess is accepted only if its tag verifies and its candidate's padding is valid, about
    2^-24 for a random candidate, so the tag check is counted where ``_release`` makes it.  Fixed before the
    run: at most 2 tag matches per mode.  At 2^-16 a mode expects 0.094, so more than 2 is a false alarm
    with probability about 1.3e-4 per mode.  The same sample catches a check as weak as 8 bits (expected 24)
    for certain and one of 10 bits (expected 6) with probability 0.94, but one of 12 bits (expected 1.5) only
    with probability 0.19: the bound shows a gross weakening, not the last few bits.
    """
    calls, matches, accepted = dict.fromkeys(AeadMode, 0), dict.fromkeys(AeadMode, 0), dict.fromkeys(AeadMode, 0)

    def compare_digest(expected, tag):  # counts for the mode of the loop below
        match = hmac.compare_digest(expected, tag)
        calls[mode] += 1
        matches[mode] += match
        return match

    monkeypatch.setattr(aead, "hmac", SimpleNamespace(compare_digest=compare_digest))
    rng = random.Random(0x6E55)
    key = TweakableKey(rng.randbytes(2), composed_tweakable.SMALL_PRESENT)
    for mode in AeadMode:
        nonce, ad = rng.randbytes(nonce_length(mode, 2)), rng.randbytes(3)
        for _ in range(6144):
            try:
                OPEN[mode](key, nonce, ad, rng.randbytes(2 * rng.randrange(1, 4)), rng.randbytes(2))
            except AuthenticationError:
                continue
            accepted[mode] += 1
    assert calls == dict.fromkeys(AeadMode, 6144)  # every guess reached the tag check
    assert all(n <= 2 for n in matches.values()), matches
    assert all(accepted[mode] <= matches[mode] for mode in AeadMode), (accepted, matches)


# --- length limits, checked before any block work ---------------------------

TOY_KEY = TweakableKey(b"\x42\x24", TOY)


class _HugeMessage:
    """Stands in for a message too large to allocate: only its length is real."""

    def __init__(self, size: int) -> None:
        self.size = size

    def __len__(self) -> int:
        return self.size


@pytest.fixture
def tweak_calls(monkeypatch):
    """Names of the tweakable-core calls the aead module makes from now on."""
    calls = []
    for name in ("_encrypt", "_decrypt"):
        real = getattr(aead, name)
        monkeypatch.setattr(aead, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
    # The counter must see every tweakable call of a round trip, or "no calls" proves nothing.
    for mode in AeadMode:
        sealed = SEAL[mode](TOY_KEY, b"\x5a", b"ad", b"pt")
        OPEN[mode](TOY_KEY, b"\x5a", b"ad", sealed.ciphertext, sealed.tag)
    assert {"_encrypt", "_decrypt"} <= set(calls)
    calls.clear()
    return calls


@pytest.mark.parametrize(
    "mode,seal_calls,open_calls,squeezes,seal_runs,open_runs",
    [(AeadMode.NONCE_RESPECTING, 1, 2, 5, 3, 3), (AeadMode.MISUSE_RESISTANT, 3, 3, 7, 4, 4)],
)
def test_tweakable_calls_per_message(mode, seal_calls, open_calls, squeezes, seal_runs, open_runs, tweak_calls,
                                     monkeypatch):
    # One call per data dependency.  nr seal: the checksum and the AD are known before any block is
    # encrypted, so the message, the tag block and the AD blocks go in one call.  nr open: the
    # checksum needs the decrypted plaintext, so the tag block and the AD follow in a second call.
    # mr seal: the AD and message sums in one call, then the tag block they feed, then the keystream
    # the tag seeds.  mr open: the keystream, then the sums over its output, then the tag block.
    sealed = SEAL[mode](TOY_KEY, b"\x5a", b"ad", b"pt")
    assert len(tweak_calls) == seal_calls
    tweak_calls.clear()
    OPEN[mode](TOY_KEY, b"\x5a", b"ad", sealed.ciphertext, sealed.tag)
    assert len(tweak_calls) == open_calls
    # Each call is one cipher batch, with one SHAKE128 squeeze per block (2 message, 2 AD and in nr 1
    # tag block; in mr the 2 message blocks twice and 1 tag block): the work the benchmark's tracer
    # counts.  With arenas of two blocks every longer pass goes in runs: more batches, the same squeezes.
    work, real_shake = [], tweakable.shake128
    monkeypatch.setattr(tweakable, "shake128", lambda data, size: work.append("squeeze") or real_shake(data, size))

    def spy(batch):
        return lambda keys, blocks: work.append("batch") or batch(keys, blocks)

    key = TweakableKey(TOY_KEY.master_key, CipherSpec("spy", 2, 2, spy(TOY.encrypt), spy(TOY.decrypt)))
    for lanes, batches in ((block_cipher._LANES, (seal_calls, open_calls)), (2, (seal_runs, open_runs))):
        monkeypatch.setattr(block_cipher, "_LANES", lanes)
        work.clear()
        sealed = SEAL[mode](key, b"\x5a", b"ad", b"pt")
        counts = [(work.count("squeeze"), work.count("batch"))]
        work.clear()
        assert OPEN[mode](key, b"\x5a", b"ad", sealed.ciphertext, sealed.tag) == b"pt"
        counts.append((work.count("squeeze"), work.count("batch")))
        assert counts == [(squeezes, batches[0]), (squeezes, batches[1])], lanes


# Block lengths and their limits: (key, counters, AD blocks or None where out of reach).  The nr nonce
# is min(8, n // 2) bytes.  At n=1 and 2 it leaves no counter byte, so the counter is byte 0's low
# nibble, 0..15; n=4 has a one-byte counter, and n=9 and 10 four bytes, which no real message in a
# test reaches.  The AD index takes the n-1 bytes after the prefix: one block at n=1.
SHORT_BLOCKS = {
    "xor1": (TweakableKey(b"\x42", composed_tweakable.xor_spec(1)), 16, 1),
    "toy": (TOY_KEY, 16, 256),
    "xor4": (TweakableKey(b"\x42", composed_tweakable.xor_spec(4)), 256, None),
    "xor9": (TweakableKey(b"\x42", composed_tweakable.xor_spec(9)), 2**32, None),
    "xor10": (TweakableKey(b"\x42", composed_tweakable.xor_spec(10)), 2**32, None),
}


@pytest.mark.parametrize("spec", SHORT_BLOCKS)
@pytest.mark.parametrize("mode", list(AeadMode), ids=lambda mode: mode.value)
def test_toy_length_limit(mode, spec, tweak_calls, monkeypatch):
    # nr allows one padded block fewer than there are counters (its tag takes the last one), mr all of them
    key, counters, ad_blocks = SHORT_BLOCKS[spec]
    n = key.cipher.block_len
    blocks = counters - 1 if mode is AeadMode.NONCE_RESPECTING else counters
    rng = random.Random(n)
    nonce, ad = rng.randbytes(nonce_length(mode, n)), rng.randbytes(n * (ad_blocks or 1) - 1)
    if counters <= 256:
        pt = rng.randbytes(n * blocks - 1)
        sealed = SEAL[mode](key, nonce, ad, pt)
        assert OPEN[mode](key, nonce, ad, sealed.ciphertext, sealed.tag) == pt
        pt, ct, tag = pt + b"!", sealed.ciphertext + bytes(n), sealed.tag
    else:
        # Past reach, a stand-in with only a length, let past the entry's byte view as in
        # test_aes128_length_limit: at the limit the entry check passes and it fails on first use.
        monkeypatch.setattr(block_cipher, "_bytes", lambda data: data)
        with pytest.raises(TypeError):
            SEAL[mode](key, nonce, ad, _HugeMessage(n * blocks - 1))
        with pytest.raises(TypeError):
            OPEN[mode](key, nonce, ad, _HugeMessage(n * blocks), bytes(n))
        pt, ct, tag = _HugeMessage(n * blocks), _HugeMessage(n * (blocks + 1)), bytes(n)
    tweak_calls.clear()
    too_long = f"message of {blocks + 1} padded blocks exceeds the {mode.value} limit of {blocks}$"
    with pytest.raises(ValueError, match=too_long):
        SEAL[mode](key, nonce, ad, pt)
    with pytest.raises(ValueError, match=too_long):
        OPEN[mode](key, nonce, ad, ct, tag)
    if ad_blocks:
        too_long = f"associated data of {ad_blocks + 1} padded blocks exceeds the limit of {ad_blocks}$"
        with pytest.raises(ValueError, match=too_long):
            SEAL[mode](key, nonce, ad + b"!", pt[:-1])
        with pytest.raises(ValueError, match=too_long):
            OPEN[mode](key, nonce, ad + b"!", ct[:-n], tag)
    assert tweak_calls == []


@pytest.mark.parametrize(
    "mode,max_blocks", [(AeadMode.NONCE_RESPECTING, 2**56 - 1), (AeadMode.MISUSE_RESISTANT, 2**56)]
)
def test_aes128_length_limit(mode, max_blocks, tweak_calls, monkeypatch):
    nonce = bytes(nonce_length(mode))
    # The stand-in has a length but no buffer, so the entry refuses it before any block work.  Let past
    # the entry's byte view (block_cipher._bytes), it shows where the length check draws its line.
    with pytest.raises(TypeError, match="bytes-like"):
        SEAL[mode](ZERO_KEY, nonce, b"", _HugeMessage(16))
    monkeypatch.setattr(block_cipher, "_bytes", lambda data: data)
    # at the limit the entry check passes and the stand-in fails on first use
    with pytest.raises(TypeError):
        SEAL[mode](ZERO_KEY, nonce, b"", _HugeMessage(16 * max_blocks - 1))
    with pytest.raises(TypeError):
        OPEN[mode](ZERO_KEY, nonce, b"", _HugeMessage(16 * max_blocks), bytes(16))
    with pytest.raises(ValueError, match="limit"):
        SEAL[mode](ZERO_KEY, nonce, b"", _HugeMessage(16 * max_blocks))
    with pytest.raises(ValueError, match="limit"):
        OPEN[mode](ZERO_KEY, nonce, b"", _HugeMessage(16 * (max_blocks + 1)), bytes(16))
    assert tweak_calls == []


@pytest.mark.parametrize(
    "mode,seal_mib,open_mib", [(AeadMode.NONCE_RESPECTING, 2.00, 2.00), (AeadMode.MISUSE_RESISTANT, 2.00, 2.00)]
)
def test_one_mib_peak_memory(mode, seal_mib, open_mib):
    # Peaks of traced allocations, in MiB, plus 1%.  A seal holds its message's run outputs and
    # then their join, which it returns; an open holds the candidate's, then the bytearray it copies
    # them into, and at the end the bytes copy it returns.  A pass that only sums keeps no outputs,
    # and a run's cut, tweaks and outputs are gone by the end.  An nr seal folds the plaintext's
    # checksum an arena at a time.  A second message-sized copy kept alive would add 1 MiB, and
    # one 32 KiB run output kept to the end 0.03 MiB, which the 1% slack already refuses.
    nonce, ad, pt = bytes(nonce_length(mode)), bytes(13), bytes(1 << 20)
    SEAL[mode](ZERO_KEY, nonce, ad, b"")  # this thread's EVP context, outside the measurement
    tracemalloc.start()
    try:
        sealed = SEAL[mode](ZERO_KEY, nonce, ad, pt)
        seal_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        opened = OPEN[mode](ZERO_KEY, nonce, ad, sealed.ciphertext, sealed.tag)
        open_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert opened == pt
    assert seal_peak <= 1.01 * seal_mib * 2**20
    assert open_peak <= 1.01 * open_mib * 2**20


def _peaks(mode, args, ct, tag):
    """The traced allocation peaks of a seal of ``args`` and an open of ``ct`` and ``tag``, above what was held."""
    peaks = []
    tracemalloc.start()
    try:
        for op, op_args in ((SEAL[mode], args), (OPEN[mode], [*args[:2], ct, tag])):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            op(ZERO_KEY, *op_args)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("mode", list(AeadMode))
def test_buffer_inputs_peak_as_bytes_inputs_do(mode):
    # A contiguous buffer is read through a flat view, never copied: a seal and an open of a bytearray, a
    # memoryview or a 2-D view peak within 1% of the same bytes.  The message is cut into three runs;
    # a copy of it would add about 14% (its 64 KiB over a peak of about 0.45 MiB), as a non-contiguous
    # view, the one input that is copied, shows.
    nonce, ad, pt = bytes(nonce_length(mode)), bytes(13), bytes(range(256)) * 256 + bytes(16)
    SEAL[mode](ZERO_KEY, nonce, ad, b"")  # this thread's EVP context, outside the measurement
    sealed = SEAL[mode](ZERO_KEY, nonce, ad, pt)
    plain = [nonce, ad, pt, sealed.ciphertext, sealed.tag]
    seal_peak, open_peak = _peaks(mode, plain[:3], *plain[3:])
    kinds = {
        "bytearray": bytearray, "memoryview": lambda x: memoryview(bytearray(x)),
        "rows": lambda x: memoryview(bytearray(x)).cast("B", (1, len(x))),
    }
    for kind, wrap in kinds.items():
        views = [wrap(x) for x in plain]
        peaks = _peaks(mode, views[:3], *views[3:])
        assert peaks[0] <= 1.01 * seal_peak and peaks[1] <= 1.01 * open_peak, kind
    strided = []
    for x in plain:
        wide = bytearray(2 * len(x))
        wide[::2] = x
        strided.append(memoryview(wide)[::2])
    assert _peaks(mode, strided[:3], *strided[3:])[0] >= seal_peak + len(pt)


@pytest.mark.parametrize("mode", list(AeadMode))
def test_no_fold_takes_more_than_one_arena(mode, monkeypatch):
    # A message cut into runs folds its nr checksum and every pass's sums an arena at a time, so no
    # integer it builds outgrows an arena: an nr seal of 1 MiB used to fold its whole plaintext into one.
    sizes, real = [], aead._fold
    monkeypatch.setattr(aead, "_fold", lambda data, n: sizes.append(len(data)) or real(data, n))
    nonce, ad, pt = bytes(nonce_length(mode)), bytes(13), bytes(range(256)) * (32 * block_cipher._LANES // 256) + b"!"
    sealed = SEAL[mode](ZERO_KEY, nonce, ad, pt)
    assert OPEN[mode](ZERO_KEY, nonce, ad, sealed.ciphertext, sealed.tag) == pt
    assert len(sizes) > 4 and max(sizes) <= block_cipher._ARENA


# --- parts in, bytes out: the caller's buffers are never written -----------

def _spy_spec(types):
    """AES-128 under another name, recording the type of every block batch its two functions are handed."""

    def spy(batch):
        return lambda keys, blocks: types.append(type(blocks)) or batch(keys, blocks)

    return CipherSpec("spy", 16, 16, spy(AES128.encrypt), spy(AES128.decrypt))


def words(data):
    """A view of ``data`` in 4-byte items where its length allows, so that its ``len`` counts items, not bytes."""
    return memoryview(data).cast("I") if len(data) % 4 == 0 else memoryview(data)


def rows(data):
    """A 2-D view of ``data`` as one row, so that its ``len`` is 1 whatever its byte count; empty data stays 1-D."""
    return memoryview(data).cast("B", (1, len(data))) if data else memoryview(data)


@pytest.mark.parametrize("kind", [bytearray, memoryview, words, rows], ids=lambda t: t.__name__)
@pytest.mark.parametrize("mode", list(AeadMode))
def test_bytes_like_inputs_give_the_bytes_result(mode, kind):
    # Every seal and open takes any bytes-like plaintext or ciphertext, AD, nonce and tag, measured in bytes.
    rng = random.Random(0xB1)
    nonce, ad = rng.randbytes(nonce_length(mode)), rng.randbytes(21)
    for pt in (b"", rng.randbytes(15), rng.randbytes(40), rng.randbytes(16 * 3000 + 7)):
        sealed = SEAL[mode](ZERO_KEY, nonce, ad, pt)
        plain = [nonce, ad, pt, sealed.ciphertext, sealed.tag]
        views = [kind(bytearray(x)) for x in plain]
        # Every input of this kind, then each one alone among bytes inputs.
        for args in [views] + [plain[:i] + [views[i]] + plain[i + 1 :] for i in range(5)]:
            assert SEAL[mode](ZERO_KEY, *args[:3]) == sealed
            assert OPEN[mode](ZERO_KEY, *args[:2], *args[3:]) == pt
        bad_tag = kind(bytearray(composed_tweakable.xor(sealed.tag, b"\x01" + bytes(15))))
        with pytest.raises(AuthenticationError):
            OPEN[mode](ZERO_KEY, *views[:2], views[3], bad_tag)


@pytest.mark.parametrize("size", [40, 16 * 4097], ids=["40B", "three-runs"])
@pytest.mark.parametrize("mode", list(AeadMode))
def test_one_buffer_leaves_the_callers_buffers_and_hands_out_bytes(mode, size):
    # A seal, an open and a rejected open write only their own buffer: the caller's bytearrays keep
    # their bytes, what comes back is exactly bytes, and the cipher is handed only bytes batches.
    rng = random.Random(size)
    types = []
    key = TweakableKey(bytes(16), _spy_spec(types))
    nonce, ad, pt = (bytearray(rng.randbytes(k)) for k in (nonce_length(mode), 13, size))
    held = [bytes(nonce), bytes(ad), bytes(pt)]
    sealed = SEAL[mode](key, nonce, ad, pt)
    assert type(sealed.ciphertext) is bytes and type(sealed.tag) is bytes
    assert sealed == SEAL[mode](TweakableKey(bytes(16), AES128), *held)
    ct, tag = bytearray(sealed.ciphertext), bytearray(sealed.tag)
    opened = OPEN[mode](key, nonce, ad, ct, tag)
    assert type(opened) is bytes and opened == pt
    bad_tag = bytearray(tag)
    bad_tag[0] ^= 1
    with pytest.raises(AuthenticationError):
        OPEN[mode](key, nonce, ad, ct, bad_tag)
    assert [bytes(nonce), bytes(ad), bytes(pt)] == held
    assert (bytes(ct), bytes(tag), bytes(bad_tag[1:])) == (sealed.ciphertext, sealed.tag, sealed.tag[1:])
    assert types and set(types) == {bytes}
