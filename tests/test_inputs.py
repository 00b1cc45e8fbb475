"""Wrong types and lengths at the public entry points: a documented error, no block work, no key bytes shown."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tortoise import tweakable
from tortoise.aead import AeadMode, AuthenticationError, SealedMessage, nonce_length, open_mr, open_nr, seal_mr, seal_nr
from tortoise.block_cipher import AES128, TOY
from tortoise.tweakable import TweakableKey, tweak_decrypt_many, tweak_encrypt_many

MASTER = random.Random(0x5EC).randbytes(16)
KEY = TweakableKey(MASTER, AES128)

_WORDS = st.binary(max_size=64).map(lambda b: memoryview(b[: len(b) // 4 * 4]).cast("I"))
# Not bytes-like at all, then bytes-like but measured in 4-byte items.
_JUNK = st.one_of(st.text(max_size=20), st.none(), st.lists(st.integers(0, 255), max_size=20), st.integers(), _WORDS)
_VALUE = st.one_of(st.binary(max_size=48), st.binary(max_size=48).map(bytearray), _JUNK)
_TWEAKS = st.one_of(st.lists(_VALUE, max_size=3), _JUNK)
# Mostly a well-formed key, so that the data arguments are driven too; else a raw key or none.
_KEYS = st.sampled_from([KEY, KEY, KEY, MASTER, None])


def _shows(text: str, key: bytes) -> bool:
    """Whether ``text`` holds ``key``'s bytes: raw, as a ``bytes`` repr shows them, or in hex."""
    return key.hex() in text.lower() or repr(key)[2:-1] in text or key.decode("latin-1") in text


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_wrong_inputs_return_or_raise_a_documented_error_before_any_work(data):
    op = data.draw(st.sampled_from(["seal", "open", "tweak", "key", "nonce_length"]))
    key = MASTER
    with mock.patch.object(tweakable, "shake128", wraps=tweakable.shake128) as squeeze:
        try:
            if op == "seal":
                seal, tkey = data.draw(st.sampled_from([seal_nr, seal_mr])), data.draw(_KEYS)
                assert isinstance(seal(tkey, data.draw(_VALUE), data.draw(_VALUE), data.draw(_VALUE)), SealedMessage)
                assert tkey is KEY
            elif op == "open":
                open_, tkey = data.draw(st.sampled_from([open_nr, open_mr])), data.draw(_KEYS)
                args = [data.draw(_VALUE) for _ in range(4)]
                try:
                    assert isinstance(open_(tkey, *args), bytes)
                except AuthenticationError as exc:
                    assert squeeze.called and not _shows(f"{exc}{exc!r}", key)
                assert tkey is KEY
            elif op == "tweak":
                many, tkey = data.draw(st.sampled_from([tweak_encrypt_many, tweak_decrypt_many])), data.draw(_KEYS)
                tweaks, blocks = data.draw(_TWEAKS), data.draw(_VALUE)
                # A bytes-like tweak counts its bytes, as a bytes-like block does.
                assert many(tkey, tweaks, blocks) == many(KEY, [bytes(t) for t in tweaks], bytes(blocks))
                assert tkey is KEY
            elif op == "key":
                key = data.draw(st.one_of(st.binary(min_size=16, max_size=16), _VALUE))
                cipher = data.draw(st.sampled_from([AES128, TOY, "aes128", None]))
                made = TweakableKey(key, cipher)
                assert type(made.master_key) is bytes and made.master_key == bytes(key)
                assert len(made.master_key) < 4 or not _shows(repr(made), made.master_key)
                assert cipher in (AES128, TOY)
            else:
                mode = data.draw(st.one_of(st.sampled_from(list(AeadMode)), st.sampled_from(["nr", "mr"]), _JUNK))
                block_len = data.draw(st.one_of(st.integers(-2, 300), st.floats(1, 32), _JUNK))
                width = nonce_length(mode, block_len)
                assert isinstance(mode, AeadMode) and type(block_len) is int and 1 <= block_len <= 255
                assert 0 <= width < block_len
        except (TypeError, ValueError) as exc:
            assert not squeeze.called
            # A key's bytes, where there are enough of them to tell apart from the message's own text.
            if isinstance(key, (bytes, bytearray, memoryview)) and len(bytes(key)) >= 4:
                assert not _shows(f"{exc}{exc!r}", bytes(key))


def test_key_is_typed_on_entry_and_never_printed():
    assert MASTER.hex() not in repr(KEY) and repr(MASTER) not in repr(KEY)
    with pytest.raises(TypeError):
        TweakableKey("a" * 16, AES128)
    # The key keeps a copy: changing the caller's bytearray changes nothing.
    raw = bytearray(MASTER)
    key = TweakableKey(raw, AES128)
    before = seal_nr(key, bytes(8), b"", b"payload")
    raw[0] ^= 1
    assert seal_nr(key, bytes(8), b"", b"payload") == before
    assert key == KEY and type(key.master_key) is bytes


@pytest.mark.parametrize("many", [tweak_encrypt_many, tweak_decrypt_many])
def test_tweaks_are_bytes_like_and_checked_before_any_squeeze(many):
    with mock.patch.object(tweakable, "shake128", wraps=tweakable.shake128) as squeeze:
        with pytest.raises(TypeError):
            many(KEY, [bytes(16), "a" * 16], bytes(32))
        # 16 items of 4 bytes: a 64-byte tweak.
        with pytest.raises(ValueError):
            many(KEY, [memoryview(bytes(64)).cast("I")], bytes(16))
        assert not squeeze.called
    assert many(KEY, [bytearray(16), memoryview(bytes(16))], bytes(32)) == many(KEY, [bytes(16)] * 2, bytes(32))


@pytest.mark.parametrize("mode", ["nr", "mr", None, 0])
def test_nonce_length_refuses_a_non_mode(mode):
    with pytest.raises(TypeError, match="AeadMode"):
        nonce_length(mode)


@pytest.mark.parametrize("ct_len", [0, 20, 32])
@pytest.mark.parametrize("open_", [open_nr, open_mr])
def test_an_open_without_a_tag_is_refused_before_any_squeeze(open_, ct_len):
    nonce = bytes(nonce_length(AeadMode.NONCE_RESPECTING if open_ is open_nr else AeadMode.MISUSE_RESISTANT))
    with mock.patch.object(tweakable, "shake128", wraps=tweakable.shake128) as squeeze:
        # An open is checked as an open whatever its tag: a missing tag is a wrong type, not a seal.
        with pytest.raises(TypeError):
            open_(KEY, nonce, b"", bytes(ct_len), None)
        # With a tag, a ciphertext that is not a positive number of blocks is refused by length.
        if ct_len % 16 or not ct_len:
            with pytest.raises(ValueError, match="ciphertext"):
                open_(KEY, nonce, b"", bytes(ct_len), bytes(16))
        assert not squeeze.called
        with pytest.raises(AuthenticationError):
            open_(KEY, nonce, b"", bytes(32), bytes(16))


def test_cipher_key_and_block_length_are_typed_before_any_squeeze():
    with mock.patch.object(tweakable, "shake128", wraps=tweakable.shake128) as squeeze:
        for cipher in ("aes128", None, AES128.encrypt):
            with pytest.raises(TypeError, match="CipherSpec"):
                TweakableKey(MASTER, cipher)
        for key in (None, MASTER, AES128):
            for seal in (seal_nr, seal_mr):
                with pytest.raises(TypeError, match="TweakableKey"):
                    seal(key, bytes(8 if seal is seal_nr else 15), b"", b"payload")
            for open_ in (open_nr, open_mr):
                with pytest.raises(TypeError, match="TweakableKey"):
                    open_(key, bytes(8 if open_ is open_nr else 15), b"", bytes(16), bytes(16))
            for many in (tweak_encrypt_many, tweak_decrypt_many):
                with pytest.raises(TypeError, match="TweakableKey"):
                    many(key, [bytes(16)], bytes(16))
        for mode in AeadMode:
            for block_len in (0, -1, 256):
                with pytest.raises(ValueError, match=r"block_len must be in \[1, 255\]"):
                    nonce_length(mode, block_len)
            for block_len in (16.0, "16", None):
                with pytest.raises(TypeError):
                    nonce_length(mode, block_len)
            assert nonce_length(mode, 1) == 0 and nonce_length(mode, 255) >= 8
        assert not squeeze.called
