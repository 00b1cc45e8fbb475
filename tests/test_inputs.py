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
                seal = data.draw(st.sampled_from([seal_nr, seal_mr]))
                assert isinstance(seal(KEY, data.draw(_VALUE), data.draw(_VALUE), data.draw(_VALUE)), SealedMessage)
            elif op == "open":
                open_ = data.draw(st.sampled_from([open_nr, open_mr]))
                args = [data.draw(_VALUE) for _ in range(4)]
                try:
                    assert isinstance(open_(KEY, *args), bytes)
                except AuthenticationError as exc:
                    assert squeeze.called and not _shows(f"{exc}{exc!r}", key)
            elif op == "tweak":
                many = data.draw(st.sampled_from([tweak_encrypt_many, tweak_decrypt_many]))
                tweaks, blocks = data.draw(_TWEAKS), data.draw(_VALUE)
                # A bytes-like tweak counts its bytes, as a bytes-like block does.
                assert many(KEY, tweaks, blocks) == many(KEY, [bytes(t) for t in tweaks], bytes(blocks))
            elif op == "key":
                key = data.draw(st.one_of(st.binary(min_size=16, max_size=16), _VALUE))
                made = TweakableKey(key, data.draw(st.sampled_from([AES128, TOY])))
                assert type(made.master_key) is bytes and made.master_key == bytes(key)
                assert len(made.master_key) < 4 or not _shows(repr(made), made.master_key)
            else:
                mode = data.draw(st.one_of(st.sampled_from(list(AeadMode)), st.sampled_from(["nr", "mr"]), _JUNK))
                width = nonce_length(mode, data.draw(st.integers(1, 32)))
                assert isinstance(mode, AeadMode) and width >= 0
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
