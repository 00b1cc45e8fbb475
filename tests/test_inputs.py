"""Wrong types and lengths at the public entry points: a documented error, no block work, no key bytes shown."""

import mmap
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tortoise import tweakable
from tortoise.aead import AeadMode, AuthenticationError, SealedMessage, nonce_length, open_mr, open_nr, seal_mr, seal_nr
from tortoise.block_cipher import AES128, TOY, CipherSpec
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


# --- one bytes-like rule at every entry ----------------------------------------

def _words(buf):
    """A view of ``buf`` in 4-byte items, where its length allows (else 2-byte, else 1-byte): ``len`` counts items."""
    width = next(w for w in (4, 2, 1) if len(buf) % w == 0)
    return memoryview(buf).cast("BHI"[width // 2])


def _rows(buf):
    """A 2-D view of ``buf``: two rows where its length is even, else one, so that ``len`` counts rows."""
    rows = 2 if len(buf) % 2 == 0 else 1
    return memoryview(buf).cast("B", (rows, len(buf) // rows))


def _strided(buf):
    """A non-contiguous view that reads ``buf``'s bytes, with a filler byte after each in the buffer behind it."""
    wide = bytearray(b"\xa5" * (2 * len(buf)))
    wide[::2] = buf
    return memoryview(wide)[::2]


# Each kind but mmap wraps, or for bytes copies, a fresh bytearray of the input's bytes; an mmap is filled before
# the call and closed after it, which only works if the entry kept no view of it.
_WRAP = {
    "bytes": bytes, "bytearray": lambda buf: buf, "memoryview": memoryview, "words": _words, "rows": _rows,
    "strided": _strided,
}
INPUT_KINDS = [*_WRAP, "mmap"]


def _typed_spec(seen):
    """A from_blocks plug-in of 4-byte blocks that records the type of every key and block its block pair gets."""

    def encrypt_block(key, block):
        seen.extend([type(key), type(block)])
        return bytes(b ^ key[0] for b in block[1:] + block[:1])

    def decrypt_block(key, block):
        seen.extend([type(key), type(block)])
        return bytes(b ^ key[0] for b in block[-1:] + block[:-1])

    return CipherSpec.from_blocks("typed", 4, 1, encrypt_block, decrypt_block)


def _entries(seen):
    """Every public entry that takes bytes-like input: name -> (call of its bytes-like arguments, those arguments)."""
    rng = random.Random(0x0E)
    typed = TweakableKey(b"\x5c", _typed_spec(seen))
    entries = {}
    modes = ((AeadMode.NONCE_RESPECTING, seal_nr, open_nr), (AeadMode.MISUSE_RESISTANT, seal_mr, open_mr))
    for mode, seal, open_ in modes:
        nonce, ad, pt = rng.randbytes(nonce_length(mode)), rng.randbytes(20), rng.randbytes(40)
        sealed = seal(KEY, nonce, ad, pt)
        entries[seal.__name__] = (lambda *a, _f=seal: _f(KEY, *a), [nonce, ad, pt])
        entries[open_.__name__] = (lambda *a, _f=open_: _f(KEY, *a), [nonce, ad, sealed.ciphertext, sealed.tag])
    tweaks, blocks = [rng.randbytes(16) for _ in range(3)], rng.randbytes(48)
    for many in (tweak_encrypt_many, tweak_decrypt_many):
        entries[many.__name__] = (lambda *a, _f=many: _f(KEY, list(a[:-1]), a[-1]), [*tweaks, blocks])
    entries["TweakableKey"] = (lambda raw: TweakableKey(raw, AES128).master_key, [MASTER])
    for spec, k, n in ((AES128, 16, 16), (TOY, 2, 2), (typed.cipher, 1, 4)):
        keys = [rng.randbytes(k + n) for _ in range(5)]
        for name, batch in (("encrypt", spec.encrypt), ("decrypt", spec.decrypt)):
            entries[f"{spec.name}.{name}"] = (lambda b, _f=batch, _k=keys: _f(_k, b), [rng.randbytes(5 * n)])
    # A typed plug-in under the modes too, whose block pair sees what the core hands the batch.
    nonce, ad, pt = rng.randbytes(2), rng.randbytes(6), rng.randbytes(9)
    entries["seal_nr(from_blocks)"] = (lambda *a: seal_nr(typed, *a), [nonce, ad, pt])
    return entries


ENTRY_NAMES = list(_entries([]))


@pytest.mark.parametrize("kind", INPUT_KINDS)
@pytest.mark.parametrize("entry", ENTRY_NAMES)
def test_every_entry_takes_every_bytes_like_input_as_its_bytes(entry, kind):
    # The same bytes in any buffer give the result of bytes: a view measured in items or rows counts its bytes,
    # a non-contiguous view reads its bytes and not the gaps, and no input is written.  from_blocks hands its
    # block pair bytes whatever it is given, and what comes back is bytes.
    seen = []
    call, args = _entries(seen)[entry]
    want = call(*args)
    seen.clear()
    buffers = [bytearray(arg) for arg in args]
    if kind == "mmap":
        maps = [mmap.mmap(-1, len(arg)) for arg in args]
        for m, arg in zip(maps, args):
            m.write(arg)
        got = call(*maps)
        assert [m[:] for m in maps] == args
        for m in maps:
            m.close()  # a BufferError here would mean the entry kept a view of its input
    else:
        inputs = [_WRAP[kind](buf) for buf in buffers]
        got = call(*inputs)
        assert [bytes(view) for view in inputs] == args
        if kind == "strided":
            assert all(view.obj[1::2] == b"\xa5" * len(arg) for view, arg in zip(inputs, args))
    assert buffers == args
    assert got == want
    assert all(type(x) is bytes for x in (vars(got).values() if isinstance(got, SealedMessage) else [got]))
    assert set(seen) == ({bytes} if "typed" in entry or "from_blocks" in entry else set())
