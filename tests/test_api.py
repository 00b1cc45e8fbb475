import tortoise
from tortoise import aead
from tortoise.aead import OPEN, SEAL, AeadMode

PUBLIC = [
    "AES128",
    "TOY",
    "CIPHERS",
    "CipherSpec",
    "get_cipher",
    "TweakableKey",
    "AeadMode",
    "AuthenticationError",
    "SealedMessage",
    "SEAL",
    "OPEN",
    "seal_nr",
    "open_nr",
    "seal_mr",
    "open_mr",
    "nonce_length",
    "__version__",
]


def test_package_exports_exactly_the_public_surface():
    assert tortoise.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(tortoise, name) is not None


def test_mode_tables_hold_the_mode_functions():
    assert set(SEAL) == set(OPEN) == set(AeadMode)
    assert SEAL[AeadMode.NONCE_RESPECTING] is aead.seal_nr
    assert OPEN[AeadMode.NONCE_RESPECTING] is aead.open_nr
    assert SEAL[AeadMode.MISUSE_RESISTANT] is aead.seal_mr
    assert OPEN[AeadMode.MISUSE_RESISTANT] is aead.open_mr
    assert tortoise.SEAL is SEAL and tortoise.OPEN is OPEN


def test_sealed_message_carries_only_ciphertext_and_tag():
    key = tortoise.TweakableKey(bytes(16), tortoise.AES128)
    sealed = SEAL[AeadMode.MISUSE_RESISTANT](key, bytes(15), b"", b"x")
    assert list(vars(sealed)) == ["ciphertext", "tag"]
