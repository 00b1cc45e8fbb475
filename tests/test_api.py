import pytest

import tortoise
from tortoise import aead, block_cipher, tweakable
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


# Each module's exports, pinned so that no test-only helper becomes public again unnoticed.
MODULE_EXPORTS = {
    aead: [
        "AeadMode",
        "AuthenticationError",
        "SealedMessage",
        "SEAL",
        "OPEN",
        "nonce_length",
        "seal_nr",
        "open_nr",
        "seal_mr",
        "open_mr",
    ],
    tweakable: ["TweakableKey", "tweak_encrypt_many", "tweak_decrypt_many"],
    block_cipher: [
        "CipherSpec",
        "AES128",
        "TOY",
        "CIPHERS",
        "get_cipher",
        "toy_encrypt_block",
        "toy_decrypt_block",
    ],
}


@pytest.mark.parametrize("module", MODULE_EXPORTS, ids=lambda m: m.__name__)
def test_module_exports_exactly_its_public_surface(module):
    assert module.__all__ == MODULE_EXPORTS[module]
    for name in module.__all__:
        assert getattr(module, name) is not None


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
