"""Tortoise: turn any block cipher into an AEAD.

A generic adapter derives a tweakable cipher from any fixed-size block
cipher (per-tweak subkey and mask squeezed from SHAKE128), and two AEAD
modes sit on top: a fast nonce-respecting mode and a deterministic
nonce-misuse-resistant mode.
"""

from .aead import (
    OPEN,
    SEAL,
    AeadMode,
    AuthenticationError,
    SealedMessage,
    nonce_length,
    open_mr,
    open_nr,
    seal_mr,
    seal_nr,
)
from .block_cipher import AES128, CIPHERS, TOY, CipherSpec, get_cipher
from .tweakable import TweakableKey

__version__ = "0.1.0"

__all__ = [
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
