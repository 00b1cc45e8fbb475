"""The tweakable cipher written out by hand, used only as a cross-check oracle.

One hashlib SHAKE128 squeeze of ``master_key || tweak`` gives the subkey
and then the mask; the block goes through a one-lane call of the spec's
``encrypt`` or ``decrypt`` under the subkey alone, and the mask is XORed
on, except that ``aes128`` blocks go through :data:`CRYPTOGRAPHY_AES128`,
so that no check against this oracle runs the library's EVP kernel.  The
PKCS#7 padding and the associated-data sum are written out here too.  Nothing from ``tortoise.tweakable`` or
``tortoise.aead`` is used except the key type, so a fault in the library's
batch path, padding or AD tweaks cannot agree with this.  :func:`xor_spec`
gives a cheap block cipher of any block length for tests that sweep it,
and :func:`aes_spec` AES from ``cryptography`` (the ``test`` extra).
"""

import hashlib

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from tortoise.block_cipher import CipherSpec


def aes_encrypt_block(key, block):
    """One AES block from ``cryptography``, of the key length ``algorithms.AES`` takes from ``key``."""
    return Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(block)


def aes_decrypt_block(key, block):
    """The inverse of :func:`aes_encrypt_block`."""
    return Cipher(algorithms.AES(key), modes.ECB()).decryptor().update(block)


def aes_spec(key_len):
    """AES with ``key_len``-byte keys from ``cryptography``, a plug-in built from its block pair with ``from_blocks``."""

    def encrypt_block(key, block):
        assert len(key) == key_len
        return aes_encrypt_block(key, block)

    def decrypt_block(key, block):
        assert len(key) == key_len
        return aes_decrypt_block(key, block)

    return CipherSpec.from_blocks(f"aes{8 * key_len}", 16, key_len, encrypt_block, decrypt_block)


# AES-128 apart from the library's EVP kernel, which runs every AES128 batch, a single block included.
CRYPTOGRAPHY_AES128 = aes_spec(16)


def _block_cipher(key):
    return CRYPTOGRAPHY_AES128 if key.cipher.name == "aes128" else key.cipher


def _squeeze(key, tweak):
    spec = key.cipher
    assert len(tweak) == spec.block_len
    out = hashlib.shake_128(key.master_key + tweak).digest(spec.key_len + spec.block_len)
    return out[: spec.key_len], out[spec.key_len :]


def xor(a, b):
    """XOR of two byte strings of the same length."""
    return bytes(x ^ y for x, y in zip(a, b, strict=True))


def pad(data, n):
    """PKCS#7: k bytes of value k, 1 <= k <= n, so aligned data gains a whole block."""
    k = n - len(data) % n
    return data + bytes([k]) * k


def encrypt(key, tweak, block):
    """Encrypt one block of ``key.cipher`` under the permutation ``tweak`` selects."""
    subkey, mask = _squeeze(key, tweak)
    return xor(_block_cipher(key).encrypt([subkey], block), mask)


def decrypt(key, tweak, block):
    """Invert :func:`encrypt` for the same key and tweak."""
    subkey, mask = _squeeze(key, tweak)
    return _block_cipher(key).decrypt([subkey], xor(block, mask))


def ad_sum(key, ad):
    """XOR of the padded associated-data blocks, block i encrypted under the tweak 0x20 || i."""
    n = key.cipher.block_len
    padded, acc = pad(ad, n), bytes(n)
    for i in range(len(padded) // n):
        acc = xor(acc, encrypt(key, b"\x20" + i.to_bytes(n - 1, "big"), padded[i * n : i * n + n]))
    return acc


def xor_spec(n):
    """A one-byte-key spec of block length ``n``: XOR every byte with the key, then rotate left by one byte.

    Weak, but a bijection for every key, which is all the modes ask of a block pair.
    """

    def encrypt_block(key, block):
        x = bytes(b ^ key[0] for b in block)
        return x[1:] + x[:1]

    def decrypt_block(key, block):
        return bytes(b ^ key[0] for b in block[-1:] + block[:-1])

    return CipherSpec.from_blocks(f"xor{n}", n, 1, encrypt_block, decrypt_block)
