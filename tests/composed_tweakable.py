"""The tweakable cipher written out by hand, used only as a cross-check oracle.

One hashlib SHAKE128 squeeze of ``master_key || tweak`` gives the subkey
and then the mask; the block goes through the spec's own block function
and the mask is XORed on.  Nothing from ``tortoise.tweakable`` is used
except the key type, so a fault in its batch path cannot agree with this.
"""

import hashlib


def _squeeze(key, tweak):
    spec = key.cipher
    assert len(tweak) == spec.block_len
    out = hashlib.shake_128(key.master_key + tweak).digest(spec.key_len + spec.block_len)
    return out[: spec.key_len], out[spec.key_len :]


def _xor(a, b):
    return bytes(x ^ y for x, y in zip(a, b, strict=True))


def encrypt(key, tweak, block):
    """Encrypt one block of ``key.cipher`` under the permutation ``tweak`` selects."""
    subkey, mask = _squeeze(key, tweak)
    return _xor(key.cipher.encrypt_block(subkey, block), mask)


def decrypt(key, tweak, block):
    """Invert :func:`encrypt` for the same key and tweak."""
    subkey, mask = _squeeze(key, tweak)
    return key.cipher.decrypt_block(subkey, _xor(block, mask))
