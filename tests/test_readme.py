"""The README's Python examples, run as written, so the plug-in recipe cannot go stale."""

import re
from pathlib import Path

import pytest

import tortoise
from tortoise import OPEN, SEAL, TweakableKey, nonce_length
from tortoise.kat import parse_kat_text

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def readme():
    """The namespace left by every ```python block of the README, run in order in one namespace."""
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) >= 4  # the two library examples, the AES-256 plug-in and the aes128 fallback
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    return namespace


@pytest.mark.parametrize("mode", list(tortoise.AeadMode))
def test_aes256_plugin_seals_and_opens(readme, mode):
    key = TweakableKey(bytes(range(32)), readme["AES256"])
    nonce, pt = bytes(nonce_length(mode)), b"a message of more than one block"
    sealed = SEAL[mode](key, nonce, b"ad", pt)
    assert len(sealed.tag) == 16 and len(sealed.ciphertext) == 48
    assert OPEN[mode](key, nonce, b"ad", sealed.ciphertext, sealed.tag) == pt


def test_aes128_fallback_plugin_gives_the_builtin_bytes(readme):
    plugin = readme["AES128"]
    assert plugin is not tortoise.AES128 and plugin.name == "aes128"
    records, errors = parse_kat_text((ROOT / "kats" / "aes128.kat").read_text())
    assert not errors
    for mode in tortoise.AeadMode:
        rec = next(r for r in records if r.mode is mode)
        for spec in (plugin, tortoise.AES128):
            sealed = SEAL[mode](TweakableKey(rec.key, spec), rec.nonce, rec.ad, rec.pt)
            assert (sealed.ciphertext, sealed.tag) == (rec.ct, rec.tag)
