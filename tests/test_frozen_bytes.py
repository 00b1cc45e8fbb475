"""Frozen bytes of passes cut into runs and of the layouts at nine block lengths.

The KAT corpora hold one-pass records only: a message of thousands of
blocks would be a line of hundreds of KB of hex.  So this table holds the
SHA-256 of ``ciphertext || tag`` instead, one row per case.  Row
``<cipher>-<mode>-<m>-<a>`` seals ``m`` padded message blocks under ``a``
padded AD blocks, its key, nonce, AD and plaintext drawn from
``random.Random("frozen-bytes:<row>")``; ``xor<n>`` is
``composed_tweakable.xor_spec(n)``.

- ``aes128`` rows: a pass of one arena (2,048 blocks) or less is one call,
  a longer one goes in runs; 6,251 blocks is a 100,000-byte file, and the
  ``10-2100`` rows cut a run inside the AD.
- ``xor<n>`` rows: 1 block, 3 blocks, and the most the layout allows (up to
  2,049), at block lengths where ``aead._layout`` or ``aead._tweaks`` takes
  another branch, nonce width or counter width.

Each digest was written in once, after the library and
``composed_tweakable.seal`` agreed on it.  Tier-1 does not run the
reference; ``PYTHONPATH=src python tests/test_frozen_bytes.py`` checks the
table against it again.
"""

import hashlib
import random

import pytest

import composed_tweakable
from tortoise.aead import OPEN, SEAL, AeadMode, nonce_length
from tortoise.block_cipher import AES128
from tortoise.tweakable import TweakableKey

DIGESTS = {
    "aes128-nr-2047-2": "6a0234b0e43a72d36f1edf5f78e58b2bd6df57e1842f719977f7385ab702cc22",
    "aes128-nr-2048-2": "05217550760cf1630d441a7b133c3e8cdf6b3e15da5d0b2b3eaf38beaf5b7ab1",
    "aes128-nr-2049-2": "2388f1a82285346342addf5ea45ea91ae0dbc701b5570d8217e19cca2af9bace",
    "aes128-nr-4097-2": "08651946a84490fb7fca734d9a38f9803733016fbe4b88686c9cb647a586a00b",
    "aes128-nr-6251-2": "cb5facec8a699cf1dc1bcc394311d49af07ede4cd32c93e9b0411c824d78a663",
    "aes128-nr-10-2100": "9f53696defd24de675616926d6e002044cabbd5d7a3654dce3ff14b4c2cf707e",
    "aes128-mr-2047-2": "a3e4eb876aa35b2ec1c47291284136944a12b42fbd116846ce2702e51146be26",
    "aes128-mr-2048-2": "fc6bb2584298ffdeb601c7c319669da5404716d96779438f7e53112c225e20f0",
    "aes128-mr-2049-2": "03117d32e914caaecc91e0c72c6f73713f52f5255d777a550a2f3f2d92882e22",
    "aes128-mr-4097-2": "cdd7d94322cced17797b0209c3c54bbc1b8a52802ebd9380fdb965d2e205b5e5",
    "aes128-mr-6251-2": "bad3d5809191454aa9885384cfaadbdbbc834f8d278840689fb11c00562753bf",
    "aes128-mr-10-2100": "1d48389d14b3caaaac20cf8ef3d7afbfe841db5c53295a59005708f7218d896c",
    "xor1-nr-1-1": "e5d45607018a2ae39675f9b3e1f96b6df93b8223ee2e37cc4ffa99d5ad4b184b",
    "xor1-nr-3-1": "2d2b2236eb3d030152af51f4ab52149a85ee12a2057004a391c294db709ff0f2",
    "xor1-nr-15-1": "35a96866cb4f9d31b3d6e205b30193f49496b21766400b783804ed95af688dec",
    "xor1-mr-1-1": "9b43fb1cdd996bc71935441b5cdc08e8387d5694d4dcdf7265a3f2c880b2a489",
    "xor1-mr-3-1": "32b8d6dc92efce240e750091fc24042520273aa4494a79074ec5895a921a221b",
    "xor1-mr-16-1": "97cd33cfe90811f8ed2b906947c6031d0eadd438a32d14b897e83035ee3faadc",
    "xor2-nr-1-2": "42d6f5c99157a2b977d733cf9f1a7bf083b72d86ce98a306bd554e93859b95eb",
    "xor2-nr-3-2": "5e312bafe47a0add299058574bc4852bb2eb0eb526769f443078f306df20b1cd",
    "xor2-nr-15-2": "d6cfbb262ed4e40d734a26f7c2d340ad3e4a2b168e65e71e6fa91808cf0edeff",
    "xor2-mr-1-2": "86498218a9e572a939704d4773ede0ddf9d91ec1b0f99d82434bdb6d7697d5cf",
    "xor2-mr-3-2": "d5ee72270050a2ae568ccc55bcd6ed75b8eca9234e993d170879695961c04393",
    "xor2-mr-16-2": "124a71361cf272b0981a291c5be61cba3a711a5e727c19b76413b4dddcbd6d1a",
    "xor4-nr-1-2": "4e78663440f7f03ddc11d22e347e4f2ff9c8afa50f172d79aaac08d9c31c3a75",
    "xor4-nr-3-2": "0f63eaa1d018a819d2cd00a40a0bf0795df99fc14e4875552e440545d6324807",
    "xor4-nr-255-2": "2cc3d67acbd0887530086366d38a78200180896ef412915b0a3ce3b435a1e128",
    "xor4-mr-1-2": "ada51f6c6f6a525091ff68a1a7ca1ee3b3676936dc38a0f3829bf13a88ffbdc9",
    "xor4-mr-3-2": "69ba8a51df8a06e837e46bdcc399a3e84c6fbe2e97001df012df53db8fb08cf8",
    "xor4-mr-256-2": "cb6b0b830ee4a6ee7216a1a1fb884416265a9759d14bed2a64894564bdd31b30",
    "xor8-nr-1-2": "a233b9220b9cc06359f373a325630d09eee5f637d12d6d19583deed3a235fda6",
    "xor8-nr-3-2": "e9f6f9143cd4eeee004f2c95b5bfcce4e5b0d8662a6416ada18fdba44e761535",
    "xor8-nr-2049-2": "f78701367db585f56046b0f5f5143bed52d649e1432e5501e0f262f94f06ab8a",
    "xor8-mr-1-2": "2afdfc2ace386cc7a12daf5ee0b538185c303549196ca5f7e3420d42121ad61c",
    "xor8-mr-3-2": "9369e04bd4060ad9c3891186e865c7b88f658091b748cbb7f75efdb0256cb31f",
    "xor8-mr-2049-2": "b705fffe76b27870579be68db17bc14ec0fad04905d5d1856a8432d89b83be29",
    "xor9-nr-1-2": "dc669a0c36478d063e37eba1800a7089a07dba1978f4480d64c7d7ddb4e2d162",
    "xor9-nr-3-2": "1c9537bb2a7275a110ecc0ebefbcb3783dbcd1115b5da5f43ad1beaf837ed89d",
    "xor9-nr-2049-2": "fba4a30b9788129ea2bb825718d78d244473c7f45321b145d6201dc12f62dd6c",
    "xor9-mr-1-2": "9fa7263c90f72f3a3d9b7610737809d35315e96f8c1750ab374c1a62b3869eed",
    "xor9-mr-3-2": "362c8c5f7b0efaff98da532f8f73447119ea3e20533d40368f063a12152e2e71",
    "xor9-mr-2049-2": "1a7f116bec2d8e37d5dda8a1e86a17294c9446862c45c62d0959360ae619cf3b",
    "xor10-nr-1-2": "1b276382c2acd345f6907eed185010f0bafc71eb82da4950653a655ffd7a23c4",
    "xor10-nr-3-2": "45e1539ef8719770cae371819114ac24ceb6f0469028bc008f7c8eff16ce7b05",
    "xor10-nr-2049-2": "ef89c3260366d58add9276203c6067d80e05a8dc28993f7aaec7b8d65ee213a9",
    "xor10-mr-1-2": "853112925fb3217931bd57c5e2c19e3dc5afee831c07232bf5aa456b46088e6b",
    "xor10-mr-3-2": "f628e49dfb0bf51dde55256007671267d839dfdecc4133c65ab133c332357ee0",
    "xor10-mr-2049-2": "98a2eb61a3d9f4ffe2e51a79dc951582b9f7a0a15991b75f8700d4d07880cdab",
    "xor15-nr-1-2": "f97416bdb9544350df723eb0cbb8ac3f1f7acc443670cefebe1eddc8146a2c23",
    "xor15-nr-3-2": "f8f27c99db7307166b5ff5bad3f38446342f26efa245ee9cc817b0c62b56ae90",
    "xor15-nr-2049-2": "bbd9405f0696222413b567d8993e45affd22d8a38acab38d7c3999f081b5ba87",
    "xor15-mr-1-2": "cc6e499463ced93db718ce58a4685c92eb19a3e3901f8430ea54098b899ff330",
    "xor15-mr-3-2": "e3046e66a6b863fb1c3a43893b728be44f34b11812aa7b364c389ccd9bb17bc3",
    "xor15-mr-2049-2": "dc4c61df2b55aee6b9cff2af619ac0b46c0d0fe876ec859178e436a4fa814060",
    "xor16-nr-1-2": "3babd088e89908c21d867481e7e1bf0c53ab8cbed38ce9de0568bf6914fd584d",
    "xor16-nr-3-2": "40de2f85ed4a0e22e8138038c45aaf22f5c049329ac0e10c82a9b06767ceedbe",
    "xor16-nr-2049-2": "132b13da54817f3db71a9fc55c8bcc765a8cf7aedeb674e1d02e7430949f8739",
    "xor16-mr-1-2": "cb1499c2de8fd8914fd6def5fd82921759f6d85873f1c9a6e5a6677c7ebbef62",
    "xor16-mr-3-2": "5a8e0f050f4b83fbce30cb6cf0e0f82e80de0bcfa2188b74b3be2e13eda75bf6",
    "xor16-mr-2049-2": "ad3e5d92fef74417df0bff33a2fd1776f59ba526b12f4d65d15b714d17f1a704",
    "xor32-nr-1-2": "8fecf00d7de5dccac6a139f4f0e491f948028dae052e12bfeb9913bb1ffae02c",
    "xor32-nr-3-2": "833db197d91e27159c7e7e25c7f2ecb625b6838e479cc4aba2f5f8c63675f252",
    "xor32-nr-2049-2": "5295ff8ed53e12afd2b384e83f2a96e65e300e99b71b7ef889f38d224b9b3a57",
    "xor32-mr-1-2": "e11525c29f4ec230e0d408426f95ddcd2b726bdfcb270ac40fe2fd7b40cb2255",
    "xor32-mr-3-2": "3240b103b95ad24a37d24e62335682bf2cba2b6bb192af5fa714327f7039df04",
    "xor32-mr-2049-2": "acf727ea00afe1d6b95ce384cfd30767e99026ce474b1a29e2b6621a340a6141",
}


def _case(row):
    """The mode, key, nonce, AD and plaintext of ``row``."""
    cipher, mode, m, a = row.split("-")
    spec = AES128 if cipher == "aes128" else composed_tweakable.xor_spec(int(cipher[3:]))
    mode, n, m, a = AeadMode(mode), spec.block_len, int(m), int(a)
    rng = random.Random(f"frozen-bytes:{row}")
    key = TweakableKey(rng.randbytes(spec.key_len), spec)
    nonce = rng.randbytes(nonce_length(mode, n))
    ad = rng.randbytes((a - 1) * n + rng.randrange(n))
    pt = rng.randbytes((m - 1) * n + rng.randrange(n))
    return mode, key, nonce, ad, pt


@pytest.mark.parametrize("row", DIGESTS)
def test_frozen_bytes(row):
    mode, key, nonce, ad, pt = _case(row)
    sealed = SEAL[mode](key, nonce, ad, pt)
    assert hashlib.sha256(sealed.ciphertext + sealed.tag).hexdigest() == DIGESTS[row]
    assert OPEN[mode](key, nonce, ad, sealed.ciphertext, sealed.tag) == pt


if __name__ == "__main__":
    differ = []
    for row, digest in DIGESTS.items():
        mode, key, nonce, ad, pt = _case(row)
        ct, tag = composed_tweakable.seal(mode, key, nonce, ad, composed_tweakable.pad(pt, key.cipher.block_len))
        if hashlib.sha256(ct + tag).hexdigest() != digest:
            differ.append(row)
    print(f"{len(DIGESTS) - len(differ)}/{len(DIGESTS)} rows agree with composed_tweakable.seal", *differ)
    raise SystemExit(1 if differ else 0)
