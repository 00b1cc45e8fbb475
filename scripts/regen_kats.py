#!/usr/bin/env python3
"""Regenerate the committed known-answer corpora.

``CORPORA`` below is the corpora's one record of provenance, the cipher,
seed and record-pair count of each: running this script must reproduce
kats/*.kat byte for byte (test_acceptance criterion 8 and
tests/test_kat.py, which reads ``CORPORA`` from here, check exactly that).
So re-seeding a corpus is one edit here, then a run.  Each corpus is
written by ``tortoise kat generate``, called in process, so a failed
write leaves no partial file; the script exits with the first non-zero
exit code the command returns.
"""

import sys
from pathlib import Path

from tortoise import cli

CORPORA = {
    "aes128.kat": ("aes128", 7, 10),
    "toy.kat": ("toy", 11, 10),
}


def main() -> int:
    kats_dir = Path(__file__).resolve().parent.parent / "kats"
    kats_dir.mkdir(exist_ok=True)
    for name, (cipher, seed, count) in CORPORA.items():
        argv = ["kat", "generate", str(kats_dir / name), "--seed", str(seed), "--count", str(count), "--cipher", cipher]
        code = cli.main(argv)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
