#!/usr/bin/env python3
"""Regenerate the committed known-answer corpora.

``CORPORA`` below is the corpora's one record of provenance, the cipher,
seed and record-pair count of each: running this script must reproduce
kats/*.kat byte for byte (test_acceptance criterion 8 and
tests/test_kat.py, which reads ``CORPORA`` from here, check exactly that).
So re-seeding a corpus is one edit here, then a run.
"""

from pathlib import Path

from tortoise.kat import generate_kats, serialize_records

CORPORA = {
    "aes128.kat": ("aes128", 7, 10),
    "toy.kat": ("toy", 11, 10),
}


def main() -> None:
    kats_dir = Path(__file__).resolve().parent.parent / "kats"
    kats_dir.mkdir(exist_ok=True)
    for name, (cipher, seed, count) in CORPORA.items():
        path = kats_dir / name
        # Bytes, not text: a text write would turn each "\n" into the platform's line ending.
        data = serialize_records(generate_kats(seed, count, cipher)).encode()
        changed = not path.exists() or path.read_bytes() != data
        path.write_bytes(data)
        print(f"{path}: {2 * count} records ({'updated' if changed else 'unchanged'})")


if __name__ == "__main__":
    main()
