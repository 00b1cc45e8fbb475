#!/usr/bin/env python3
"""Run tier-1 against each mutant of the table: every one must be killed.

``MUTANTS`` is the one table.  A row names a file, an exact old text that
must occur once in it, the new text, and what the mutant breaks.  For each
row the tree is copied into a temporary directory, the old text replaced,
and tier-1 run there as ``python -m pytest -x -q`` with the copy's ``src``
on ``PYTHONPATH``.  A mutant is killed when tier-1 fails, survives when it
passes, and is an error when its old text does not occur exactly once, so
a refactor of the code under a row must update the row.  The unmutated
copy runs first and must pass, or no verdict would mean anything.  Prints
each verdict, its time and the first failing test, writes every result as
JSON, and exits 1 on any survivor or error::

    python scripts/mutants.py                       # the repository, results in mutants.json
    python scripts/mutants.py --root ../old-checkout --json old.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    id: str
    path: str
    old: str
    new: str
    breaks: str


_BC, _AEAD, _TW = "src/tortoise/block_cipher.py", "src/tortoise/aead.py", "src/tortoise/tweakable.py"

MUTANTS = [
    # The TOY and AES-128 kernels, _lanes, --help and CRLF corpora.
    Mutant("M1", _BC, "s = hi[s >> 8] ^ lo[s & 255] ^ k2", "s = hi[s >> 8] ^ lo[s & 255] ^ k1",
           "TOY kernel: round 2 keyed by k1"),
    Mutant("M2", _BC, 'struct.unpack(f">{count}H", blocks)', 'struct.unpack(f"<{count}H", blocks)',
           "TOY kernel: blocks unpacked little-endian"),
    Mutant("M3", _BC, "schedule(key[0] << 8 | key[1])", "schedule(key[1] << 8 | key[0])",
           "TOY kernel: key bytes swapped"),
    Mutant("M4", _BC, "s ^= k0", "s ^= k0 if count > 1 else 0", "TOY kernel: no whitening in a one-lane batch"),
    Mutant("M5", _BC, "zip(keys, struct", "zip([keys[0]] * count, struct",
           "TOY kernel: every lane keyed by the first entry"),
    Mutant("M6", _BC, "schedule(key[0] << 8 | key[1])", "schedule(key[-2] << 8 | key[-1])",
           "TOY kernel: key read from the entry's tail"),
    Mutant("M7", _BC, 'return struct.pack(f">{count}H", *out)',
           'return struct.pack(f">{count}H", *(out[::-1] if count == 4 else out))',
           "TOY kernel: a 4-lane batch's output reversed"),
    Mutant("R1", _BC, "s = hi[s >> 8] ^ lo[s & 255] ^ rk", "s = lo[s >> 8] ^ hi[s & 255] ^ rk",
           "TOY reference: tables swapped"),
    Mutant("R2", _BC, "for rk in rks[1:]:", "for rk in rks[1:-1]:", "TOY reference: last round skipped"),
    Mutant("D1", _BC, "lambda key: _toy_round_keys(key)[::-1]", "lambda key: _toy_round_keys(key)",
           "TOY decrypt: forward key order"),
    Mutant("A1", _BC, "for at, key in zip(lanes, keys):", "for at, key in zip(lanes, [keys[0]] * len(keys)):",
           "AES kernel: every lane keyed by the first entry"),
    Mutant("A2", _BC, "inits = (lib.EVP_DecryptInit, lib.EVP_EncryptInit)",
           "inits = (lib.EVP_EncryptInit, lib.EVP_EncryptInit)", "AES kernel: decryption through EVP_EncryptInit"),
    Mutant("L1", _BC, "if len(key) < key_len:", "if len(key) < key_len - 1:", "_lanes: a 15-byte entry accepted"),
    Mutant("L2", _BC, "if len(keys) * block_len != len(blocks):", "if len(keys) * block_len > len(blocks):",
           "_lanes: more block bytes than keys accepted"),
    Mutant("S1", "src/tortoise/cli.py", "return EXIT_OK if exc.code == 0 else EXIT_USAGE", "return EXIT_USAGE",
           "--help exits 1"),
    Mutant("S2", "src/tortoise/kat.py", "enumerate(text.splitlines(), start=1)",
           'enumerate(text.split("\\n"), start=1)', "parse_kat_text: a CRLF line keeps its CR"),
    # No release on failure, one error for tag and padding, limits checked on entry.
    Mutant("I1", _AEAD, "if 1 <= k <= n and data[-k:] == bytes([k]) * k:",
           "if 1 <= k and data[-k:] == bytes([k]) * k:", "_release: a pad byte above n accepted"),
    Mutant("I2", _AEAD, "acc ^= _fold(", "acc |= _fold(", "_pass: run sums ORed, not XORed"),
    Mutant("I3", _TW, 'b"".join([out[kl:] for out in outs])', 'b"".join([out[kl - 1 : -1] for out in outs])',
           "_squeeze: each mask cut one byte early"),
    Mutant("I4", _BC, "arena[:n] = _ZEROS[:n]", "pass", "AES kernel: the arena not zeroed after a pass"),
    Mutant("I5", _AEAD, "m = len(data) // n + (not opening)", "m = len(data) // n + 1",
           "_check: one block too many when opening"),
    # What the modes' hand compositions, now composed_tweakable.seal, and the merged nr/mr test pairs kill.
    Mutant("H1", _AEAD, "_mr_stream_tweaks(tag, r, n)", "_mr_stream_tweaks(tag, range(len(r)), n)",
           "mr keystream: each run's counters restart at 0"),
    Mutant("H2", _AEAD, "_release(expected, tag, data, n)", "_release(expected, tag, data, n + 1)",
           "open_nr: a pad byte of n + 1 accepted"),
    Mutant("H3", _AEAD, "[data, *ads], m, a), tag, data, n)", "[data, *ads], m, a), tag, data, n + 1)",
           "open_mr: a pad byte of n + 1 accepted"),
    Mutant("H4", _AEAD, "if 1 <= k <= n and data[-k:] == bytes([k]) * k:", "if 1 <= k <= n:",
           "_release: the padding's other bytes unchecked"),
    Mutant("P1", _AEAD, r'seed = b"\x00" + nonce', r'seed = b"\x01" + nonce',
           "mr keystream: input block 0x01 || nonce"),
    Mutant("P2", _AEAD, "if hmac.compare_digest(expected, tag):", "if True:", "_release: the tag unchecked"),
    Mutant("P3", _AEAD, "if len(tag) != n:", "if len(tag) > n:", "_check: a short tag accepted"),
    Mutant("P4", _TW, "return key.cipher.decrypt(outs, _xor(blocks, masks))",
           "return key.cipher.decrypt(outs, blocks)", "tweakable decrypt: the mask not removed"),
    Mutant("P5", _BC, "_toy(_INV_HI, _INV_LO,", "_toy(_INV_LO, _INV_HI,", "TOY decrypt: inverse tables swapped"),
    # Faults that the parent's hand compositions and pairs let through: they took the library's tweak encoders,
    # and only the mr half of the bit-flip pair flipped tag bits, which in mr also change the keystream.
    Mutant("T1", _AEAD, '(t ^ j).to_bytes(block_len, "big")', '(t + j).to_bytes(block_len, "big")',
           "mr keystream tweak: the tag plus the counter"),
    Mutant("T2", _AEAD, "hmac.compare_digest(expected, tag)", "hmac.compare_digest(expected[:-1], tag[:-1])",
           "_release: the tag's last byte unchecked"),
]

_COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")
_TIMEOUT = 1800  # seconds for one tier-1 run; a hang counts as a kill


def _tier1(tree: Path) -> tuple[bool, str]:
    """Whether tier-1 passes in ``tree``, and its first failure or else its last output line."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    try:
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, timeout=_TIMEOUT)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {_TIMEOUT} s"
    lines = done.stdout.splitlines() or done.stderr.splitlines() or [f"exit code {done.returncode}"]
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode == 0, failed[0] if failed else lines[-1]


def _apply(root: Path, mutant: Mutant | None, tmp: str) -> Path:
    """A copy of ``root`` in ``tmp`` with ``mutant`` applied, if any."""
    tree = Path(tmp) / "tree"
    shutil.copytree(root, tree, ignore=_COPY_IGNORE)
    if mutant is not None:
        path = tree / mutant.path
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
    return tree


def run(root: Path, mutants: list[Mutant]) -> list[dict]:
    """Each mutant's result; raises ``RuntimeError`` if tier-1 fails on the unmutated tree."""
    with tempfile.TemporaryDirectory() as tmp:
        passed, detail = _tier1(_apply(root, None, tmp))
    if not passed:
        raise RuntimeError(f"tier-1 fails without a mutant: {detail}")
    results = []
    for mutant in mutants:
        started = time.perf_counter()
        path = root / mutant.path
        count = path.read_text(encoding="utf-8").count(mutant.old) if path.is_file() else 0
        if count != 1:
            verdict, detail = "error", f"old text occurs {count} times in {mutant.path}"
        else:
            with tempfile.TemporaryDirectory() as tmp:
                passed, detail = _tier1(_apply(root, mutant, tmp))
            verdict = "survived" if passed else "killed"
        seconds = time.perf_counter() - started
        print(f"{mutant.id:<3} {verdict:<8} {seconds:6.1f} s  {mutant.breaks}: {detail}", flush=True)
        results.append({**mutant._asdict(), "verdict": verdict, "seconds": round(seconds, 1), "detail": detail})
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="the tree to mutate (default: this repository)")
    parser.add_argument("--json", type=Path, default=Path("mutants.json"), help="where to write the results")
    args = parser.parse_args(argv)
    try:
        results = run(args.root.resolve(), MUTANTS)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    args.json.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    bad = [r["id"] for r in results if r["verdict"] != "killed"]
    print(f"{len(results) - len(bad)}/{len(results)} killed" + (f"; not killed: {' '.join(bad)}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
