"""File encryption CLI and the on-disk envelope format.

Envelope layout (all integers big-endian)::

    magic   4 bytes  b"TORT"
    version 1 byte   0x01
    mode    1 byte   0x00 nonce-respecting, 0x01 misuse-resistant
    nonce_len 1 byte 8 for mode 0x00, 15 for mode 0x01
    nonce   nonce_len bytes
    tag     16 bytes
    ct_len  8 bytes
    ct      ct_len bytes (positive multiple of 16)

Associated data is bound to the message but not stored; the same bytes
must be supplied again at decryption.

Exit codes: 0 success, 1 usage/IO/malformed input or a cipher backend
that cannot run (such as ``aes128`` without libcrypto), 2 authentication
failure, 3 known-answer verification failure.
"""

from __future__ import annotations

import argparse
import os
import secrets
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .aead import OPEN, SEAL, AeadMode, AuthenticationError, nonce_length
from .block_cipher import AES128, CIPHERS
from .kat import Report, differential_check, generate_kats, parse_kat_text, serialize_records, verify_kats
from .tweakable import TweakableKey

__all__ = ["Envelope", "EnvelopeError", "pack_envelope", "parse_envelope", "main"]

MAGIC = b"TORT"
VERSION = 1

_MODE_TO_BYTE = {AeadMode.NONCE_RESPECTING: 0x00, AeadMode.MISUSE_RESISTANT: 0x01}
_BYTE_TO_MODE = {v: k for k, v in _MODE_TO_BYTE.items()}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AUTH = 2
EXIT_KAT = 3


class EnvelopeError(ValueError):
    """The input does not parse as a well-formed envelope."""


@dataclass(frozen=True)
class Envelope:
    mode: AeadMode
    nonce: bytes
    tag: bytes
    ciphertext: bytes


def _check_lengths(mode: AeadMode, nonce_len: int, tag_len: int, ct_len: int) -> None:
    """The envelope's one field-length rule, for both packing and parsing."""
    n = AES128.block_len
    if nonce_len != nonce_length(mode, n):
        raise EnvelopeError(f"nonce must be {nonce_length(mode, n)} bytes for mode {mode.value}, got {nonce_len}")
    if tag_len != n:
        raise EnvelopeError(f"tag must be {n} bytes, got {tag_len}")
    if ct_len == 0 or ct_len % n:
        raise EnvelopeError(f"ciphertext must be a positive multiple of {n} bytes, got {ct_len}")


def pack_envelope(env: Envelope) -> bytes:
    _check_lengths(env.mode, len(env.nonce), len(env.tag), len(env.ciphertext))
    return (
        MAGIC
        + bytes([VERSION, _MODE_TO_BYTE[env.mode], len(env.nonce)])
        + env.nonce
        + env.tag
        + len(env.ciphertext).to_bytes(8, "big")
        + env.ciphertext
    )


def parse_envelope(blob: bytes) -> Envelope:
    if len(blob) < 7 or blob[:4] != MAGIC:
        raise EnvelopeError("bad magic")
    if blob[4] != VERSION:
        raise EnvelopeError(f"unsupported version {blob[4]}")
    if blob[5] not in _BYTE_TO_MODE:
        raise EnvelopeError(f"unknown mode byte {blob[5]:#04x}")
    mode, nonce_len, n = _BYTE_TO_MODE[blob[5]], blob[6], AES128.block_len
    need = 7 + nonce_len + n + 8
    if len(blob) < need:
        raise EnvelopeError("truncated header")
    ct_len = int.from_bytes(blob[need - 8 : need], "big")
    _check_lengths(mode, nonce_len, n, ct_len)
    if len(blob) != need + ct_len:
        raise EnvelopeError(f"expected {need + ct_len} bytes total, got {len(blob)}")
    return Envelope(mode, blob[7 : 7 + nonce_len], blob[7 + nonce_len : need - 8], blob[need:])


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _hex(flag: str, text: str) -> bytes:
    """Parse a hex argument; the error names the flag, not the bytes."""
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise ValueError(f"{flag} is not valid hex") from None


def _read_key(args: argparse.Namespace) -> TweakableKey:
    if args.key_hex is not None:
        flag, raw = "--key-hex", _hex("--key-hex", args.key_hex)
    else:
        flag, raw = "--key-file", Path(args.key_file).read_bytes()
        if len(raw) != AES128.key_len:
            # latin-1 decodes any bytes, so only _hex's message, which quotes none, can fail.
            raw = _hex(flag, raw.decode("latin-1"))
    if len(raw) != AES128.key_len:
        raise ValueError(f"{flag} must hold a {AES128.key_len}-byte key, got {len(raw)} bytes")
    return TweakableKey(raw, AES128)


def _read_ad(args: argparse.Namespace) -> bytes:
    if args.ad_hex is not None:
        return _hex("--ad-hex", args.ad_hex)
    if args.ad_file is not None:
        return Path(args.ad_file).read_bytes()
    return b""


def _write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it into place.

    A failed write leaves ``path`` as it was and removes the temp file, so
    no partial envelope, plaintext or vector file is ever visible under
    ``path``.  Only a missing path or a regular file is renamed over: a
    symlink (such as ``/dev/stdout``), pipe or device is written through
    in place.
    """
    target = Path(path)
    if target.is_symlink() or (target.exists() and not target.is_file()):
        target.write_bytes(data)  # renaming would replace the link or node, not what it names
        return
    # Created as tempfile.mkstemp would (exclusive, mode 0600), without adding
    # tempfile's imports to every start-up; fixed-length, so any ``path`` name fits.
    tmp = target.with_name(f".tortoise-{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _cmd_encrypt(args: argparse.Namespace) -> int:
    key = _read_key(args)
    mode = AeadMode(args.mode)
    if args.nonce_hex is not None:
        nonce = _hex("--nonce-hex", args.nonce_hex)
        if len(nonce) != nonce_length(mode):
            raise ValueError(f"--nonce-hex must hold {nonce_length(mode)} bytes for mode {mode.value}, got {len(nonce)}")
    else:
        nonce = secrets.token_bytes(nonce_length(mode))
    ad = _read_ad(args)
    plaintext = Path(args.in_path).read_bytes()
    sealed = SEAL[mode](key, nonce, ad, plaintext)
    blob = pack_envelope(Envelope(mode, nonce, sealed.tag, sealed.ciphertext))
    _write_atomic(args.out_path, blob)
    return EXIT_OK


def _cmd_decrypt(args: argparse.Namespace) -> int:
    key = _read_key(args)
    ad = _read_ad(args)
    env = parse_envelope(Path(args.in_path).read_bytes())
    plaintext = OPEN[env.mode](key, env.nonce, ad, env.ciphertext, env.tag)
    _write_atomic(args.out_path, plaintext)
    return EXIT_OK


def _cmd_kat_generate(args: argparse.Namespace) -> int:
    records = generate_kats(args.seed, args.count, args.cipher)
    _write_atomic(args.file, serialize_records(records).encode())
    print(f"wrote {len(records)} records to {args.file}")
    return EXIT_OK


def _report(report: Report, *tail: str) -> int:
    """Print a KAT report's lines, then ``tail``; return the exit code it earns."""
    for line in [*report.lines(), *tail]:
        print(line)
    return EXIT_OK if report.ok else EXIT_KAT


def _cmd_kat_verify(args: argparse.Namespace) -> int:
    # The format is ASCII: an undecodable byte spoils only its own line, which then fails to parse like any other.
    records, errors = parse_kat_text(Path(args.file).read_text(encoding="ascii", errors="replace"))
    report = verify_kats(records)
    report.parse_errors.extend(errors)
    return _report(report, f"{sum(r.ok for r in report.results)}/{len(report.results)} records passed")


def _cmd_kat_diff(args: argparse.Namespace) -> int:
    return _report(differential_check(args.trials))


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and reused: building it takes about 1.4 ms.

    Parsing leaves it unchanged; each call gets a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="tortoise",
        description="Authenticated file encryption with nonce-respecting and misuse-resistant modes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_key_args(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--key-hex", help="16-byte key as 32 hex digits")
        group.add_argument("--key-file", help="file holding the key (16 raw bytes or 32 hex digits)")

    def add_ad_args(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--ad-hex", help="associated data as hex (default empty)")
        group.add_argument("--ad-file", help="file holding the associated data")

    enc = sub.add_parser("encrypt", help="seal a file into an envelope")
    add_key_args(enc)
    enc.add_argument("--mode", choices=[m.value for m in AeadMode], required=True)
    nonce_group = enc.add_mutually_exclusive_group(required=True)
    nonce_group.add_argument("--nonce-hex", help="nonce as hex (8 bytes nr, 15 bytes mr)")
    nonce_group.add_argument("--nonce-random", action="store_true", help="draw the nonce from system entropy")
    add_ad_args(enc)
    enc.add_argument("--in", dest="in_path", required=True, help="plaintext input file")
    enc.add_argument("--out", dest="out_path", required=True, help="envelope output file")
    enc.set_defaults(func=_cmd_encrypt)

    dec = sub.add_parser("decrypt", help="open an envelope back into a file")
    add_key_args(dec)
    add_ad_args(dec)
    dec.add_argument("--in", dest="in_path", required=True, help="envelope input file")
    dec.add_argument("--out", dest="out_path", required=True, help="plaintext output file")
    dec.set_defaults(func=_cmd_decrypt)

    kat = sub.add_parser("kat", help="known-answer vector tooling")
    kat_sub = kat.add_subparsers(dest="kat_command", required=True)

    gen = kat_sub.add_parser("generate", help="write a deterministic vector file")
    gen.add_argument("file", help="output path")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--count", type=int, required=True, help="records per mode")
    gen.add_argument("--cipher", choices=sorted(CIPHERS), default="aes128")
    gen.set_defaults(func=_cmd_kat_generate)

    ver = kat_sub.add_parser("verify", help="replay a vector file bit-exactly")
    ver.add_argument("file", help="vector file to verify")
    ver.set_defaults(func=_cmd_kat_verify)

    diff = kat_sub.add_parser("diff", help="brute-force differential check over the toy cipher")
    diff.add_argument("--trials", type=int, default=1000)
    diff.set_defaults(func=_cmd_kat_diff)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; remap the latter.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except AuthenticationError:
        _fail("authentication failed")
        return EXIT_AUTH
    # EnvelopeError is a ValueError; a backend raises RuntimeError, or MemoryError when it cannot allocate,
    # and Python's own MemoryError has no message.
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        _fail(str(exc) or type(exc).__name__)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
