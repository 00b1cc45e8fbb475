"""Known-answer vectors: format, generation, replay, brute-force check.

One record per line, fields in a fixed order separated by single spaces::

    mode=nr cipher=aes128 key=<hex> nonce=<hex> ad=<hex> pt=<hex> ct=<hex> tag=<hex>

``mode`` and ``cipher`` are literal names; the remaining values are
lowercase hex and may be empty (``ad=``).  Lines starting with ``#`` and
blank lines are skipped on input.  Serialization emits record lines only,
so a canonical file round-trips through parse -> serialize byte for byte.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from .aead import OPEN, SEAL, AeadMode, AuthenticationError, nonce_length
from .block_cipher import TOY, get_cipher, toy_encrypt_block
from .tweakable import TweakableKey, tweak_encrypt_many

__all__ = [
    "KatRecord",
    "KatParseError",
    "CheckResult",
    "Report",
    "serialize_record",
    "serialize_records",
    "parse_record",
    "parse_kat_text",
    "generate_kats",
    "verify_kats",
    "differential_check",
]

_FIELDS = ("mode", "cipher", "key", "nonce", "ad", "pt", "ct", "tag")
_HEX_FIELDS = _FIELDS[2:]
_ORACLE_LANES = 4  # differential_check's oracle trials per random master key, in one batch call


class KatParseError(ValueError):
    """A record line that does not conform to the format."""


@dataclass(frozen=True)
class KatRecord:
    """One sealed message, replayable bit-exactly."""

    mode: AeadMode
    cipher: str
    key: bytes
    nonce: bytes
    ad: bytes
    pt: bytes
    ct: bytes
    tag: bytes


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Report:
    """Per-item outcomes of a verification or differential run."""

    results: list[CheckResult] = field(default_factory=list)
    parse_errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.parse_errors and all(r.ok for r in self.results)

    def lines(self) -> list[str]:
        out = [f"parse error: {err}" for err in self.parse_errors]
        for r in self.results:
            status = "PASS" if r.ok else "FAIL"
            out.append(f"{status} {r.name}" + (f": {r.detail}" if r.detail else ""))
        return out


def serialize_record(rec: KatRecord) -> str:
    values = [rec.mode.value, rec.cipher] + [getattr(rec, name).hex() for name in _HEX_FIELDS]
    return " ".join(f"{name}={value}" for name, value in zip(_FIELDS, values))


def serialize_records(records: list[KatRecord]) -> str:
    return "".join(serialize_record(rec) + "\n" for rec in records)


def parse_record(line: str) -> KatRecord:
    parts = line.split(" ")
    if len(parts) != len(_FIELDS):
        raise KatParseError(f"expected {len(_FIELDS)} fields, got {len(parts)}")
    values: dict[str, str] = {}
    for part, name in zip(parts, _FIELDS):
        prefix = name + "="
        if not part.startswith(prefix):
            raise KatParseError(f"expected field {name!r}, got {part!r}")
        values[name] = part[len(prefix):]
    try:
        mode, spec = AeadMode(values["mode"]), get_cipher(values["cipher"])
    except ValueError as exc:
        raise KatParseError(str(exc)) from None
    raw: dict[str, bytes] = {}
    for name in _HEX_FIELDS:
        try:
            raw[name] = bytes.fromhex(values[name])
        except ValueError:
            raise KatParseError(f"field {name!r} is not valid hex") from None
        if values[name] != raw[name].hex():
            raise KatParseError(f"field {name!r} is not canonical lowercase hex")
    n = spec.block_len
    if len(raw["key"]) != spec.key_len:
        raise KatParseError(f"key must be {spec.key_len} bytes for {spec.name}")
    if len(raw["nonce"]) != nonce_length(mode, n):
        raise KatParseError(f"nonce must be {nonce_length(mode, n)} bytes for mode {mode.value}")
    if len(raw["tag"]) != n:
        raise KatParseError(f"tag must be {n} bytes for {spec.name}")
    if not raw["ct"] or len(raw["ct"]) % n:
        raise KatParseError("ct must be a positive multiple of the block size")
    return KatRecord(mode, spec.name, raw["key"], raw["nonce"], raw["ad"], raw["pt"], raw["ct"], raw["tag"])


def parse_kat_text(text: str) -> tuple[list[KatRecord], list[str]]:
    """Parse a vector file; collect per-line errors instead of aborting."""
    records: list[KatRecord] = []
    errors: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            records.append(parse_record(line))
        except KatParseError as exc:
            errors.append(f"line {lineno}: {exc}")
    return records, errors


def generate_kats(seed: int, count: int, cipher: str = "aes128") -> list[KatRecord]:
    """Freeze ``count`` records per mode from seeded pseudo-random inputs."""
    if count < 1:
        raise ValueError("count must be at least 1")
    spec = get_cipher(cipher)
    n = spec.block_len
    rng = random.Random(seed)
    records = []
    for mode in AeadMode:
        for _ in range(count):
            key = rng.randbytes(spec.key_len)
            nonce = rng.randbytes(nonce_length(mode, n))
            ad = rng.randbytes(rng.randrange(2 * n + 4))
            pt = rng.randbytes(rng.randrange(3 * n + 6))
            sealed = SEAL[mode](TweakableKey(key, spec), nonce, ad, pt)
            records.append(KatRecord(mode, spec.name, key, nonce, ad, pt, sealed.ciphertext, sealed.tag))
    return records


def verify_kats(records: list[KatRecord]) -> Report:
    """Replay every record through seal and open; both must match bit-exactly."""
    report = Report()
    for idx, rec in enumerate(records, start=1):
        detail = ""  # none: the record passed
        try:
            key = TweakableKey(rec.key, get_cipher(rec.cipher))
            sealed = SEAL[rec.mode](key, rec.nonce, rec.ad, rec.pt)
            if sealed.ciphertext != rec.ct or sealed.tag != rec.tag:
                detail = "seal output differs"
            elif OPEN[rec.mode](key, rec.nonce, rec.ad, rec.ct, rec.tag) != rec.pt:
                detail = "open returned different plaintext"
        except (ValueError, AuthenticationError) as exc:
            detail = f"replay raised: {exc}"
        report.results.append(CheckResult(f"record {idx} ({rec.mode.value}/{rec.cipher})", not detail, detail))
    return report


def _composed_toy_tweak_encrypt(key: bytes, tweak_raw: bytes, block: bytes) -> bytes:
    # Deliberately re-coded from the primitives, bypassing the tweakable module.
    digest = hashlib.shake_128(key + tweak_raw).digest(4)
    encrypted = toy_encrypt_block(digest[:2], block)
    return (int.from_bytes(encrypted, "big") ^ int.from_bytes(digest[2:], "big")).to_bytes(2, "big")


def differential_check(trials: int) -> Report:
    """Brute-force the framework over the toy cipher.

    Every lane of batched tweakable encryptions, which run the ``TOY``
    batch kernel, is compared against an independently coded composition
    of the SHAKE squeeze and the single-block reference
    ``toy_encrypt_block``, so two codings of the toy rounds are checked
    against each other; seal/open round trips cover all short plaintext
    lengths, and one corrupted ``mr`` tag must be rejected.  Seeded with 0.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(0)
    mismatches = []
    for start in range(0, trials, _ORACLE_LANES):
        key, lanes = rng.randbytes(2), range(min(_ORACLE_LANES, trials - start))
        tweaks, blocks = [rng.randbytes(2) for _ in lanes], rng.randbytes(2 * len(lanes))
        got = tweak_encrypt_many(TweakableKey(key, TOY), tweaks, blocks)
        for i, raw in enumerate(tweaks):
            block, out = blocks[2 * i : 2 * i + 2], got[2 * i : 2 * i + 2]
            want = _composed_toy_tweak_encrypt(key, raw, block)
            if out != want:
                mismatches.append(
                    f"key={key.hex()} tweak={raw.hex()} block={block.hex()} got={out.hex()} want={want.hex()}"
                )

    n = TOY.block_len
    key = TweakableKey(rng.randbytes(2), TOY)
    failures = []
    for mode in AeadMode:
        nonce = rng.randbytes(nonce_length(mode, n))
        for pt_len in range(3 * n + 1):
            for ad_len in (0, 1, n, 2 * n + 1):
                pt, ad = rng.randbytes(pt_len), rng.randbytes(ad_len)
                sealed = SEAL[mode](key, nonce, ad, pt)
                try:
                    back = OPEN[mode](key, nonce, ad, sealed.ciphertext, sealed.tag)
                except AuthenticationError:
                    back = None
                if back != pt:
                    failures.append(f"mode={mode.value} pt_len={pt_len} ad_len={ad_len}")

    mode = AeadMode.MISUSE_RESISTANT
    nonce = rng.randbytes(nonce_length(mode, n))
    sealed = SEAL[mode](key, nonce, b"ad", b"corrupt me")
    bad_tag = bytes([sealed.tag[0] ^ 1]) + sealed.tag[1:]
    try:
        OPEN[mode](key, nonce, b"ad", sealed.ciphertext, bad_tag)
        rejected = False
    except AuthenticationError:
        rejected = True
    return Report([
        CheckResult(
            f"tweak_encrypt_many vs composed oracle ({trials} trials)", not mismatches, "; ".join(mismatches[:5])
        ),
        CheckResult("seal/open round trips (all short lengths)", not failures, "; ".join(failures[:5])),
        CheckResult("corrupted tag rejected", rejected),
    ])
