"""The benchmark's three closed-loop workloads and the meter they report to.

One caller thread issues each call after the previous one returns.  Every
workload runs in rounds; round ``i`` draws all of its inputs from
``random.Random(f"<workload>:<seed>:<i>")``, so any round can be replayed
on its own and the traced pass sees exactly the inputs the untraced pass
saw.  All messages use AES-128.

* ``bulk`` isolates the per-block path: 4,097 padded blocks per message
  make the 2-3 per-message tweakable calls under 0.1% of the work.
* ``small`` shows the fixed per-message work that ``bulk`` amortises away
  (validation, padding, the AD accumulator, tag derivation), and runs the
  reject path.
* ``cli`` is the operator's path through ``tortoise.cli.main``, and the
  only workload whose rounds run ``kat`` and the toy cipher.
"""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable

import oracle

MODES = ("nr", "mr")
NONCE_LEN = {"nr": 8, "mr": 15}
MESSAGE_LEN = 64 * 1024
# Simple IMIX: 40, 576 and 1500 bytes in the ratio 7:4:1, exact in every round.
IMIX = (40,) * 7 + (576,) * 4 + (1500,)
SMALL_KEYS = 16
TAMPER_EVERY = 8
# Calibration: a chunk of CAL_CALLS kernel calls at most every CAL_PERIOD_S,
# and the kernel's cost per call on the 2-core Xeon the bounds were set on.
CAL_CALLS = 100
CAL_PERIOD_S = 0.05
REFERENCE_CALL_S = 18e-6


class Kernel:
    """The calibration kernel, timed in a helper process on this process's CPU.

    Creating it pins this process to one CPU of its affinity set and starts
    ``oracle.py`` there as a helper, which times the reference tweakable
    cipher on request while this process waits.  The helper gets the speed
    the host gives that CPU, but shares nothing else with the library under
    test: its threads, garbage collector and allocator cannot slow the
    kernel, so their cost is never divided out.
    """

    def __init__(self) -> None:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._proc = subprocess.Popen(
            [sys.executable, "-I", oracle.__file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def call_s(self, calls: int) -> float:
        """Seconds per call of the kernel, over ``calls`` calls."""
        self._proc.stdin.write(f"{calls}\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def close(self) -> None:
        try:
            self._proc.stdin.close()
        except BrokenPipeError:  # the helper died; wait() below still reaps it
            pass
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


class Samples:
    """One view of a run's timings: raw wall time, or scaled to reference speed."""

    def __init__(self) -> None:
        # (mode, "seal" or "open") -> plaintext bytes -> seconds per call; opens include rejects.
        # Arrays keep the benchmark's own memory small next to the library's peak RSS.
        self.latency: dict[tuple[str, str], defaultdict[int, array]] = {
            (mode, kind): defaultdict(lambda: array("d")) for mode in MODES for kind in ("seal", "open")
        }
        # "<mode>_<kind>" -> plaintext bytes per second of call time, one per round.
        self.rates: dict[str, list[float]] = {f"{mode}_{kind}": [] for mode in MODES for kind in ("seal", "open")}
        self.kat_s: list[float] = []
        self._bytes: Counter[str] = Counter()
        self._seconds: Counter[str] = Counter()

    def add(self, mode: str, kind: str, nbytes: int, dt: float, rejected: bool) -> None:
        self.latency[mode, kind][nbytes].append(dt)
        if not rejected:
            self._bytes[f"{mode}_{kind}"] += nbytes
            self._seconds[f"{mode}_{kind}"] += dt

    def end_round(self) -> None:
        for key, seconds in self._seconds.items():
            self.rates[key].append(self._bytes[key] / seconds)
        self._bytes.clear()
        self._seconds.clear()


# A call's time: (raw wall seconds, seconds at reference speed).
Timing = tuple[float, float]


class Meter:
    """Outcomes and timings of one workload run.

    Every call is timed twice over: raw, and at reference speed.  Given a
    ``kernel``, around each timed call, if ``CAL_PERIOD_S`` has passed since
    the last chunk, the meter times ``CAL_CALLS`` kernel calls; the call's
    wall time is then multiplied by ``REFERENCE_CALL_S`` over the kernel's
    cost per call in the chunks bracketing it.  On a shared host the speed
    a process gets drifts by tens of percent within a minute, and the
    kernel drifts with it, so the ratio stays put where raw wall time does
    not.  Without a kernel both views hold raw wall time.
    """

    def __init__(self, kernel: Kernel | None) -> None:
        self.attempted = 0
        self.failed = 0
        # Tampered inputs submitted, counting the one ``kat diff`` corrupts itself.
        self.tampered = 0
        self.kernel = kernel
        self.kernel_s: list[float] = []
        self._last_chunk = -CAL_PERIOD_S
        self.clear_samples()

    def clear_samples(self) -> None:
        """Drop timings (after the warm-up round) but keep the outcome counts."""
        self.raw = Samples()
        self.scaled = Samples()

    def sample(self, mode: str, kind: str, nbytes: int, dt: Timing, rejected: bool = False) -> None:
        """Record one seal or open of ``nbytes`` plaintext bytes; rejects count only toward latency."""
        self.raw.add(mode, kind, nbytes, dt[0], rejected)
        self.scaled.add(mode, kind, nbytes, dt[1], rejected)

    def kat(self, dt: Timing) -> None:
        self.raw.kat_s.append(dt[0])
        self.scaled.kat_s.append(dt[1])

    def end_round(self) -> None:
        """Close the round's throughput: one rate per kind of call it made."""
        self.raw.end_round()
        self.scaled.end_round()

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED: {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)

    def _kernel_s(self) -> float:
        """Cost per call of the latest calibration chunk, running one first if due."""
        if self.kernel is None:
            return REFERENCE_CALL_S
        if perf_counter() - self._last_chunk >= CAL_PERIOD_S:
            self.kernel_s.append(self.kernel.call_s(CAL_CALLS))
            self._last_chunk = perf_counter()
        return self.kernel_s[-1]

    def _time(self, fn: Callable, *args: Any) -> tuple[Any, Exception | None, Timing]:
        """Call ``fn``; return its result, its exception and its timing.

        The scale comes from the chunks just before and just after the call;
        calls shorter than ``CAL_PERIOD_S`` share one chunk.
        """
        before = self._kernel_s()
        t0 = perf_counter()
        try:
            out, err = fn(*args), None
        except Exception as exc:  # noqa: BLE001 - the caller counts it as a failure
            out, err = None, exc
        dt = perf_counter() - t0
        return out, err, (dt, dt * 2 * REFERENCE_CALL_S / (before + self._kernel_s()))

    def call(self, mode: str, kind: str, nbytes: int, fn: Callable, *args: Any) -> Any:
        """Time one library call that must succeed; None after a counted failure."""
        self.attempted += 1
        out, err, dt = self._time(fn, *args)
        if err is not None:
            self.fail(f"{mode} {kind} raised {err!r}")
            return None
        self.sample(mode, kind, nbytes, dt)
        return out

    def reject(self, mode: str, nbytes: int, auth_error: type, fn: Callable, *args: Any) -> None:
        """Time one open of a tampered ``nbytes`` message, which must raise ``auth_error``."""
        self.attempted += 1
        self.tampered += 1
        _, err, dt = self._time(fn, *args)
        if isinstance(err, auth_error):
            self.sample(mode, "open", nbytes, dt, rejected=True)
        else:
            self.fail(f"{mode} open of a tampered input gave {err!r}, not {auth_error.__name__}")

    def command(self, main: Callable, argv: list[str], expect: int) -> Timing | None:
        """Time one in-process CLI command; None after a counted failure."""
        self.attempted += 1
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code, err, dt = self._time(main, argv)
        if err is not None or code != expect:
            self.fail(f"{' '.join(argv[:2])} gave {err or code!r}, expected exit {expect}")
            return None
        return dt


def _rng(name: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{i}")


def _flip_bit(rng: random.Random, data: bytes) -> bytes:
    bit = rng.randrange(8 * len(data))
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def kat_group(lib: SimpleNamespace, meter: Meter, kats: list[Path]) -> None:
    """``kat verify`` of each committed corpus, then ``kat diff``; all must exit 0."""
    total = (0.0, 0.0)
    for argv in [["kat", "verify", str(path)] for path in kats] + [["kat", "diff"]]:
        dt = meter.command(lib.main, argv, 0)
        if dt is None:
            return
        total = (total[0] + dt[0], total[1] + dt[1])
    meter.tampered += 1  # kat diff checks that one corrupted tag of its own is rejected
    meter.kat(total)


class Bulk:
    """One key; 64 KiB messages, empty AD, a fresh nonce each; nr then mr, seal then open."""

    name = "bulk"
    runs_kat = False

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.seed = seed
        self.key = random.Random(f"bulk:{seed}").randbytes(16)

    def round(self, i: int, lib: SimpleNamespace, meter: Meter, record: list | None) -> None:
        rng = _rng(self.name, self.seed, i)
        key = lib.modules.tweakable.TweakableKey(self.key, lib.spec)
        for mode in MODES:
            nonce, pt = rng.randbytes(NONCE_LEN[mode]), rng.randbytes(MESSAGE_LEN)
            sealed = meter.call(mode, "seal", len(pt), lib.seal[mode], key, nonce, b"", pt)
            if sealed is None:
                continue
            if record is not None:
                record.append((mode, self.key, nonce, b"", pt, sealed.ciphertext + sealed.tag))
            back = meter.call(mode, "open", len(pt), lib.open[mode], key, nonce, b"", sealed.ciphertext, sealed.tag)
            if back is not None:
                meter.check(back == pt, f"{mode} open returned other bytes")


class Small:
    """IMIX-sized messages under 16 round-robin keys, both modes, seal then open.

    Each message carries a 13-byte record header as AD (sequence number,
    type, version, length, as in TLS) and a nonce built from the sequence
    number, so no (key, nonce) pair repeats.  One open in every 8 gets a
    single flipped bit in the tag or ciphertext and must be rejected.
    """

    name = "small"
    runs_kat = False

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.seed = seed
        rng = random.Random(f"small:{seed}")
        self.keys = [rng.randbytes(16) for _ in range(SMALL_KEYS)]
        self.salts = [rng.randbytes(NONCE_LEN["mr"] - 8) for _ in range(SMALL_KEYS)]

    def round(self, i: int, lib: SimpleNamespace, meter: Meter, record: list | None) -> None:
        rng = _rng(self.name, self.seed, i)
        sizes = list(IMIX)
        rng.shuffle(sizes)
        opens = len(sizes) * len(MODES)
        tampered = {g + rng.randrange(TAMPER_EVERY) for g in range(0, opens, TAMPER_EVERY)}
        for pos, size in enumerate(sizes):
            seq = i * len(IMIX) + pos
            k = seq % SMALL_KEYS
            key = lib.modules.tweakable.TweakableKey(self.keys[k], lib.spec)
            ad = seq.to_bytes(8, "big") + b"\x17\x03\x03" + size.to_bytes(2, "big")
            pt = rng.randbytes(size)
            for m, mode in enumerate(MODES):
                nonce = seq.to_bytes(8, "big") if mode == "nr" else self.salts[k] + seq.to_bytes(8, "big")
                sealed = meter.call(mode, "seal", size, lib.seal[mode], key, nonce, ad, pt)
                if sealed is None:
                    continue
                if record is not None:
                    record.append((mode, self.keys[k], nonce, ad, pt, sealed.ciphertext + sealed.tag))
                if pos * len(MODES) + m in tampered:
                    blob = _flip_bit(rng, sealed.ciphertext + sealed.tag)
                    ct, tag = blob[:-16], blob[-16:]
                    meter.reject(mode, size, lib.auth_error, lib.open[mode], key, nonce, ad, ct, tag)
                    continue
                back = meter.call(mode, "open", size, lib.open[mode], key, nonce, ad, sealed.ciphertext, sealed.tag)
                if back is not None:
                    meter.check(back == pt, f"{mode} open returned other bytes")


class Cli:
    """In-process ``tortoise.cli.main``, in rounds.

    Each round encrypts then decrypts a 64 KiB file in each mode, decrypts
    one tampered envelope (exit 2, no output file), verifies both committed
    KAT corpora and runs ``kat diff``.  Seals and opens are the encrypt and
    decrypt commands, timed whole: argument, key and AD parsing, envelope
    pack and parse, and file I/O.
    """

    name = "cli"
    runs_kat = True

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.seed = seed
        self.key = random.Random(f"cli:{seed}").randbytes(16)
        self.kats = [root / "kats" / "aes128.kat", root / "kats" / "toy.kat"]
        self.dir = workdir

    def round(self, i: int, lib: SimpleNamespace, meter: Meter, record: list | None) -> None:
        rng = _rng(self.name, self.seed, i)
        plain, opened, bad = self.dir / "plain", self.dir / "opened", self.dir / "tampered"
        envelopes = {}
        for mode in MODES:
            pt, nonce, ad = rng.randbytes(MESSAGE_LEN), rng.randbytes(NONCE_LEN[mode]), rng.randbytes(13)
            plain.write_bytes(pt)
            sealed = self.dir / f"sealed.{mode}"
            keys = ["--key-hex", self.key.hex(), "--ad-hex", ad.hex()]
            enc = ["encrypt", *keys, "--mode", mode, "--nonce-hex", nonce.hex(), "--in", str(plain), "--out", str(sealed)]
            dt = meter.command(lib.main, enc, 0)
            if dt is None:
                continue
            meter.sample(mode, "seal", len(pt), dt)
            blob = sealed.read_bytes()
            if record is not None:
                record.append((mode, self.key, nonce, ad, pt, blob))
            dt = meter.command(lib.main, ["decrypt", *keys, "--in", str(sealed), "--out", str(opened)], 0)
            if dt is None:
                continue
            meter.sample(mode, "open", len(pt), dt)
            meter.check(opened.read_bytes() == pt, f"{mode} decrypt wrote other bytes")
            envelopes[mode] = (blob, keys)

        mode = MODES[i % len(MODES)]
        if mode in envelopes:
            blob, keys = envelopes[mode]
            # Envelope: 7 header bytes, nonce, 16-byte tag, 8-byte ct_len, ciphertext.
            tag_at = 7 + NONCE_LEN[mode]
            ct_at = tag_at + 16 + 8
            flipped = _flip_bit(rng, blob[tag_at : tag_at + 16] + blob[ct_at:])
            bad.write_bytes(blob[:tag_at] + flipped[:16] + blob[tag_at + 16 : ct_at] + flipped[16:])
            opened.unlink(missing_ok=True)
            meter.tampered += 1
            dt = meter.command(lib.main, ["decrypt", *keys, "--in", str(bad), "--out", str(opened)], 2)
            if dt is not None:
                meter.sample(mode, "open", MESSAGE_LEN, dt, rejected=True)
                meter.check(not opened.exists(), f"{mode} decrypt left a file after exit 2")

        kat_group(lib, meter, self.kats)


WORKLOADS = {w.name: w for w in (Bulk, Small, Cli)}
