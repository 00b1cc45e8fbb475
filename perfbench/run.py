#!/usr/bin/env python3
"""Tortoise benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; the library is imported from
``src/`` beside this directory, never from an installed copy.  Workloads
are described in ``workloads.py``.

``--trace 0`` times the untraced workload for ``--seconds`` after one
warm-up round and reports the end-to-end metrics.  Times are reported at
reference speed: each call is scaled by a calibration kernel timed
between calls in a helper process on the same CPU (see ``Kernel`` and
``Meter``), and set-up by a reference interpreter launch, because the
speed a shared host gives one process drifts far more between runs than
the bounds allow.  The details line holds the same figures from raw wall
time and the kernel's cost over the run.  ``--trace 1`` ignores
``--seconds`` and runs a fixed number of rounds, so its counts repeat
exactly, each once untraced and once traced (see ``tracer.py``); it
reports the per-layer metrics from raw wall time and writes the spans to
``.bench_build/perfbench/trace-<workload>.spans``.

Throughput is the median over rounds of each round's plaintext bytes per
second of call time; a round of ``small`` holds the whole IMIX mix.  Seal
and open latencies are the medians over calls on the workload's
shortest message: 40 B on ``small``, where they show the fixed
per-message cost, and 64 KiB on ``bulk`` and ``cli``.  Tail percentiles
are in the details line with their call counts but are not metrics: on a
shared host they move by 10-15% from run to run.

Every run checks its outputs: each open returns the sealed plaintext,
each tampered input is rejected, CLI exit codes are as documented, and
the outputs of the first (warm-up) and the last round must match the
independent reference in ``oracle.py`` by SHA-256 digest.  The first line
printed holds the environment, the next the run's details (sample counts,
raw figures, calibration).  The last line is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import oracle
from tracer import Tracer
from workloads import MODES, WORKLOADS, Kernel, Meter, Samples, kat_group

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
KATS = [ROOT / "kats" / "aes128.kat", ROOT / "kats" / "toy.kat"]
WORK = ROOT / ".bench_build" / "perfbench"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "nr_seal_mib_s": "MiB/s",
    "nr_open_mib_s": "MiB/s",
    "mr_seal_mib_s": "MiB/s",
    "mr_open_mib_s": "MiB/s",
    "nr_seal_p50_us": "us",
    "nr_open_p50_us": "us",
    "mr_seal_p50_us": "us",
    "mr_open_p50_us": "us",
    "kat_ms": "ms",
}
IMPORTED = ("block_cipher", "tweakable", "aead", "kat", "cli")
PER_LAYER = {
    **{f"block_cipher.{c}.{m}": u for c in ("aes128", "toy") for m, u in
       (("calls", "count"), ("us_per_call", "us"), ("share", "ratio"))},
    "xof.calls": "count",
    "xof.us_per_call": "us",
    "xof.share": "ratio",
    "tweakable.self_us_per_call": "us",
    "tweakable.share": "ratio",
    "tweakable.encode.us_per_call": "us",
    "tweakable.encode.share": "ratio",
    "tweakable.xor.us_per_call": "us",
    "tweakable.xor.share": "ratio",
    "tweakable.calls_per_block": "calls/block",
    "aead.calls": "count",
    "aead.self_share": "ratio",
    "aead.rejects": "count",
    "cli.self_share": "ratio",
    "cli.envelope.us_per_call": "us",
    "kat.self_share": "ratio",
    **{f"{module}.import_ms": "ms" for module in IMPORTED},
    "trace.overhead": "ratio",
}

# Set-up is timed in pairs of fresh interpreters: the reference launch, then
# the set-up snippet.  The calibration kernel does not scale it: start-up is
# imports and page faults, which drift unlike the kernel.  REFERENCE_SETUP_S
# is the reference launch's time on the 2-core Xeon the bounds were set on.
SETUP_LAUNCHES = 21
REFERENCE_SETUP_S = 0.07
IMPORTTIME_LAUNCHES = 3
# On workloads whose rounds do not run kat, a kat group runs between rounds at
# most this often, so kat_ms samples the whole run.
KAT_GATE_PERIOD_S = 1.0
# Rounds of a --trace 1 run, each once untraced and once traced.
TRACE_ROUNDS = {"bulk": 11, "small": 167, "cli": 10}

REFERENCE_SETUP_CODE = """\
import argparse, dataclasses, enum, hashlib, hmac, random, secrets
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
table = [((x << 4) | (x >> 12)) & 0xFFFF for x in range(1 << 16)]
"""
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import tortoise, tortoise.cli
from tortoise.aead import open_mr, open_nr, seal_mr, seal_nr
from tortoise.block_cipher import get_cipher
from tortoise.tweakable import TweakableKey
key = TweakableKey(bytes(range(16)), get_cipher("aes128"))
msg = bytes(range(16))
for seal, open_, nonce in ((seal_nr, open_nr, bytes(8)), (seal_mr, open_mr, bytes(15))):
    sealed = seal(key, nonce, b"", msg)
    if open_(key, nonce, b"", sealed.ciphertext, sealed.tag) != msg:
        sys.exit(1)
"""


def load_library() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    modules = SimpleNamespace(
        **{name: importlib.import_module(f"tortoise.{name}") for name in ("aead", "tweakable", "block_cipher", "kat", "cli")}
    )
    if not Path(modules.aead.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: tortoise imported from {modules.aead.__file__}, not {SRC}")
    aead = modules.aead
    return SimpleNamespace(
        modules=modules,
        spec=modules.block_cipher.get_cipher("aes128"),
        seal={"nr": aead.seal_nr, "mr": aead.seal_mr},
        open={"nr": aead.open_nr, "mr": aead.open_mr},
        main=modules.cli.main,
        auth_error=aead.AuthenticationError,
    )


def launch(meter: Meter, code: str, *flags: str) -> tuple[float, str]:
    """Run ``code`` in a fresh interpreter, which must exit 0; return (wall seconds, stderr)."""
    meter.attempted += 1
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-I", *flags, "-c", code, str(SRC)], capture_output=True, text=True, timeout=120, check=False
    )
    dt = perf_counter() - t0
    meter.check(proc.returncode == 0, f"fresh interpreter exited {proc.returncode}: {proc.stderr[-300:]}")
    return dt, proc.stderr


def setup_s(meter: Meter) -> tuple[float, float]:
    """Set-up time at reference speed, the median over launches of set-up over
    reference; and the median raw set-up time."""
    ratios, raw = [], []
    for _ in range(SETUP_LAUNCHES):
        reference = launch(meter, REFERENCE_SETUP_CODE)[0]
        raw.append(launch(meter, SETUP_CODE)[0])
        ratios.append(raw[-1] / reference)
    return statistics.median(ratios) * REFERENCE_SETUP_S, statistics.median(raw)


def import_ms(stderr: str) -> dict[str, float]:
    """Import time of each tortoise module from ``-X importtime`` output, in ms.

    A module's time is its cumulative time minus that of the tortoise
    modules it imports, so third-party imports count toward the module
    that pulls them in.
    """
    stack: list[tuple[int, str, int]] = []
    out = {}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        depth = len(fields[2]) - len(fields[2].lstrip())
        name, cumulative = fields[2].strip(), int(fields[1])
        own = cumulative
        while stack and stack[-1][0] > depth:
            _, child, child_cumulative = stack.pop()
            if child.startswith("tortoise."):
                own -= child_cumulative
        stack.append((depth, name, cumulative))
        if name.startswith("tortoise."):
            out[name.removeprefix("tortoise.")] = own / 1000
    return out


def check_outputs(workload, record: list, meter: Meter, which: str) -> None:
    """Compare the outputs a round recorded with the reference by digest."""
    got, want = hashlib.sha256(), hashlib.sha256()
    for mode, key, nonce, ad, pt, produced in record:
        ct, tag = oracle.SEAL[mode](key, nonce, ad, pt)
        expected = oracle.envelope(mode, nonce, ct, tag) if workload.name == "cli" else ct + tag
        for digest, blob in ((got, produced), (want, expected)):
            digest.update(len(blob).to_bytes(8, "big") + blob)
    if got.digest() != want.digest():
        meter.failed += len(record)
        print(f"FAILED: {which} round's outputs differ from the reference (sha256 {got.hexdigest()})", file=sys.stderr)


def warm_up(workload, lib: SimpleNamespace, meter: Meter) -> None:
    """Run round 0, check its outputs, and drop its timings."""
    record: list = []
    workload.round(0, lib, meter, record)
    check_outputs(workload, record, meter, "first")
    meter.clear_samples()


def tail(values: list[float]) -> dict:
    """The highest percentile, up to p99, with at least ten calls beyond it."""
    if len(values) <= 10:
        return {"calls": len(values)}
    q = max(1, min(99, int(100 * (1 - 10 / len(values)))))
    us = statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e6
    return {"calls": len(values), "percentile": q, "us": us}


def summary(samples: Samples) -> dict[str, float]:
    """The metrics that come from timed calls."""
    out = {}
    for key, rates in samples.rates.items():
        out[f"{key}_mib_s"] = statistics.median(rates) / (1 << 20) if rates else 0.0
    for (mode, kind), by_size in samples.latency.items():
        times = by_size[min(by_size)] if by_size else []
        out[f"{mode}_{kind}_p50_us"] = statistics.median(times) * 1e6 if times else 0.0
    out["kat_ms"] = statistics.median(samples.kat_s) * 1e3 if samples.kat_s else 0.0
    return out


def end_to_end(workload, lib: SimpleNamespace, seconds: float, meter: Meter) -> tuple[dict, dict]:
    """The end-to-end metrics, and details that qualify them."""
    setup, raw_setup = setup_s(meter)
    warm_up(workload, lib, meter)
    deadline = perf_counter() + seconds
    next_kat = 0.0
    i = 1
    while True:
        record: list = []
        workload.round(i, lib, meter, record)
        meter.end_round()
        i += 1
        if not workload.runs_kat and perf_counter() >= next_kat:
            kat_group(lib, meter, KATS)
            next_kat = perf_counter() + KAT_GATE_PERIOD_S
        if perf_counter() >= deadline:
            break
    check_outputs(workload, record, meter, "last")
    metrics = {
        "setup_s": setup,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **summary(meter.scaled),
    }
    kernel = meter.kernel_s
    details = {
        "rounds": i - 1,
        "tail_us": {mode: tail([dt for kind in ("seal", "open") for times in meter.scaled.latency[mode, kind].values()
                                for dt in times]) for mode in MODES},
        "kat_groups": len(meter.scaled.kat_s),
        "raw": {"setup_s": raw_setup, **summary(meter.raw)},
        "kernel_us": {"chunks": len(kernel), "median": statistics.median(kernel) * 1e6,
                      "min": min(kernel) * 1e6, "max": max(kernel) * 1e6},
    }
    return metrics, details


def per_layer(workload, lib: SimpleNamespace, meter: Meter) -> tuple[dict, dict]:
    """The per-layer metrics, and details that qualify them."""
    runs = [import_ms(launch(meter, SETUP_CODE, "-X", "importtime")[1]) for _ in range(IMPORTTIME_LAUNCHES)]
    imports = {f"{m}.import_ms": statistics.median(r.get(m, 0.0) for r in runs) for m in IMPORTED}
    warm_up(workload, lib, meter)
    rounds = range(1, 1 + TRACE_ROUNDS[workload.name])
    tracer = Tracer()
    untraced = traced = 0.0
    tampered = 0
    # Untraced and traced rounds alternate, so drift in machine speed hits both alike.
    for i in rounds:
        t0 = perf_counter()
        workload.round(i, lib, meter, None)
        untraced += perf_counter() - t0
        before = meter.tampered
        record: list = []
        with tracer.install(lib) as traced_lib:
            t0 = perf_counter()
            workload.round(i, traced_lib, meter, record)
            traced += perf_counter() - t0
        tampered += meter.tampered - before
    check_outputs(workload, record, meter, "last traced")
    meter.check(tracer.rejects == tampered, f"aead rejected {tracer.rejects} inputs, {tampered} were tampered")
    spans = WORK / f"trace-{workload.name}.spans"
    tracer.dump(spans)
    metrics = {**tracer.layers(traced), **imports, "trace.overhead": traced / untraced - 1}
    return metrics, {"rounds": len(rounds), "spans": len(tracer.layer), "span_file": str(spans.relative_to(ROOT))}


def environment(seed: int) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        cpu = next(
            (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
             if line.startswith("model name")),
            None,
        )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "cryptography": version("cryptography"),
        "numpy": version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor() or None,
        "commit": commit,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Tortoise benchmark.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "tortoise" / "__init__.py", *KATS) if not p.is_file()]
    if missing:
        print(f"error: not a tortoise source checkout; missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 1
    lib = load_library()

    print(json.dumps({"environment": environment(args.seed)}), flush=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    kernel = None if args.trace else Kernel()
    meter = Meter(kernel)
    try:
        workload = WORKLOADS[args.workload](args.seed, ROOT, workdir)
        if args.trace:
            units, (values, details) = PER_LAYER, per_layer(workload, lib, meter)
        else:
            units, (values, details) = END_TO_END, end_to_end(workload, lib, args.seconds, meter)
    finally:
        if kernel is not None:
            kernel.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"details": details}))
    result = {
        "correct": meter.failed == 0,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
