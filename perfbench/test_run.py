"""Fast self-check of the benchmark: schema and correctness, never absolute numbers.

    python3 -m pytest -q perfbench

Each workload runs for one second untraced, and traced for its fixed
number of rounds.  The checks are that the result line has the contract's
shape, that every metric declared in ``BENCHMARK.json`` is reported with
its unit, and that no operation failed.  Timings are not checked.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *BENCH["command"][1:], *args], cwd=cwd, capture_output=True, text=True, timeout=180, check=False
    )


def test_declared_metrics_match_the_code() -> None:
    assert BENCH["command"][0] == "python3"
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert set(WORKLOADS) == set(run.WORKLOADS)


def test_oracle_reproduces_the_committed_aes128_corpus() -> None:
    for line in (ROOT / "kats" / "aes128.kat").read_text().splitlines():
        f = dict(part.split("=", 1) for part in line.split())
        raw = {k: bytes.fromhex(f[k]) for k in ("key", "nonce", "ad", "pt", "ct", "tag")}
        assert oracle.SEAL[f["mode"]](raw["key"], raw["nonce"], raw["ad"], raw["pt"]) == (raw["ct"], raw["tag"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_and_no_failure(workload: str, trace: int) -> None:
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    env = next(line["environment"] for line in lines if "environment" in line)
    assert {"python", "cryptography", "numpy", "nproc", "cpu", "commit", "seed"} <= env.keys()
    assert env["seed"] == 3
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stderr
    assert result["correct"] is True
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
        details = next(line["details"] for line in lines if "details" in line)
        assert details["raw"].keys() == result["metrics"].keys() - {"peak_rss_mib"}
        assert details["kernel_us"]["chunks"] >= 1


def test_refuses_to_run_without_the_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
