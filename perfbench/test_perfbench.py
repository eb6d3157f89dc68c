"""The benchmark's own test: a small-P run of every workload, traced and
untraced, must print every metric that ``BENCHMARK.json`` declares, with
its declared unit.

Run from the repository root with ``python3 perfbench/test_perfbench.py``
or ``python3 -m pytest perfbench/test_perfbench.py``.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT,
         small: bool = True) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3",
                             "--seconds", "0.5", "--trace", str(trace)]
    if small:
        cmd.append("--small")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _check(workload: str, trace: int) -> None:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] != 0, f"{name} reads 0"
    if trace:
        metrics = result["metrics"]
        if workload.startswith("coop-"):
            assert abs(metrics["trace.coverage"]["value"] - 1) <= 0.05
        if workload == "coop-clean-bytes":
            assert metrics["simmpi.faults.self_s"]["value"] == 0
            assert metrics["faults.injected"]["value"] == 0


def test_every_metric_is_emitted_with_its_unit():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            _check(workload, trace)


def test_fails_without_the_program_source():
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
        proc = _run(SPEC["workloads"][0]["name"], 0, cwd=bare, small=False)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    test_every_metric_is_emitted_with_its_unit()
    test_fails_without_the_program_source()
    print("ok")
    sys.exit(0)
