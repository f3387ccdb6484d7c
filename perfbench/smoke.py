"""Fast smoke check of the benchmark itself (about a minute on 2 cores).

    python3 perfbench/smoke.py

Checks that layer_map.json maps every per-layer metric. Runs every workload
at toy size with tracing off and on, and asserts that each run passes its
correctness check and prints every metric declared in BENCHMARK.json, by
name and with its unit, both in the text lines and in the final JSON line.
Then asserts that the benchmark refuses to run, printing no
result, in a directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lact128", "mri320", "svct256-ablate")


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(workload: str, trace: int, declared: dict) -> None:
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    expected = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{workload} trace={trace}: metrics {got} != declared {expected}"
    for name, unit in expected.items():
        assert any(line.startswith(f"  {name} = ") and f" {unit}  (" in line for line in lines), \
            f"{workload} trace={trace}: no text line for {name} [{unit}]"
    print(f"ok  {workload} trace={trace}: {len(expected)} metrics")


def check_refuses_without_sources() -> None:
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(bare, "lact128", 0)
    assert proc.returncode != 0, "benchmark ran without the dcpnp sources"
    assert not proc.stdout.strip().endswith("}"), f"printed a result:\n{proc.stdout}"
    print("ok  refuses to run without src/dcpnp")


def check_layer_map(declared: dict) -> None:
    layers = json.loads((HERE / "layer_map.json").read_text())["layers"]
    mapped = {name for layer in layers.values() for name in layer["metrics"]}
    declared_names = {m["name"] for m in declared["per_layer"]}
    assert mapped == declared_names, f"layer_map.json differs: {mapped ^ declared_names}"
    print("ok  layer_map.json covers every per-layer metric")


def main() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_layer_map(declared)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, declared)
    check_refuses_without_sources()


if __name__ == "__main__":
    main()
