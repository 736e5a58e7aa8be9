"""The command's contract: its metric names and its refusal without the package."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_benchmark_json_names_the_metrics_the_run_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {f"{s}.{k}": 0 for s in spans.SPAN_NAMES for k in ("calls", "self_s")}
    reported = spans.layer_metrics(summary, 0.0)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        [(name, unit) for name, (_, unit) in reported.items()]
    run_source = (BENCH / "run.py").read_text()
    for m in doc["end_to_end"]:
        assert f'"{m["name"]}": (' in run_source


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "ensemble_line_star",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no netobs package" in proc.stderr
