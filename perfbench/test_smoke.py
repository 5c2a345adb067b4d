"""Smoke tests of the benchmark itself: python3 -m pytest -q perfbench/test_smoke.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*flags: str, cwd: Path = ROOT) -> tuple[dict, list[str]]:
    proc = subprocess.run(RUN + list(flags), cwd=cwd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def manifest_of(lines: list[str]) -> dict:
    return json.loads(next(l for l in lines if l.startswith("manifest "))[len("manifest "):])


def bench_modules():
    """The benchmark's own modules ``layers``, ``run`` and ``workloads``."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import layers
        import run
        import workloads
    finally:
        del sys.path[:2]
    return layers, run, workloads


def test_metric_tables_match_benchmark_json():
    layers, runner, _ = bench_modules()
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in runner.END_TO_END]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(runner.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == layers.per_layer_spec()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(runner.WORKLOAD_NAMES)


def test_every_workload_at_a_tiny_unit_count():
    combined, _ = run("--workload", "all", "--units", "2", "--trace", "1")
    assert combined["correct"] and combined["failed"] == 0
    names = set(combined["metrics"])
    for w in BENCHMARK["workloads"]:
        for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            key = f"{w['name']}.{m['name']}"
            assert key in names, key
            assert combined["metrics"][key]["unit"] == m["unit"]
    for m in BENCHMARK["end_to_end"]:
        for w in BENCHMARK["workloads"]:
            assert combined["metrics"][f"{w['name']}.{m['name']}"]["value"] > 0


@pytest.mark.parametrize("workload", ["sweep", "trees"])
def test_non_default_seed_without_digests(workload):
    probes = bench_modules()[2].WORKLOADS[workload].probes
    for trace in ("0", "1"):
        result, lines = run("--workload", workload, "--seed", "7", "--units", "3",
                            "--trace", trace, "--unchecked-inputs")
        # the warm-up unit, three measured units, and untraced runs' set-up probes
        assert result["correct"] and result["attempted"] == 4 + (probes if trace == "0" else 0)
        assert manifest_of(lines)["digests"] == "unchecked"


def test_traced_counters_repeat_across_runs():
    flags = ("--workload", "sweep", "--seed", "5", "--units", "4", "--trace", "1")
    exact = [m["name"] for m in BENCHMARK["per_layer"]
             if m["unit"] in ("count", "B") or m["name"] == "robustness.perturb_attempts_per_accept"]
    first, _ = run(*flags)
    second, _ = run(*flags)
    assert first["correct"] and second["correct"]
    assert {n: first["metrics"][n] for n in exact} == {n: second["metrics"][n] for n in exact}
    assert first["metrics"]["robustness.reports"]["value"] == 18


def test_tracer_rebinds_every_importing_module():
    code = (
        "import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import poolal, layers\n"
        "from tracer import Tracer\n"
        "original = poolal.core.label_marginals\n"
        "t = Tracer(layers.TARGETS)\n"
        "t.enable(); assert poolal.policies.label_marginals.__wrapped__ is original\n"
        "t.disable(); assert poolal.policies.label_marginals is original\n"
        "print(json.dumps(t.bound_modules('core.label_marginals')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(HERE), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    bound = json.loads(proc.stdout)
    assert {"poolal", "poolal.core", "poolal.policies", "poolal.mixture"} <= set(bound)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
