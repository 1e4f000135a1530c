"""The benchmark's own tests.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
The shortened runs start the real program (and, for ``live-mixed``,
three ``mantle-serve`` processes), so the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _fingerprint_in_subprocess(workload, seed, hash_seed):
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]\n"
        "import inputs\n"
        f"print(inputs.fingerprint_of({workload!r}, {seed}))\n")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, "-c", code, os.path.join(ROOT, "src"), HERE],
        env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = _fingerprint_in_subprocess(workload, 11, 1)
    assert first == _fingerprint_in_subprocess(workload, 11, 2)
    assert first == inputs.fingerprint_of(workload, 11)
    assert first != inputs.fingerprint_of(workload, 12)


def test_metric_names_are_well_formed():
    names = list(run.END_TO_END) + list(run.per_layer_units())
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def test_every_module_maps_to_exactly_one_layer():
    modules = list(layers.repro_modules())
    assert "repro.sim.core" in modules
    for module in modules:
        assert len(layers.layers_of_module(module)) == 1, module


def _run(workload, trace, cwd=ROOT, seconds="0"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


_RESULTS = {}


def _result(workload, trace=0):
    key = (workload, trace)
    if key not in _RESULTS:
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr[-3000:]
        _RESULTS[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _RESULTS[key]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_shortened_run_is_correct(workload):
    result = _result(workload)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
        assert metric["unit"] == run.END_TO_END[name]
    assert not os.path.exists(run.WORKDIR)


@pytest.mark.parametrize("workload", ["commit-storm-explain", "live-mixed"])
def test_shortened_traced_run_is_correct(workload):
    result = _result(workload, trace=1)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(run.per_layer_units())
    shares = sum(value["value"] for name, value in result["metrics"].items()
                 if name.endswith(".self_share"))
    assert shares == pytest.approx(1.0)
    assert result["metrics"]["trace_overhead"]["value"] > 0


def test_explained_storm_matches_plain_storm():
    plain = _result("commit-storm")["metrics"]
    explained = _result("commit-storm-explain")["metrics"]
    for name in ("kops", "p50_us", "p99_us"):
        assert plain[name] == explained[name]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("lookup-zipf", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
