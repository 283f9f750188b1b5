"""Tests of the benchmark itself, through its quick mode.

    PYTHONPATH=src python -m pytest bench -q

Each run below starts `bench/run.py --quick` in a subprocess: one round per
workload at toy sizes, with every output check of a full run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracing  # noqa: E402
from run import END_TO_END  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("feasibility.systems", "wsne.pairs", "residues.candidates")


def quick(workload: str, seed: int = 1, trace: int = 0, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_metrics_the_code_reports():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.LAYER_METRICS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2])
def test_quick_run_reports_every_end_to_end_metric(workload, seed):
    result = result_of(quick(workload, seed))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_report_every_layer_metric_and_repeat_counts(workload):
    first, second = (result_of(quick(workload, 3, trace=1)) for _ in range(2))
    for result in (first, second):
        assert result["correct"] is True and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(tracing.LAYER_METRICS)
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_traced_runs_measure_the_layers_each_workload_exercises():
    layers = {w: result_of(quick(w, 1, trace=1))["metrics"] for w in WORKLOADS}
    assert layers["refute"]["wsne.pairs"]["value"] > 0
    assert layers["refute"]["formats.reverify_nonexistence_s"]["value"] > 0
    assert layers["crosscheck"]["feasibility.systems"]["value"] > 0
    assert layers["crosscheck"]["game.char_decision_s"]["value"] > 0
    assert layers["search"]["residues.candidates"]["value"] > 0
    for sub in tracing.SUBCOMMANDS:
        assert layers["pipeline"][f"cli.{sub}_s"]["value"] > 0, sub
    for kind in tracing.CERT_KINDS:
        assert layers["pipeline"][f"formats.reverify_{kind}_s"]["value"] > 0, kind
    assert layers["pipeline"]["cli.startup_s"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = quick("refute", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


# The independent checks must be able to fail, or they prove nothing.


def test_haight_check_rejects_bad_sets():
    assert checks.haight_ok(7, (1, 2, 4), 3)
    assert not checks.haight_ok(7, (1, 2, 4), 4)  # 1 + 2 + 4 = 0 mod 7
    assert not checks.haight_ok(7, (1, 2), 3)  # differences miss 3 and 4


def test_pure_pair_check_finds_a_pure_equilibrium():
    a = [[1, 0], [0, 1]]
    assert not checks.pure_pairs_refuted(a, a, Fraction(1, 4))
    assert checks.pure_pairs_refuted([[1, 0], [0, 1]], [[0, 1], [1, 0]], Fraction(1, 4))


def test_witness_check_rejects_a_non_equilibrium():
    a, b = [[1, 0], [0, 1]], [[0, 1], [1, 0]]
    half = [Fraction(1, 2)] * 2
    checks.check_witness(a, b, half, half, Fraction(0), 2)
    with pytest.raises(checks.CheckFailed):
        checks.check_witness(a, b, [Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)], Fraction(1, 2), 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_witness(a, b, half, half, Fraction(0), 1)  # supports exceed k


def test_structure_checks_reject_wrong_witnesses():
    a, b = [[1, 0], [0, 1]], [[0, 1], [1, 0]]
    checks.check_cycle(a, b, [0, 2, 1, 3], 2)  # r0 -> c0 -> r1 -> c1 -> r0
    with pytest.raises(checks.CheckFailed):
        checks.check_cycle(a, b, [0, 3, 1, 2], 2)
    with pytest.raises(checks.CheckFailed):
        checks.check_undominated(a, b, "row", [0], 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_kl(3, [(0, 1), (1, 2), (2, 0)], 4, 1, 3)
