"""Cheap guards for the traced benchmark, whose own tests run outside the
default test paths: every function and subcommand it wraps must still
exist, its search jobs must be the ones whose trajectories are pinned, its
refutation games must come from the pool the acceptance suite checks,
importing the CLI must stay free of process-pool machinery, its traced
CLI child must find every module it wraps although the CLI loads only the
modules a subcommand uses, and a quick round of each in-process workload
must check out correct."""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wsforge
from conftest import SEARCH_PINS
from test_acceptance import K4_POOL
from wsforge.cli import build_parser, main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    for layer, fname, _ in load_bench_module("tracing").WRAPPED:
        module = importlib.import_module(f"wsforge.{layer}")
        assert callable(getattr(module, fname, None)), f"wsforge.{layer}.{fname}"


def test_traced_subcommands_exist():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name in load_bench_module("tracing").SUBCOMMANDS:
        assert name in sub.choices, name


@pytest.fixture()
def workloads(monkeypatch):
    # workloads.py imports its sibling modules checks and tracing by name.
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        return load_bench_module("workloads")
    finally:
        for name in ("checks", "tracing"):
            sys.modules.pop(name, None)


def test_search_jobs_are_the_pinned_ones(workloads):
    assert list(workloads.SEARCH_JOBS) == list(SEARCH_PINS)


def test_refute_pool_is_the_acceptance_pool(workloads):
    assert workloads.K4_POOL == K4_POOL


def test_cli_import_skips_concurrent_futures():
    src = str(Path(wsforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, wsforge.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"


def test_traced_cli_child_records_reverify(tmp_path):
    cert = tmp_path / "haight.json"
    assert main(["search", "--kappa", "3", "--q-max", "7", "--out", str(cert)]) == 0
    trace = tmp_path / "trace.json"
    src = str(Path(wsforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, WSFORGE_BENCH_TRACE=str(trace))
    code = (
        "import importlib.util\n"
        f"spec = importlib.util.spec_from_file_location('bench_tracing', {str(BENCH / 'tracing.py')!r})\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "tracing.child_main()\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, "reverify", "--cert", str(cert)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("OK [haight]")
    names = {span[0] for span in json.loads(trace.read_text(encoding="utf-8"))}
    assert {"cli.main", "formats.reverify"} <= names


@pytest.mark.parametrize("workload", ["refute", "crosscheck", "search"])
def test_quick_workload_round_is_correct(workload):
    # The benchmark reads wsforge's result types; one toy-sized round checks
    # every output it produces against its independent computations.
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0, report
