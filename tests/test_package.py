"""The package's public names, and the submodules it loads only on first use."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wsforge

# Every name the package re-exports, by the module that defines it.
EXPORTS = {
    "residues": (
        "HaightCertificate", "ResidueSet", "SearchExhausted", "SearchSpec", "difference_set",
        "is_complete_difference_set", "iterated_sumset", "satisfies_haight", "search_haight_set",
        "shift_set",
    ),
    "digraph": (
        "Digraph", "KLCertificate", "KLFailure", "all_subsets_dominated", "cayley", "certify_kl",
        "find_undominated_set", "girth", "is_dominated", "min_out_degree", "power", "shortest_cycle",
    ),
    "game": (
        "CycleWitness", "UndominatedWitness", "WinLoseGame", "bipartify", "char_decision",
        "to_bipartite_digraph",
    ),
    "wsne": (
        "CrosscheckReport", "MixedStrategy", "NoWitness", "SupportPair", "WsneVerdict", "check_wsne",
        "crosscheck_characterization", "exhaustive_search", "feasible_on_supports", "payoffs",
        "wsne_from_cycle", "wsne_from_undominated",
    ),
    "pipeline": ("Stage", "forge"),
}
NAMES = [name for names in EXPORTS.values() for name in names]
SUBMODULES = ("residues", "digraph", "game", "feasibility", "wsne", "pipeline", "formats", "cli")


def test_every_public_name_is_its_modules_object():
    assert len(NAMES) == 42
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"wsforge.{module}")
        for name in names:
            assert getattr(wsforge, name) is getattr(home, name), name


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from wsforge import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert sorted(wsforge.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(wsforge))
    assert wsforge.__version__ == "0.1.0"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wsforge.no_such_name  # noqa: B018


def loaded_after(tmp_path: Path, *argvs: list[str]) -> set[str]:
    """The wsforge submodules whose code has run after ``cli.main`` ran on
    each of ``argvs`` in turn, in a fresh interpreter; every run must exit 0.
    A submodule registered but never used is still a lazy stub, whose type
    is a subclass of ModuleType, not ModuleType itself."""
    code = (
        "import json, sys, types\n"
        "from wsforge import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        f"print(json.dumps([n for n in {SUBMODULES!r}"
        " if type(sys.modules.get('wsforge.' + n)) is types.ModuleType]))\n"
    )
    src = str(Path(wsforge.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_search_and_haight_reverify_load_only_cli_formats_residues(tmp_path):
    loaded = loaded_after(
        tmp_path,
        ["search", "--kappa", "3", "--q-max", "7", "--out", "h.json"],
        ["reverify", "--cert", "h.json"],
    )
    assert loaded == {"cli", "formats", "residues"}


def test_digraph_subcommands_skip_the_equilibrium_layers(tmp_path):
    loaded = loaded_after(
        tmp_path,
        ["cayley", "--q", "7", "--y", "1,2,4", "--out", "d.dg"],
        ["power", "--in", "d.dg", "--t", "2", "--out", "d2.dg"],
        ["certify", "--in", "d.dg", "--k", "3", "--l", "2", "--out", "kl.json"],
        ["reverify", "--cert", "kl.json"],
    )
    assert {"cli", "formats", "residues", "digraph"} <= loaded
    assert not loaded & {"wsne", "feasibility", "pipeline"}

