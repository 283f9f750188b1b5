"""The package's public names, the submodules it loads only on first use,
and the value semantics of its record and value types."""

from __future__ import annotations

import ast
import copy
import importlib
import json
import pickle
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wsforge
from conftest import run_python
from wsforge.digraph import Digraph, KLCertificate, KLFailure
from wsforge.formats import CertificateEnvelope, ReverifyResult
from wsforge.game import CycleWitness, UndominatedWitness, WinLoseGame
from wsforge.residues import HaightCertificate, ResidueSet, SearchExhausted, SearchSpec
from wsforge.wsne import (
    CrosscheckPoint,
    CrosscheckReport,
    MixedStrategy,
    NoWitness,
    Violation,
    WsneVerdict,
)

# Every name the package re-exports, by the module that defines it.
EXPORTS = {
    "residues": (
        "HaightCertificate", "ResidueSet", "SearchExhausted", "SearchSpec", "is_complete_difference_set",
        "satisfies_haight", "search_haight_set",
    ),
    "digraph": (
        "Digraph", "KLCertificate", "KLFailure", "all_subsets_dominated", "cayley", "certify_kl",
        "find_undominated_set", "girth", "is_dominated", "power", "shortest_cycle",
    ),
    "game": (
        "CycleWitness", "UndominatedWitness", "WinLoseGame", "bipartify", "char_decision",
        "to_bipartite_digraph",
    ),
    "wsne": (
        "CrosscheckReport", "MixedStrategy", "NoWitness", "WsneVerdict", "check_wsne",
        "crosscheck_characterization", "exhaustive_search", "wsne_from_cycle", "wsne_from_undominated",
    ),
    "pipeline": ("Stage", "forge"),
}
NAMES = [name for names in EXPORTS.values() for name in names]
SUBMODULES = ("residues", "digraph", "game", "feasibility", "wsne", "pipeline", "formats", "cli")


def test_every_public_name_is_its_modules_object():
    assert len(NAMES) == 35
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


@pytest.mark.parametrize("module", SUBMODULES)
def test_star_import_of_each_submodule_resolves_its_all(module):
    namespace: dict = {}
    exec(f"from wsforge.{module} import *", namespace)  # an unresolved name raises
    assert set(getattr(importlib.import_module(f"wsforge.{module}"), "__all__", ())) <= set(namespace)


SOURCES = sorted(Path(wsforge.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_sources_import_only_the_standard_library_and_use_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.partition(".")[0] in sys.stdlib_module_names, alias.name
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                assert node.module.partition(".")[0] in sys.stdlib_module_names, node.module
            if node.module != "__future__":
                bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in bound.items() if name not in used}
    assert not unused, f"{path.name}: imported and never used: {unused}"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wsforge.no_such_name  # noqa: B018


# Standard-library modules that a CLI run should import only when it parses
# or computes a rational: together they cost each process about 4 ms.
RATIONALS = ("fractions", "decimal")


def loaded_after(tmp_path: Path, *argvs: list[str]) -> set[str]:
    """The wsforge submodules whose code has run after ``cli.main`` ran on
    each of ``argvs`` in turn, in a fresh interpreter, together with those
    of ``RATIONALS`` that the runs imported; every run must exit 0. A
    submodule registered but never used is still a lazy stub, whose type is
    a subclass of ModuleType, not ModuleType itself.

    The runs must also leave ``dataclasses`` unloaded: its import and its
    class synthesis cost every CLI process milliseconds. The interpreter
    starts with -S, so that no site hook loads a module on its own."""
    code = (
        "import json, sys, types\n"
        "from wsforge import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "assert 'dataclasses' not in sys.modules, 'dataclasses was imported'\n"
        f"print(json.dumps([n for n in {SUBMODULES!r}"
        " if type(sys.modules.get('wsforge.' + n)) is types.ModuleType]"
        f" + [n for n in {RATIONALS!r} if n in sys.modules]))\n"
    )
    done = run_python("-S", "-c", code, json.dumps(argvs), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_search_and_haight_reverify_load_only_cli_formats_residues(tmp_path):
    # search also loads pipeline, whose search step words its outcome
    searched = loaded_after(tmp_path, ["search", "--kappa", "3", "--q-max", "7", "--out", "h.json"])
    assert searched == {"cli", "formats", "residues", "pipeline"}  # and neither of RATIONALS
    assert loaded_after(tmp_path, ["reverify", "--cert", "h.json"]) == {"cli", "formats", "residues"}


def test_digraph_subcommands_skip_the_equilibrium_layers(tmp_path):
    loaded = loaded_after(
        tmp_path,
        ["cayley", "--q", "7", "--y", "1,2,4", "--out", "d.dg"],
        ["power", "--in", "d.dg", "--t", "2", "--out", "d2.dg"],
        ["certify", "--in", "d.dg", "--k", "3", "--l", "2", "--out", "kl.json"],
        ["bipartify", "--in", "d.dg", "--out", "g.wl"],
        ["reverify", "--cert", "kl.json"],
    )
    assert {"cli", "formats", "residues", "digraph", "game", "pipeline"} <= loaded
    assert not loaded & {"wsne", "feasibility", *RATIONALS}


def test_digraph_subcommands_without_cayley_skip_residues(tmp_path):
    # The Paley-7 tournament, 0 -> z - r for r in {1, 2, 4}, written by hand.
    arcs = [(z, (z - r) % 7) for z in range(7) for r in (1, 2, 4)]
    (tmp_path / "d.dg").write_text(f"7 {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in sorted(arcs)))
    loaded = loaded_after(
        tmp_path,
        ["power", "--in", "d.dg", "--t", "2", "--out", "d2.dg"],
        ["certify", "--in", "d.dg", "--k", "3", "--l", "2", "--out", "kl.json"],
        ["bipartify", "--in", "d.dg", "--out", "g.wl"],
        ["reverify", "--cert", "kl.json"],
    )
    assert loaded == {"cli", "formats", "digraph", "game", "pipeline"}  # pipeline: certify's step


def test_readme_chain_loads_every_layer_but_not_dataclasses(tmp_path):
    loaded = loaded_after(
        tmp_path,
        ["search", "--kappa", "3", "--q-max", "7", "--out", "haight.json"],
        ["cayley", "--cert", "haight.json", "--out", "paley7.dg"],
        ["certify", "--in", "paley7.dg", "--k", "3", "--l", "2", "--out", "kl.json"],
        ["power", "--in", "paley7.dg", "--t", "2", "--out", "squared.dg"],
        ["bipartify", "--in", "paley7.dg", "--out", "game.wl"],
        ["exhaust", "--game", "game.wl", "--k", "1", "--eps", "99/100", "--out", "refutation.json"],
        ["exhaust", "--game", "game.wl", "--k", "2", "--eps", "1/2", "--out", "witness.json"],
        ["check", "--game", "game.wl", "--strategy", "witness.json", "--eps", "1/2"],
        *(["reverify", "--cert", cert] for cert in ("haight.json", "kl.json", "refutation.json", "witness.json")),
        ["forge", "--k", "1", "--eps", "99/100"],
    )
    # Supports of size <= 2 are solved in closed form, so the chain never
    # runs the Fourier-Motzkin solver and never loads its module.
    assert loaded == {*SUBMODULES, *RATIONALS} - {"feasibility"}


# ---------------------------------------------------------------------------
# Records and values: NamedTuple records, validated plain-class values
# ---------------------------------------------------------------------------

HALF = Fraction(1, 2)

# Plain records are NamedTuples; each with its repr.
RECORDS = [
    (HaightCertificate(7, ResidueSet(7, 0b10110), 3, 5),
     "HaightCertificate(modulus=7, y=ResidueSet(modulus=7, bits=22), kappa=3, candidates_evaluated=5)"),
    (SearchExhausted(10), "SearchExhausted(candidates_evaluated=10)"),
    (KLCertificate(3, 2, 3), "KLCertificate(k=3, l=2, girth_found=3)"),
    (KLFailure(3, 2, short_cycle=(0, 1)), "KLFailure(k=3, l=2, short_cycle=(0, 1), undominated=None)"),
    (CycleWitness((0, 3, 1, 2)), "CycleWitness(vertices=(0, 3, 1, 2))"),
    (UndominatedWitness("row", (0, 1)), "UndominatedWitness(side='row', indices=(0, 1))"),
    (CertificateEnvelope("haight", {"q": 7}, "wsforge 0.1.0", "wsforge search"),
     "CertificateEnvelope(kind='haight', payload={'q': 7}, toolchain='wsforge 0.1.0', replay='wsforge search')"),
    (ReverifyResult(True, "haight", "q=7"), "ReverifyResult(ok=True, kind='haight', detail='q=7')"),
    (Violation("row", 1, HALF, HALF),
     "Violation(player='row', index=1, payoff=Fraction(1, 2), shortfall=Fraction(1, 2))"),
    (WsneVerdict(True, HALF, HALF, HALF, ()),
     "WsneVerdict(valid=True, epsilon=Fraction(1, 2), row_best=Fraction(1, 2), col_best=Fraction(1, 2),"
     " violations=())"),
    (CrosscheckPoint(HALF, None, NoWitness(4), True),
     "CrosscheckPoint(eps=Fraction(1, 2), char_witness=None, search_result=NoWitness(pairs_refuted=4),"
     " agree=True)"),
    (CrosscheckReport(1, True, ()), "CrosscheckReport(k=1, agree=True, points=())"),
]

# Values that validate, or must not be tuples: frozen plain classes. Each
# with its repr and a value that differs from it in one field.
VALUES = [
    (ResidueSet(5, 3), "ResidueSet(modulus=5, bits=3)", ResidueSet(5, 1)),
    (SearchSpec(3, 7, 9),
     "SearchSpec(kappa=3, q_min=7, q_max=9, budget=1000000, seed=0, mode='exhaustive')",
     SearchSpec(3, 7, 9, mode="randomized")),
    (MixedStrategy((HALF, HALF)), "MixedStrategy(probs=(Fraction(1, 2), Fraction(1, 2)))",
     MixedStrategy((Fraction(1), Fraction(0)))),
    (NoWitness(3), "NoWitness(pairs_refuted=3)", NoWitness(4)),
]


def rebuilt(value):
    """An equal value built anew from the same field values."""
    fields = value._fields if isinstance(value, tuple) else value.__slots__
    return type(value)(*(getattr(value, name) for name in fields))


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_are_named_tuples_with_field_reprs(record, text):
    assert isinstance(record, tuple)
    assert repr(record) == text
    other = rebuilt(record)
    assert other == record and other is not record
    if not isinstance(record, CertificateEnvelope):  # its payload is a dict
        assert hash(other) == hash(record)
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)


@pytest.mark.parametrize("value, text, differing", VALUES, ids=[type(v).__name__ for v, _, _ in VALUES])
def test_values_are_frozen_and_compare_by_fields(value, text, differing):
    assert not isinstance(value, tuple)
    assert repr(value) == text
    other = rebuilt(value)
    assert other == value and hash(other) == hash(value) and not other != value
    assert differing != value and value != differing
    assert value != tuple(getattr(value, name) for name in value.__slots__)
    assert copy.copy(value) == value and pickle.loads(pickle.dumps(value)) == value
    for name in value.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert rebuilt(value) == value  # unchanged


def test_no_witness_and_residue_set_are_not_tuples():
    # callers tell a witness pair from a refutation by isinstance(result, tuple)
    assert not isinstance(NoWitness(3), tuple)
    assert not isinstance(ResidueSet(5, 3), tuple)
    assert len(ResidueSet(5, 3)) == 2 and list(ResidueSet(5, 3)) == [0, 1]


def test_values_keep_their_validation_messages():
    with pytest.raises(ValueError, match="modulus must be >= 1, got 0"):
        ResidueSet(0)
    with pytest.raises(ValueError, match=r"need 1 <= q_min <= q_max, got \[9, 7\]"):
        SearchSpec(3, 9, 7)
    with pytest.raises(ValueError, match="unknown mode 'greedy'"):
        SearchSpec(3, 7, 9, mode="greedy")
    with pytest.raises(TypeError, match="entry 0 is int, expected Fraction"):
        MixedStrategy((1,))


@pytest.mark.parametrize("make, text, cached", [
    (lambda: Digraph(2, (0b10, 0b01)), "Digraph(n=2, out=(2, 1))", "in_masks"),
    (lambda: WinLoseGame(1, 2, (0b01,), (0b10,)), "WinLoseGame(m=1, n=2, a_rows=(1,), b_rows=(2,))", "b_col_masks"),
], ids=["Digraph", "WinLoseGame"])
def test_digraph_and_game_are_equal_by_fields_and_unhashable(make, text, cached):
    value = make()
    assert value != tuple(vars(value).values())
    getattr(value, cached)  # a cached property is not a field
    assert repr(value) == text
    assert value == make() and not value != make()
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)
