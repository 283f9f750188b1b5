"""wsforge: construct win-lose bimatrix games with provably no small-support
well-supported equilibria, and verify every step with exact arithmetic.

Importing the package registers every submodule without running it; a
submodule's code runs when one of its attributes is first read, so a CLI
subcommand compiles only the layers it calls. The public names below are
read from their modules on access. The package also defines ``_Frozen``,
the base of the value types of several layers.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

_SUBMODULES = ("residues", "digraph", "game", "feasibility", "wsne", "pipeline", "formats", "cli")

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys((
        "HaightCertificate", "ResidueSet", "SearchExhausted", "SearchSpec", "is_complete_difference_set",
        "satisfies_haight", "search_haight_set",
    ), "residues"),
    **dict.fromkeys((
        "Digraph", "KLCertificate", "KLFailure", "all_subsets_dominated", "cayley", "certify_kl",
        "find_undominated_set", "girth", "is_dominated", "power", "shortest_cycle",
    ), "digraph"),
    **dict.fromkeys((
        "CycleWitness", "UndominatedWitness", "WinLoseGame", "bipartify", "char_decision",
        "to_bipartite_digraph",
    ), "game"),
    **dict.fromkeys((
        "CrosscheckReport", "MixedStrategy", "NoWitness", "WsneVerdict", "check_wsne",
        "crosscheck_characterization", "exhaustive_search", "wsne_from_cycle", "wsne_from_undominated",
    ), "wsne"),
    **dict.fromkeys(("Stage", "forge"), "pipeline"),
}
__all__ = list(_HOME)


class _Frozen:
    """Base of wsforge's validated immutable values, whose fields are their
    ``__slots__``: equal (same class) and hashed by field values, shown as
    ``Name(field=value, ...)``. Assigning or deleting a field raises
    AttributeError; a subclass's ``__init__`` validates its arguments, then
    passes them to this ``__init__``, which stores them in slot order. It
    lives in the package itself, which every process has run, so that no
    module loads only for it."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


def _register_lazy(name: str):
    """Put submodule ``name`` in sys.modules, its code to run on first attribute access."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _register_lazy(name) for name in _SUBMODULES})


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *__all__})
