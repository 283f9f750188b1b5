"""wsforge: construct win-lose bimatrix games with provably no small-support
well-supported equilibria, and verify every step with exact arithmetic."""

__version__ = "0.1.0"

from .residues import (
    HaightCertificate,
    ResidueSet,
    SearchExhausted,
    SearchSpec,
    difference_set,
    is_complete_difference_set,
    iterated_sumset,
    satisfies_haight,
    search_haight_set,
    shift_set,
)
from .digraph import (
    Digraph,
    KLCertificate,
    KLFailure,
    all_subsets_dominated,
    cayley,
    certify_kl,
    find_undominated_set,
    girth,
    is_dominated,
    min_out_degree,
    power,
    shortest_cycle,
)
from .game import (
    CycleWitness,
    UndominatedWitness,
    WinLoseGame,
    bipartify,
    char_decision,
    to_bipartite_digraph,
)
from .wsne import (
    CrosscheckReport,
    MixedStrategy,
    NoWitness,
    SupportPair,
    WsneVerdict,
    check_wsne,
    crosscheck_characterization,
    exhaustive_search,
    feasible_on_supports,
    payoffs,
    wsne_from_cycle,
    wsne_from_undominated,
)
from .pipeline import Stage, forge
