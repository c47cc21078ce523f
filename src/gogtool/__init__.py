"""Desk-scale toolkit for finite graphs of groups and their tree models:
gate systems, admissible tree patches, caret calculus, count algebra,
simplicial homology, and descending links."""

from .count_algebra import (
    CountVector,
    DicksonBasis,
    History,
    Thresholds,
    alpha,
    dickson_minimal,
    elementary_expansion_predicate,
    order_feasible,
    predict_counts,
    realizable,
    thresholds,
)
from .errors import (
    CapExceeded,
    DegenerateGraphError,
    DicksonBoxExhausted,
    GogError,
    GogSyntaxError,
    InadmissibleGateSystem,
    InvariantViolation,
    ValidationError,
)
from .gates import (
    AdmissibilityCertificate,
    GateSystem,
    default_gates,
    escape_ray,
    is_admissible,
    replay_witness,
)
from .model import (
    EXAMPLE_NOTES,
    Edge,
    GogDocument,
    GraphOfGroups,
    HalfEdge,
    augment,
    example_family,
    glue,
    parse_document,
    parse_gog,
    parse_halfedge,
    serialize_gog,
    tree_degrees,
)
from .patches import (
    CaretTable,
    IntervalLattice,
    TreePatch,
    TreeSystem,
    ViralReport,
    base_tree,
    caret_table,
    check_viral,
    enumerate_admissible,
    expand_leaf,
    history,
    interval_lattice,
    patch_to_dot,
    tree_intersection,
    tree_union,
)
from .simplicial import (
    ConnectivityBound,
    FlagCheck,
    HomologyReport,
    SimplicialComplex,
    homology,
    is_m_flag_wrt,
    is_m_pseudosimplex,
    lemma_connectivity_bound,
    m_joinable,
    random_complex,
    smith_normal_form,
)
from .stein_farley import (
    DescendingLink,
    LinkReport,
    LinkSpec,
    LinkVertex,
    descending_link,
    link_connectivity_report,
    link_difference,
    oracle_descending_link,
    sf_vertices_at_height,
    sf_vertices_at_height_enumerated,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
