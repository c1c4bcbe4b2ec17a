"""Exact arithmetic for matrix number systems and self-affine digit tiles."""

from .errors import (
    BudgetError,
    PreconditionError,
    RadixTileError,
)
from .linalg import (
    SnfResult,
    is_complete_residue_system,
    is_expanding,
    residue_system,
    smith_normal_form,
    tail_bound,
)
from .numsys import (
    RadixSystem,
    RemainderTrace,
    companion_system,
    digit_of,
    discrete_expansion,
    evaluate_expansion,
    is_number_system,
    remainder_sequence,
)
from .radix import (
    EpSeq,
    PairAutomaton,
    Representation,
    enumerate_equivalents,
    equivalent,
    eval_exact,
    integer_sequence,
    is_neighbour_sequence,
    pair_automaton,
    representation,
    representations_unique,
)
from .neighbours import (
    NeighbourSet,
    TripleStateGraph,
    expected_gauss_neighbours,
    expected_real_neighbours,
    gauss_bound_filter,
    integer_neighbours,
    neighbour_graph,
    quad_bound_filter,
    triple_state_graph,
)
from .sep import (
    SepIntWitness,
    SepSetWitness,
    is_sep_int,
    is_sep_sets,
    is_sep_sets_translated,
    sumset_complement,
)
from .intersect import (
    DimReport,
    ExactDim,
    IfsSpec,
    TranslateSpec,
    bm_dimensions,
    box_dimension_ep,
    box_count_exponent,
    build_ifs,
    check_selfsim_sep_special,
    check_ssc,
    generic_similarity_dimension,
    gk_profile,
    hausdorff_dimension_sep,
    intersection_sequence,
    level_set_translate,
    minimal_element,
    multi_intersection_sequence,
    similarity_dimension,
    similarity_dimension_counts,
    translate_spec,
    union_components,
)
from .multinv import (
    DigitAutomaton,
    check_invariance,
    convergence_report,
    digit_restriction_automaton,
    hausdorff_distance,
    phi,
    psi,
    torus_distance,
    torus_invariance_check,
    xk_cloud,
)
from .render import (
    PointCloud,
    RasterImage,
    ktile_points,
    overlap_pixel_count,
    rasterize,
    render_overlap,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
