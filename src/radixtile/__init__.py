"""Exact arithmetic for matrix number systems and self-affine digit tiles.

A layer module is imported when one of its names is first used (PEP 562),
so ``import radixtile`` loads none of them.
"""

from importlib import import_module as _import_module

# each layer module -> the names the package exports from it
_EXPORTS = {
    "errors": "BudgetError PreconditionError RadixTileError",
    "graph": "",
    "linalg": "SnfResult is_complete_residue_system is_expanding residue_system smith_normal_form tail_bound",
    "numsys": (
        "RadixSystem RemainderTrace companion_system digit_of discrete_expansion evaluate_expansion "
        "is_number_system remainder_sequence"
    ),
    "radix": (
        "EpSeq PairAutomaton Representation enumerate_equivalents equivalent eval_exact integer_sequence "
        "is_neighbour_sequence pair_automaton representation representations_unique"
    ),
    "neighbours": (
        "NeighbourSet TripleStateGraph expected_gauss_neighbours expected_real_neighbours gauss_bound_filter "
        "integer_neighbours neighbour_graph quad_bound_filter triple_state_graph"
    ),
    "sep": "SepIntWitness SepSetWitness is_sep_int is_sep_sets is_sep_sets_translated sumset_complement",
    "intersect": (
        "DimReport ExactDim IfsSpec TranslateSpec bm_dimensions box_dimension_ep box_count_exponent build_ifs "
        "check_selfsim_sep_special check_ssc generic_similarity_dimension gk_profile hausdorff_dimension_sep "
        "intersection_sequence level_set_translate minimal_element multi_intersection_sequence "
        "similarity_dimension similarity_dimension_counts translate_spec union_components"
    ),
    "multinv": (
        "DigitAutomaton check_invariance convergence_report digit_restriction_automaton hausdorff_distance "
        "phi psi torus_distance torus_invariance_check xk_cloud"
    ),
    "render": "PointCloud RasterImage ktile_points overlap_pixel_count rasterize render_overlap",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name):
    # Look the name up on its module at each access and keep no copy here, so a
    # function later rebound on the module (a tracer's wrapper) is what is returned.
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{module}")
    return module if name in _EXPORTS else getattr(module, name)
