"""A fresh process loads only what its job needs, and the package API is unchanged.

numpy loads on its first use and a layer module when its subcommand runs, so
what a job loads is checked in a fresh interpreter: this test process has long
since imported every layer.
"""

import json
import os
import subprocess
import sys
import types

import pytest

import radixtile as rt

SRC = os.path.dirname(os.path.dirname(rt.__file__))

# radixtile.__all__ as it was when the package imported every layer eagerly
ALL = [
    "BudgetError", "DigitAutomaton", "DimReport", "EpSeq", "ExactDim", "IfsSpec", "NeighbourSet",
    "PairAutomaton", "PointCloud", "PreconditionError", "RadixSystem", "RadixTileError", "RasterImage",
    "RemainderTrace", "Representation", "SepIntWitness", "SepSetWitness", "SnfResult", "TranslateSpec",
    "TripleStateGraph", "bm_dimensions", "box_count_exponent", "box_dimension_ep", "build_ifs",
    "check_invariance", "check_selfsim_sep_special", "check_ssc", "companion_system", "convergence_report",
    "digit_of", "digit_restriction_automaton", "discrete_expansion", "enumerate_equivalents", "equivalent",
    "errors", "eval_exact", "evaluate_expansion", "expected_gauss_neighbours", "expected_real_neighbours",
    "gauss_bound_filter", "generic_similarity_dimension", "gk_profile", "graph", "hausdorff_dimension_sep",
    "hausdorff_distance", "integer_neighbours", "integer_sequence", "intersect", "intersection_sequence",
    "is_complete_residue_system", "is_expanding", "is_neighbour_sequence", "is_number_system", "is_sep_int",
    "is_sep_sets", "is_sep_sets_translated", "ktile_points", "level_set_translate", "linalg",
    "minimal_element", "multi_intersection_sequence", "multinv", "neighbour_graph", "neighbours", "numsys",
    "overlap_pixel_count", "pair_automaton", "phi", "psi", "quad_bound_filter", "radix", "rasterize",
    "remainder_sequence", "render", "render_overlap", "representation", "representations_unique",
    "residue_system", "sep", "similarity_dimension", "similarity_dimension_counts", "smith_normal_form",
    "sumset_complement", "tail_bound", "torus_distance", "torus_invariance_check", "translate_spec",
    "triple_state_graph", "union_components", "xk_cloud",
]
SUBMODULES = ["errors", "graph", "intersect", "linalg", "multinv", "neighbours", "numsys", "radix", "render", "sep"]


def loaded_after(code: str) -> set:
    """The sys.modules keys of a fresh interpreter after it runs ``code``."""
    probe = code + "\nimport sys\nsys.stderr.write(chr(10).join(sys.modules))\n"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert done.returncode == 0, done.stderr
    return set(done.stderr.splitlines())


def after_job(tmp_path, argv) -> set:
    path = tmp_path / "base10.json"
    path.write_text(json.dumps({"matrix": [10], "digits": [[d] for d in range(10)]}))
    argv = [argv[0], str(path), *argv[1:]]
    return loaded_after(f"import radixtile.cli\nassert radixtile.cli.main({argv!r}) == 0")


def layers(modules) -> set:
    return {m.split(".", 1)[1] for m in modules if m.startswith("radixtile.")}


@pytest.mark.parametrize(
    "argv",
    [["eval", "-p", '{"pre": [[1]], "cycle": [[0]]}'], ["sep", "-p", '{"pre": [1], "cycle": [0, 2]}']],
    ids=["eval", "sep"],
)
def test_a_job_that_touches_no_array_loads_no_numpy(tmp_path, argv):
    modules = after_job(tmp_path, argv)
    assert not [m for m in modules if m.startswith("numpy.")]
    assert not layers(modules) & {"intersect", "multinv", "neighbours", "render"}


def test_a_job_on_arrays_loads_numpy(tmp_path):
    # positive control for the test above: the probe does see numpy once a job uses it
    assert "numpy._core" in after_job(tmp_path, ["residues"])


def test_import_radixtile_loads_no_layer():
    assert layers(loaded_after("import radixtile")) == set()


def test_import_cli_loads_what_every_job_needs():
    modules = loaded_after("import radixtile.cli")
    assert layers(modules) == {"cli", "errors", "linalg", "numsys", "radix", "graph"}
    assert not [m for m in modules if m.startswith("numpy.")]


def test_numpy_imported_first_is_used_as_it_is():
    code = (
        "import sys, types, numpy\nimport radixtile.linalg as linalg\n"
        "assert linalg.np is sys.modules['numpy'] is numpy and type(numpy) is types.ModuleType"
    )
    loaded_after(code)


def test_numpy_imported_later_is_the_one_lazy_module():
    code = (
        "import sys, types\nimport radixtile.linalg as linalg\nimport numpy\n"
        "assert numpy is linalg.np is sys.modules['numpy'] and type(numpy) is types.ModuleType\n"
        "assert numpy.zeros(2).shape == (2,) and numpy._core.multiarray.ndarray is numpy.ndarray"
    )
    loaded_after(code)


class TestPackageApi:
    def test_all_is_unchanged(self):
        assert rt.__all__ == ALL

    @pytest.mark.parametrize("name", ALL)
    def test_each_name_is_its_module_object(self, name):
        obj = getattr(rt, name)
        if name in SUBMODULES:
            assert obj is sys.modules[f"radixtile.{name}"]
        else:
            assert getattr(sys.modules[obj.__module__], name) is obj

    def test_star_import(self):
        namespace = {}
        exec("from radixtile import *", namespace)
        assert set(ALL) <= set(namespace)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            rt.no_such_name

    def test_a_name_rebound_on_its_module_is_seen(self, monkeypatch):
        # the package keeps no copy, so a wrapper bound on the layer module is what it returns
        stub = types.SimpleNamespace()
        monkeypatch.setattr(rt.linalg, "residue_system", stub)
        assert rt.residue_system is stub
