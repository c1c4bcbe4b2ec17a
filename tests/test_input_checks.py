"""Inputs that violate a precondition end in exit 2, never a hang or traceback."""

import json
import sys
from fractions import Fraction

import pytest

import radixtile as rt
from radixtile import cli, linalg
from radixtile.errors import PreconditionError

from conftest import address_space, charged, gauss_system, run_cli_process


def test_mat_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        linalg.mat_pow(((2,),), -1)
    assert linalg.mat_pow(((2,),), 0) == ((1,),)


def test_negative_depth_is_a_precondition(base10):
    with pytest.raises(PreconditionError):
        rt.ktile_points(base10, -1)
    with pytest.raises(PreconditionError):
        rt.render_overlap(gauss_system(3), (1, 0), -1, 8, 8)


def test_empty_image_is_a_precondition(base10):
    cloud = rt.ktile_points(base10, 2)
    for width, height in ((0, 4), (4, 0)):
        with pytest.raises(PreconditionError):
            rt.rasterize([cloud], width, height)


def test_bbox_must_be_increasing(base10):
    cloud = rt.ktile_points(base10, 2)
    for bbox in (((1, 0), (0, 1)), ((0, 1), (1, 1))):
        box = tuple((Fraction(lo), Fraction(hi)) for lo, hi in bbox)
        with pytest.raises(PreconditionError):
            rt.rasterize([cloud], 16, 4, bbox=box)


def test_shift_dimension_must_match(base10):
    with pytest.raises(PreconditionError):
        rt.render_overlap(gauss_system(3), (1,), 2, 8, 8)
    with pytest.raises(PreconditionError):
        rt.render_overlap(base10, (1, 0), 2, 8, 8)


@pytest.mark.parametrize(
    "payload, extra",
    [
        ({"k": -1}, []),
        ({"k": -1}, ["--overlap", "1,0"]),
        ({"k": 2, "width": 0}, []),
        ({"k": 2, "height": 0}, []),
        ({"k": 2, "width": 0}, ["--overlap", "1,0"]),
        ({"k": 2}, ["--overlap", "1"]),
        ({"k": 2, "width": 2.5}, []),
        ({"k": 2, "width": "8"}, []),
        ({"k": 2, "height": True}, ["--overlap", "1,0"]),
        ({"k": 2.7}, []),
        ({"k": "2"}, []),
        ({"k": 2, "bbox": [["1", "0"], ["-1", "1"]]}, []),
        ({"k": 2, "bbox": [["0", "1"], ["1/2", "1/2"]]}, []),
    ],
)
def test_cli_render_rejects_bad_input(tmp_path, capsys, payload, extra):
    path = tmp_path / "m3i.json"
    path.write_text(json.dumps({"matrix": [-3, -1, 1, -3], "digits": [[d, 0] for d in range(10)]}))
    code = cli.main(["render", str(path), "-p", json.dumps(payload), *extra])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "PreconditionViolated"


def test_cli_cloud_rejects_negative_depth(tmp_path, capsys):
    path = tmp_path / "base10.json"
    path.write_text(json.dumps({"matrix": [10], "digits": [[d] for d in range(10)]}))
    payload = json.dumps({"restrict": [[0], [2]], "k": -1})
    assert cli.main(["multinv", "cloud", str(path), "-p", payload]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ValueError"


def test_cli_converge_rejects_negative_kmax(tmp_path, capsys):
    path = tmp_path / "base3.json"
    path.write_text(json.dumps({"matrix": [3], "digits": [[0], [1], [2]]}))
    payload = {"restrict": [[0], [2]]}
    assert cli.main(["multinv", "converge", str(path), "-p", json.dumps({**payload, "kmax": -1})]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "ValueError", "message": "kmax must be >= 0, got -1"}
    assert cli.main(["multinv", "converge", str(path), "-p", json.dumps({**payload, "kmax": 0})]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == []


@pytest.mark.parametrize("action, extra", [("cloud", {"k": 2}), ("check", {"torus_k": 2}), ("converge", {"kmax": 2})])
@pytest.mark.parametrize("n_digits", [2, 4])
def test_cli_automaton_must_read_the_system_digits(tmp_path, capsys, action, extra, n_digits):
    path = tmp_path / "base3.json"
    path.write_text(json.dumps({"matrix": [3], "digits": [[0], [1], [2]]}))
    auto = {"n_digits": n_digits, "transitions": [[1] * n_digits, [1] * n_digits], "accepting": [1]}
    assert cli.main(["multinv", action, str(path), "-p", json.dumps({"automaton": auto, **extra})]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "PreconditionViolated"


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["eval"], {"cycle": 5}),
        (["eval"], {"cycle": [1], "pre": "x"}),
        (["eval"], {"cycle": ["1"]}),
        (["eval"], {"cycle": [True]}),
        (["equiv"], {"x": 5, "y": {"cycle": [0]}}),
        (["sep"], {"kind": "int", "cycle": [[1]]}),
        (["sep"], {"kind": "sets", "cycle": [5]}),
        (["sep"], {"kind": "sets", "cycle": [[[1], "2"]]}),
        (["multinv", "cloud"], {"restrict": [[0], [2]], "k": [1]}),
        (["multinv", "cloud"], {"restrict": [[0], [2]], "k": 2.0}),
        (["multinv", "converge"], {"restrict": [[0], [2]], "kmax": "3"}),
        (["multinv", "check"], {"restrict": [[0], [2]], "torus_k": True}),
        (["intersect"], {"alpha": {"cycle": [[5]]}, "strict": False, "max_block": "x"}),
        (["intersect"], {"alpha": {"cycle": [[5]]}, "strict": False, "empirical_depth": "3"}),
        (["intersect"], {"alpha": {"cycle": [[5]]}, "strict": "no"}),
        (["intersect", "--multi"], {"alphas": [{"cycle": [[5]]}], "strict": 0}),
        (["sep"], {"kind": "sets-translated", "cycle": [[[0]]], "max_block": 2.5}),
        (["dims", "hausdorff"], {"alpha": {"cycle": [[5]]}, "strict": False, "max_block": True}),
        (["dims", "box"], {"alpha": {"cycle": [[5]]}, "strict": False, "empirical_depth": 2.0}),
        (["dims", "bm"], {"m": 2, "n": 3, "digits": [[0, 0]], "allow_refined": 1}),
        (["levelset", "--lam", "1/2"], {"strict": "false"}),
        (["enumerate-equiv"], {"x": {"cycle": [[0]]}, "limit": "4"}),
        (["union-components"], {"alpha": {"cycle": [[0]]}, "limit": 4.0}),
        (["dims", "bm"], {"m": "2", "n": 3, "digits": [[0, 0]]}),
        (["levelset", "--lam", "1/2"], {"strict": False, "alpha_prefix": 5}),
        (["levelset", "--lam", "1/2"], {"strict": False, "alpha_prefix": [["4"]]}),
        (["expand"], {"vector": [12.9]}),
        (["expand"], {"vector": True}),
        (["multinv", "cloud"], {"restrict": [[0.5], [2]], "k": 2}),
        (["multinv", "cloud"], {"restrict": 5, "k": 2}),
        (["multinv", "cloud"], {"restrict": [[0], [True]], "k": 2}),
        (["multinv", "cloud"], {"automaton": [1], "k": 2}),
        (["multinv", "cloud"], {"automaton": {"n_digits": 10.0, "transitions": [[0] * 10], "accepting": [0]}, "k": 2}),
        (["multinv", "cloud"], {"automaton": {"n_digits": 10, "transitions": [[0] * 9 + [True]], "accepting": [0]}, "k": 2}),
        (["multinv", "cloud"], {"automaton": {"n_digits": 10, "transitions": 4, "accepting": [0]}, "k": 2}),
        (["multinv", "cloud"], {"automaton": {"n_digits": 10, "transitions": [[0] * 10], "accepting": 0}, "k": 2}),
        (["multinv", "check"], {"automaton": {"n_digits": 10, "transitions": [[0] * 10], "accepting": [0], "initial": "0"}}),
        (["dims", "bm"], {"m": 2, "n": 3, "digits": 5}),
        (["dims", "bm"], {"m": 2, "n": 3, "digits": [[0, 0.5]]}),
        (["render"], {"k": 1, "bbox": 5}),
        (["render"], {"k": 1, "bbox": [5, 6]}),
        (["render"], {"k": 1, "bbox": [["0", "1"]]}),
        (["intersect", "--multi"], {"alphas": 5}),
        (["render"], {"k": 1, "seed": [1]}),
        (["render"], {"k": 1, "seed": 1.5}),
        (["levelset", "--lam", "1/0"], {"strict": False}),
        (["levelset", "--lam", "1/2"], {"strict": False, "alpha": {"cycle": [[5]]}, "epsilon": "1/0"}),
        (["render"], {"k": 1, "bbox": [["0", "1/0"], ["0", "1"]]}),
        (["levelset", "--lam", "abc"], {"strict": False}),
        (["levelset", "--lam", "1/2"], {"strict": False, "alpha": {"cycle": [[5]]}, "epsilon": "abc"}),
        (["render"], {"k": 1, "bbox": [["x", "1"], ["0", "1"]]}),
    ],
)
def test_cli_payload_types_are_checked(tmp_path, capsys, argv, payload):
    path = tmp_path / "base10.json"
    path.write_text(json.dumps({"matrix": [10], "digits": [[d] for d in range(10)]}))
    assert cli.main([*argv, str(path), "-p", json.dumps(payload)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "PreconditionViolated"


@pytest.mark.parametrize("digits", [[[0]], [[0, 0, 0]], [[0, 0], [1]]])
def test_cli_bm_digits_are_pairs(tmp_path, capsys, digits):
    path = tmp_path / "base10.json"
    path.write_text(json.dumps({"matrix": [10], "digits": [[d] for d in range(10)]}))
    assert cli.main(["dims", "bm", str(path), "-p", json.dumps({"m": 2, "n": 3, "digits": digits})]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "GridViolation"


def test_automaton_initial_state_must_exist(tmp_path, capsys):
    path = tmp_path / "base3.json"
    path.write_text(json.dumps({"matrix": [3], "digits": [[0], [1], [2]]}))
    for initial in (1, -1):
        auto = {"n_digits": 3, "transitions": [[0, 0, 0]], "accepting": [0], "initial": initial}
        assert cli.main(["multinv", "cloud", str(path), "-p", json.dumps({"automaton": auto, "k": 2})]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == {"type": "ValueError", "message": "initial state out of range"}


@pytest.mark.parametrize(
    "descriptor",
    [
        {"matrix": [10.7], "digits": [[d] for d in range(10)]},
        {"matrix": [True], "digits": [[0]]},
        {"matrix": 5, "digits": [[0]]},
        {"matrix": [[2, 0], 3], "digits": [[0, 0]]},
        {"matrix": [2, [0], 0, 2], "digits": [[0, 0]]},
        {"matrix": [[2, 0], [0, "2"]], "digits": [[0, 0]]},
        {"matrix": [10], "digits": 3},
        {"matrix": [10], "digits": [[0], [1.0]]},
        {"matrix": [10], "digits": [[0], [True]]},
        {"polynomial": [1]},
        {"polynomial": {"coeffs": [3, 3.5], "digits": [0, 1, 2]}},
        {"polynomial": {"coeffs": 3, "digits": [0, 1, 2]}},
        {"polynomial": {"coeffs": [3, 3], "digits": [0, 1, [2]]}},
        {"polynomial": {"coeffs": [3, 3], "digits": [0, 1, False]}},
        {"matrix": [], "digits": []},
        {"polynomial": {"coeffs": [], "digits": [0]}},
        {"matrix": [[2, 0], [0]], "digits": [[0, 0]]},
        {"matrix": [2, 0, 0], "digits": [[0]]},
        {"matrix": [10], "digits": [[0], [1], [1]]},
        {"matrix": [10], "digits": [[0], [1, 0]]},
        {"matrix": [[2, 0], [0, 2]], "digits": [[0], [1]]},
    ],
)
def test_cli_descriptor_types_are_checked(tmp_path, capsys, descriptor):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(descriptor))
    assert cli.main(["residues", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "PreconditionViolated"


@pytest.mark.parametrize(
    "matrix, digits",
    [(((2, 0), (0,)), ((0, 0),)), (((10,),), ((0,), (1,), (0,))), (((10,),), ((0,), (1, 0))), (((2, 0), (0, 2)), ((0,),))],
)
def test_bad_system_is_a_precondition(matrix, digits):
    with pytest.raises(PreconditionError):
        rt.RadixSystem(matrix, digits)


HUGE = 3 * 10**400 + 2  # far above the largest double, about 1.8e308


@pytest.mark.parametrize(
    "argv, digits, payload, code",
    [
        # the candidate ball is counted before a norm is taken in floats
        (["neighbours"], [0, 10**200], None, 3),
        (["unique"], [0, 10**200], None, 3),
        (["triple-graph"], [0, 10**200], None, 3),
        # max_digit_norm squares the 3e200 digit; eval and cloud turn 3e400 into a float
        (["multinv", "converge"], [0, 1, 3 * 10**200 + 2], {"restrict": [[0], [1]], "kmax": 3}, 2),
        (["eval"], [0, 1, HUGE], {"pre": [[HUGE]], "cycle": [[0]]}, 2),
        (["multinv", "cloud"], [0, 1, HUGE], {"restrict": [[0], [HUGE]], "k": 1}, 2),
    ],
)
def test_float_overflow_ends_in_one_error_object(tmp_path, argv, digits, payload, code):
    path = tmp_path / "base3.json"
    path.write_text(json.dumps({"matrix": [3], "digits": [[d] for d in digits]}))
    extra = [] if payload is None else ["-p", json.dumps(payload)]
    done = run_cli_process([*argv, str(path), *extra], address_space(1))
    assert done.returncode == code, done.stderr
    [line] = done.stdout.splitlines()
    assert set(json.loads(line)["error"]) == {"type", "message"}
    if code == 3:
        charged(json.loads(line)["error"], "ball points", 10**7)


BIG = "1" + "0" * 5000  # a JSON integer of 5,001 digits, written as text: json.dumps stops at the digit limit too
BASE10 = '{"matrix": [10], "digits": [0, 1, 2, 3, 4, 5, 6, 7, 8, %s]}'


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="this Python reads integers of any length")
@pytest.mark.parametrize(
    "descriptor, argv, what",
    [
        (BASE10 % BIG, ["residues"], "descriptor"),
        (BASE10 % 9, ["eval", "-p", '{"pre": [[%s]], "cycle": [[0]]}' % BIG], "payload"),
    ],
)
def test_an_integer_past_the_digit_limit_is_a_precondition(monkeypatch, tmp_path, descriptor, argv, what):
    path = tmp_path / "base10.json"
    path.write_text(descriptor)
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "4300")
    done = run_cli_process([argv[0], str(path), *argv[1:]], address_space(1))
    assert done.returncode == 2, done.stderr
    [line] = done.stdout.splitlines()
    assert json.loads(line)["error"] == {
        "type": "PreconditionViolated", "message": f"the {what} holds an integer past Python's limit of 4300 digits"
    }


def test_files_that_are_not_utf8_are_preconditions(tmp_path, capsys):
    # a 0xff byte is never UTF-8, whatever the locale's encoding reads
    descriptor, payload = tmp_path / "bad.json", tmp_path / "payload.json"
    descriptor.write_bytes(b'{"matrix": [10], "digits": [[0], [1], [2], [3], [4], [5], [6], [7], [8], [9\xff]]}')
    payload.write_bytes(b'{"pre": [[1]], "cycle": [[0]]}\xff')
    base10 = tmp_path / "base10.json"
    base10.write_text(json.dumps({"matrix": [10], "digits": [[d] for d in range(10)]}))
    for argv, what in (
        (["residues", str(descriptor)], "descriptor"),
        (["eval", str(base10), "-p", str(payload)], "payload"),
    ):
        assert cli.main(argv) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "PreconditionViolated" and f"the {what} file" in error["message"]
