import json
import math
import resource
import sys

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radixtile import cli, linalg
from radixtile.errors import DepthTooLarge, charge
from radixtile.radix import Representation, eval_exact, vector_seq

from conftest import charged, int_max_str_digits, parse_exact, run_cli_process


@pytest.fixture
def base10_file(tmp_path):
    path = tmp_path / "base10.json"
    path.write_text(json.dumps({"matrix": [10], "digits": [[d] for d in range(10)]}))
    return str(path)


@pytest.fixture
def m3i_file(tmp_path):
    path = tmp_path / "m3i.json"
    path.write_text(
        json.dumps({"matrix": [-3, -1, 1, -3], "digits": [[0, 0], [4, 0], [8, 0]]})
    )
    return str(path)


@pytest.fixture
def twin_file(tmp_path):
    path = tmp_path / "twin.json"
    path.write_text(
        json.dumps({"matrix": [2, 0, 0, 2], "digits": [[0, 0], [1, 0], [0, 1], [1, 1]]})
    )
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


class TestSubcommands:
    def test_neighbours(self, capsys, base10_file):
        code, data = run_json(capsys, ["neighbours", base10_file])
        assert code == 0
        assert data["neighbours"] == [[-1], [1]]

    def test_numsys_check(self, capsys, twin_file):
        code, data = run_json(capsys, ["numsys-check", twin_file])
        assert code == 0
        assert data["number_system"] is False
        assert [[-1, 0]] in data["witness_cycles"]

    def test_dims_box_fixture(self, capsys, m3i_file):
        payload = json.dumps({"alpha": {"pre": [[-4, 0], [-8, 0]], "cycle": [[0, 0], [8, 0]]}})
        code, data = run_json(capsys, ["dims", "box", m3i_file, "-p", payload])
        assert code == 0
        assert data["exact"] == "log(3)/log(10)"
        assert abs(data["float"] - 0.47712125471966244) < 1e-15

    def test_eval_exact_strings(self, capsys, base10_file):
        payload = json.dumps({"pre": [[1]], "cycle": [[0]]})
        code, data = run_json(capsys, ["eval", base10_file, "-p", payload])
        assert code == 0
        assert data["value"]["exact"] == ["1/10"]

    def test_equiv(self, capsys, base10_file):
        payload = json.dumps(
            {"x": {"pre": [[1]], "cycle": [[0]]}, "y": {"pre": [[0]], "cycle": [[9]]}}
        )
        code, data = run_json(capsys, ["equiv", base10_file, "-p", payload])
        assert code == 0
        assert data["equivalent"] is True
        assert data["neighbour_walk_agrees"] is True

    def test_expand(self, capsys, base10_file):
        code, data = run_json(capsys, ["expand", base10_file, "-p", '{"vector": [905]}'])
        assert code == 0
        assert data["digits"] == [[5], [0], [9]]

    def test_residues(self, capsys, base10_file):
        code, data = run_json(capsys, ["residues", base10_file])
        assert code == 0
        assert data["count"] == 10

    def test_unique_difference(self, capsys, m3i_file):
        code, data = run_json(capsys, ["unique", "--difference", m3i_file])
        assert code == 0
        assert data["unique"] is True

    def test_enumerate_equiv(self, capsys, base10_file):
        payload = json.dumps({"x": {"pre": [[1]], "cycle": [[0]]}})
        code, data = run_json(capsys, ["enumerate-equiv", base10_file, "-p", payload])
        assert code == 0
        assert data["classification"] == "finitely-many"
        assert len(data["samples"]) == 2

    def test_sep_int(self, capsys, base10_file):
        payload = json.dumps({"kind": "int", "pre": [0], "cycle": [2]})
        code, data = run_json(capsys, ["sep", base10_file, "-p", payload])
        assert code == 0
        assert data["sep"] is True
        assert data["witness"]["block"] == 1

    def test_intersect_full_report(self, capsys, m3i_file):
        payload = json.dumps({"alpha": {"pre": [[-4, 0], [-8, 0]], "cycle": [[0, 0], [8, 0]]}})
        code, data = run_json(capsys, ["intersect", m3i_file, "-p", payload])
        assert code == 0
        assert data["flags"]["ssc"] is False
        assert data["flags"]["osc_implied_false"] is True
        assert data["ifs"]["map_count"] == 4
        assert data["dims"]["similarity"]["exact"] == "(2)*log(2)/log(10)"

    def test_levelset(self, capsys, m3i_file):
        code, data = run_json(capsys, ["levelset", "--lam", "1/2", m3i_file, "-p", "{}"])
        assert code == 0
        assert data["dimension"]["exact"] == "log(3)/log(10)"

    def test_levelset_epsilon_is_exact(self, capsys, m3i_file):
        # 10^-400 is 0.0 as a float; the exact epsilon still gives a prefix
        alpha = {"pre": [], "cycle": [[4, 0], [-8, 0], [0, 0]]}
        payload = json.dumps({"alpha": alpha, "epsilon": "1/1" + "0" * 400})
        code, data = run_json(capsys, ["levelset", "--lam", "1/2", m3i_file, "-p", payload])
        assert code == 0
        assert len(data["beta"]["pre"]) > 700
        payload = json.dumps({"alpha": alpha, "epsilon": "0"})
        code, data = run_json(capsys, ["levelset", "--lam", "1/2", m3i_file, "-p", payload])
        assert code == 2

    def test_dims_bm(self, capsys, base10_file):
        payload = json.dumps(
            {"m": 2, "n": 3, "digits": [[x, y] for x in range(2) for y in range(3)]}
        )
        code, data = run_json(capsys, ["dims", "bm", base10_file, "-p", payload])
        assert code == 0
        assert data["box"] == pytest.approx(2.0)

    def test_multinv_check(self, capsys, base10_file):
        payload = json.dumps({"restrict": [[0], [2]], "torus_k": 3})
        code, data = run_json(capsys, ["multinv", "check", base10_file, "-p", payload])
        assert code == 0
        assert data == {"phi_closed": True, "psi_closed": True, "torus_invariance": True}

    def test_multinv_converge_csv(self, capsys, base10_file):
        payload = json.dumps({"restrict": [[0], [2]], "kmax": 3})
        code, out = run(
            capsys, ["--format", "csv", "multinv", "converge", base10_file, "-p", payload]
        )
        assert code == 0
        assert out.splitlines()[0] == "k,measured,bound,ratio_to_prev"

    def test_union_components(self, capsys, m3i_file):
        payload = json.dumps({"alpha": {"pre": [], "cycle": [[0, 0]]}, "limit": 4})
        code, data = run_json(capsys, ["union-components", m3i_file, "-p", payload])
        assert code == 0
        assert len(data["components"]) >= 1

    def test_polynomial_descriptor(self, capsys, tmp_path):
        path = tmp_path / "quad.json"
        path.write_text(json.dumps({"polynomial": {"coeffs": [21, 9], "digits": [0, 10, 20]}}))
        code, data = run_json(capsys, ["residues", str(path)])
        assert code == 0
        assert data["count"] == 21


class TestFormatsAndCodes:
    def test_dot_output(self, capsys, base10_file):
        code, out = run(capsys, ["neighbours", "--dot", base10_file])
        assert code == 0
        assert out.startswith("digraph")

    def test_render_pgm(self, capsys, tmp_path, base10_file):
        out_file = tmp_path / "img.pgm"
        code, _ = run(
            capsys,
            ["render", base10_file, "-p", '{"k": 2, "width": 32, "height": 8}', "--out", str(out_file)],
        )
        assert code == 0
        assert out_file.read_bytes().startswith(b"P5\n32 8\n255\n")

    def test_render_explicit_bbox(self, capsys, tmp_path, base10_file):
        out_file = tmp_path / "img2.pgm"
        payload = '{"k": 2, "width": 16, "height": 4, "bbox": [["0", "1"], ["-1/2", "1/2"]]}'
        code, _ = run(capsys, ["render", base10_file, "-p", payload, "--out", str(out_file)])
        assert code == 0
        assert out_file.read_bytes().startswith(b"P5\n16 4\n255\n")

    def test_render_to_a_path_that_cannot_be_written_exits_2(self, capsys, tmp_path, m3i_file):
        payload = '{"k": 2, "width": 8, "height": 8}'
        for out_file in (tmp_path / "no_such_dir" / "x.pgm", tmp_path):
            argv = ["--format", "pgm", "render", m3i_file, "-p", payload, "--out", str(out_file)]
            code, out = run(capsys, argv)
            assert code == 2
            assert out.count("\n") == 1
            error = json.loads(out)["error"]
            assert error["type"] == "PreconditionViolated"
            assert error["message"].startswith("cannot write the output file: ")
            assert str(out_file) in error["message"]

    def test_a_write_that_fails_midway_leaves_no_partial_file(self, tmp_path, m3i_file):
        out_file = tmp_path / "x.pgm"

        def limit():  # runs in the child only: a file write past 16 bytes fails with EFBIG
            resource.setrlimit(resource.RLIMIT_FSIZE, (16, 16))

        payload = '{"k": 2, "width": 8, "height": 8}'
        done = run_cli_process(["--format", "pgm", "render", m3i_file, "-p", payload, "--out", str(out_file)], limit)
        assert done.returncode == 2, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "PreconditionViolated"
        assert error["message"].startswith("cannot write the output file: ")
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "argv, code, check",
        [
            (["residues", "{d}"], 0, lambda out: json.loads(out)["count"] == 10),
            (["--help"], 0, lambda out: out.startswith("usage: radixtile")),
            (["residues", "{d}", "--bogus"], 64, lambda out: json.loads(out)["error"]["type"] == "UsageError"),
        ],
        ids=["residues", "help", "unknown-flag"],
    )
    def test_entry_point_in_a_fresh_process(self, base10_file, argv, code, check):
        done = run_cli_process([arg.format(d=base10_file) for arg in argv])
        assert done.returncode == code, done.stderr
        assert check(done.stdout)
        assert code == 0 or done.stdout.count("\n") == 1

    def test_reproducible_output(self, capsys, m3i_file):
        payload = json.dumps({"alpha": {"pre": [[-4, 0], [-8, 0]], "cycle": [[0, 0], [8, 0]]}})
        _, first = run(capsys, ["intersect", m3i_file, "-p", payload])
        _, second = run(capsys, ["intersect", m3i_file, "-p", payload])
        assert first == second

    def test_timestamp_opt_in(self, capsys, base10_file):
        _, plain = run_json(capsys, ["residues", base10_file])
        assert "generated_at" not in plain
        _, stamped = run_json(capsys, ["--timestamp", "residues", base10_file])
        assert "generated_at" in stamped

    def test_precondition_exit_code(self, capsys, tmp_path):
        shear = {"matrix": [1, 1, 0, 1], "digits": [[0, 0]]}
        # eigenvalues 2 +- sqrt 3: one of them is inside the unit circle
        saddle = {"matrix": [4, -1, 1, 0], "digits": [[0, 3]]}
        cases = [
            ("neighbours", shear, None),
            ("expand", shear, {"vector": [1, 0]}),
            ("expand", saddle, {"vector": [-2, 0]}),
            # the series sum_j A^-j x_j diverges, so no value exists
            ("eval", {"matrix": [-1], "digits": [[1]]}, {"pre": [], "cycle": [[1]]}),
            ("eval", {"matrix": [4, -1, 1, 0], "digits": [[1, 0]]}, {"pre": [], "cycle": [[1, 0]]}),
        ]
        path = tmp_path / "bad.json"
        for command, system, payload in cases:
            path.write_text(json.dumps(system))
            code, data = run_json(capsys, [command, str(path)] + (["-p", json.dumps(payload)] if payload else []))
            assert code == 2
            assert data["error"]["type"] == "NotExpanding"

    def test_budget_exit_code(self, capsys, base10_file):
        payload = json.dumps(
            {
                "kind": "sets-translated",
                "pre": [[[0]]] * 6,
                "cycle": [[[0], [1]]],
                "max_block": 2,
            }
        )
        code, data = run_json(capsys, ["sep", base10_file, "-p", payload])
        assert code == 3
        assert data["error"]["type"] == "SearchBudgetExceeded"
        assert charged(data["error"], "block length", 2) == 6

    def test_a_budget_trips_only_past_its_cap(self):
        charge(DepthTooLarge, "cloud points", 2**22, 2**22)
        with pytest.raises(DepthTooLarge) as info:
            charge(DepthTooLarge, "cloud points", 2**22 + 1, 2**22)
        assert (info.value.counter, info.value.value, info.value.cap) == ("cloud points", 2**22 + 1, 2**22)
        assert str(info.value) == "cloud points: 4194305 exceeds the cap of 4194304"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="this Python prints integers of any length")
    def test_a_dimension_past_the_digit_limit_prints_within_seconds(self, monkeypatch, tmp_path, base10_file):
        # log 2 + 9,999 log 3 over log 10^10,000: the primitive base 2 * 3**9999 has 4,772 digits
        payload = tmp_path / "seq.json"
        payload.write_text(json.dumps({"sequence": {"pre": [], "cycle": [[[0], [1]]] + 9999 * [[[0], [1], [2]]]}}))
        monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "4300")

        def limit():  # runs in the child only: past 10 s of CPU the job is killed
            resource.setrlimit(resource.RLIMIT_CPU, (10, 10))

        done = run_cli_process(["dims", "box", base10_file, "-p", str(payload)], limit)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        exact = parse_exact(report["exact"])
        assert exact == sympy.Rational(1, 10000) * sympy.log(sympy.Integer(2 * 3**9999)) / sympy.log(10)
        assert float(exact) == pytest.approx(report["float"], rel=1e-12)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="this Python prints integers of any length")
    def test_a_value_past_the_digit_limit_prints_exactly(self, monkeypatch, base10_file):
        # 0.(1 x 4,400)0000... in base 10: (10^4400 - 1) / 9 over 10^4400, a numerator of 4,400 digits
        payload = {"pre": [[1]] * 4400, "cycle": [[0]]}
        monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "4300")
        done = run_cli_process(["eval", base10_file, "-p", json.dumps(payload)])
        assert done.returncode == 0, done.stderr
        value = eval_exact(Representation(cli.load_descriptor(base10_file), vector_seq([(1,)] * 4400, [(0,)])))
        assert json.loads(done.stdout)["value"]["exact"] == [linalg.frac_str(x) for x in value]


# report values for the JSON writer: every JSON leaf, int nests rectangular or not, ints mixed with bools
special_floats = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1.5e300])
special_strings = st.sampled_from(
    ["", "\\", '"', "\x00\x1f\n\t\r\b\f", "\u00e9\u2603", "\U0001f600", "\ud800", "%d %%"]
)
leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), special_floats, st.text(), special_strings)
rows = lambda n: st.lists(st.integers(), min_size=n, max_size=n)
int_nests = st.one_of(
    st.lists(st.integers()),
    st.integers(0, 3).flatmap(lambda n: st.lists(rows(n), max_size=5)),  # rectangular
    st.integers(0, 3).flatmap(lambda n: st.lists(st.lists(rows(n), max_size=4), max_size=4)),  # items of any length
    st.lists(st.lists(st.lists(st.integers(), max_size=3), min_size=1, max_size=3), max_size=3),  # ragged below them
    st.lists(st.one_of(st.integers(), st.booleans())),  # [1, True] is not an int nest
    st.lists(st.lists(st.one_of(st.integers(), st.booleans()), min_size=2, max_size=2)),
)
json_values = st.recursive(
    leaves | int_nests,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4).map(cli._JsonObject),
    ),
    max_leaves=16,
)


class TestJsonWriter:
    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.text(max_size=6), json_values, max_size=6))
    @example({"x": [1, True], "y": [[1, 2], [3, False]], "z": [[[1], [2]], ((3,), (4,))]})
    @example({"r": [[[1, 2], [3]], [[4]]], "s": [[[1, 2]], [], [[3, 4], [5, 6]]], "t": [[], [[]]]})
    @example({"e": [], "f": {}, "g": [[], []], "h": [[]], "i": ((),), "j": cli._JsonObject({"k": [-0.0, math.nan]})})
    @example({"s": ["a", "\u00e9"], "f": [1.0, math.inf], "g": [0.1, -0.0], "n": [None, None], "b": [True, False]})
    def test_the_writer_writes_what_json_dumps_writes(self, report):
        assert cli._json(report) == json.dumps(report, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [object(), {1, 2}, 1j, b"x", np.int64(1), [1, 2, 1j], [[1, 2], [3, b"x"]]])
    def test_a_value_json_cannot_encode_raises_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps({"a": value}, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            cli._json({"a": value})

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="this Python prints integers of any length")
    def test_integers_past_the_digit_limit_print_in_full(self):
        big = 10**5000
        report = {"alone": -big, "flat": [big, -big, 7], "rows": [[big, 1], [2, -big]], "mixed": [big, True, [-big]]}
        with int_max_str_digits(4300):
            text = cli._json(report)
        with int_max_str_digits(0):
            assert text == json.dumps(report, sort_keys=True, indent=2)
            assert json.loads(text) == report
        assert text.count("1" + "0" * 5000) == 7


class TestSession:
    """In-process ``main`` calls share one parsed system per descriptor text."""

    @staticmethod
    def jobs(base10_file, m3i_file, twin_file):
        alpha = json.dumps({"alpha": {"pre": [[-4, 0], [-8, 0]], "cycle": [[0, 0], [8, 0]]}})
        return [
            ["residues", base10_file],
            ["intersect", m3i_file, "-p", alpha],
            ["numsys-check", twin_file],
            ["dims", "box", m3i_file, "-p", alpha],
            ["expand", base10_file, "-p", '{"vector": [905]}'],
            ["unique", "--difference", m3i_file],
            ["levelset", "--lam", "1/2", m3i_file, "-p", "{}"],
            ["--format", "dot", "triple-graph", base10_file],
            ["neighbours", twin_file],
            ["eval", base10_file, "-p", '{"pre": [[1]], "cycle": [[0]]}'],
            ["intersect", m3i_file, "-p", alpha],
            ["unique", twin_file],
            ["expand", base10_file, "-p", '{"vector": [-7]}'],
        ]

    def test_a_warm_session_prints_what_fresh_ones_print(self, capsys, base10_file, m3i_file, twin_file):
        jobs = self.jobs(base10_file, m3i_file, twin_file)
        warm = [run(capsys, argv) for argv in jobs]
        fresh = []
        for argv in jobs:
            cli._system_from_text.cache_clear()
            fresh.append(run(capsys, argv))
        assert warm == fresh
        assert [code for code, _ in warm] == [0] * (len(jobs) - 1) + [2]  # -7 never ends in base 10

    def test_an_edited_descriptor_is_parsed_again(self, capsys, tmp_path):
        path = tmp_path / "system.json"
        for base in (10, 3, 10, 7):
            path.write_text(json.dumps({"matrix": [base], "digits": [[d] for d in range(base)]}))
            code, data = run_json(capsys, ["residues", str(path)])
            assert (code, data["count"]) == (0, base)

    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"matrix": [10], "digits": [[0], [1]]', "JSONDecodeError"),
            ('{"matrix": [1, 2, 3], "digits": [[0]]}', "PreconditionViolated"),
            ('{"matrix": [10], "digits": [[0], [0]]}', "PreconditionViolated"),
            ("[]", "PreconditionViolated"),
        ],
    )
    def test_a_malformed_descriptor_fails_on_every_call(self, capsys, tmp_path, text, error):
        path = tmp_path / "bad.json"
        path.write_text(text)
        outcomes = [run_json(capsys, ["residues", str(path)]) for _ in range(3)]
        assert outcomes[0][0] == 2 and outcomes[0][1]["error"]["type"] == error
        assert outcomes == [outcomes[0]] * 3
