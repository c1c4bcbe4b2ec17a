"""The command table, the parser built for one subcommand, and the error contract.

``main`` uses the parser for the subcommand argv names; the full parser is
used only when no token names one.  ``build_parser`` is cached, so each of
them is built once per process and then shared by every call, and ``main``
looks the handler up by name at each call.  The help texts were pinned with the
parser that built all sixteen subparsers each call, ``reference_parser`` below
keeps a copy of it, and the hypothesis tests check that both parse every
table-drawn command line to the same namespace, and that a reused parser parses
and rejects lines as a freshly built one does and keeps its help text.
"""

import argparse
import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radixtile import cli
from radixtile.errors import UsageError

# sha256 of the help text at 80 columns, recorded with the full parser
HELP_PINS = {
    "": "1e96294cd3588fa3b767e30dd554971685085361aef137922f924a8fd117841f",
    "residues": "bf57937f33509d8a0afe1818c4795c481f50897de36a6a65a23c394ca5574755",
    "numsys-check": "01a4b814e0ceb557d556486150fb39b6044b3bd51978a2f1ccc5f841289a535e",
    "expand": "626887fa74e27a4d09708104d277476d6eb9298d58f5d597fb8fbf6366cf69a2",
    "eval": "a730aab7f435910314ae1a9b074b35e77c5fa2f48d55ad6ffb3bf67b4b17cb97",
    "equiv": "abd7935fe9ef948efd5c568712b91032a183aaf1be536f4bd7d97d9173cc40a8",
    "enumerate-equiv": "e16a1d71f904b0ace41b50b5e01ac3c76638630cae1d61787e424b4dd443441c",
    "unique": "89b40e6332228d2df1c74c62b67adadfc16b73939119be7538cbc6f15a8c56cb",
    "neighbours": "224db80d00d4a94e7928985467cbf0a342baa850e006dc3b9967c62a8fce6453",
    "triple-graph": "29d5787f526d1868f576e31dd7e8a58ec7bbf1ec26aa5b97035a2c4ea981e1c6",
    "sep": "ae4980bb0a2e30949b130aa29b9a0b3567b643b00110ee426b2f1bb46be49c1e",
    "intersect": "39ff3557b8d9479a3c89e510e0040114f1c42a6039a7c46798a579eadf99a657",
    "dims": "376bce554487fe53eaa1ddfe7df6004afdcf799df15f6c53c24c867c32a0e95a",
    "levelset": "5d9fab51a2a2af7433a1af0d231887016cecfecbe381425a1744a8c3bd9b9f58",
    "union-components": "aa236b8f00c2664e789fbb996d4184823dbef8eab762ff518adec6cd448c1f6b",
    "multinv": "1f34530ef189f0d640b5668e411e562ec49ecf4ea07822c1f0f57895d207cc7a",
    "render": "ef06f5ff540be4d7863f3ccb7ddbe7e50e1b1d83fe383de6af94260deef66025",
}


def reference_parser() -> argparse.ArgumentParser:
    """The parser as it was before the command table: every subparser, every call."""
    parser = argparse.ArgumentParser(
        prog="radixtile",
        description="Exact analysis of matrix number systems and digit tiles",
    )
    parser.add_argument("--format", choices=["json", "dot", "pgm", "ppm", "csv"], default="json")
    parser.add_argument("--timestamp", action="store_true", help="include a generation timestamp")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, selector=None, choices=None):
        p = sub.add_parser(name)
        if selector:
            p.add_argument(selector, choices=choices)
        p.add_argument("descriptor", help="system descriptor JSON file")
        p.add_argument("--payload", "-p", default=None, help="payload JSON file or inline JSON")
        p.set_defaults(handler=handler)
        return p

    add("residues", cli.cmd_residues)
    add("numsys-check", cli.cmd_numsys_check)
    add("expand", cli.cmd_expand)
    add("eval", cli.cmd_eval)
    add("equiv", cli.cmd_equiv)
    add("enumerate-equiv", cli.cmd_enumerate_equiv)
    p = add("unique", cli.cmd_unique)
    p.add_argument("--difference", action="store_true", help="check the difference digit system")
    p = add("neighbours", cli.cmd_neighbours)
    p.add_argument("--dot", action="store_true")
    p = add("triple-graph", cli.cmd_triple_graph)
    p.add_argument("--dot", action="store_true")
    add("sep", cli.cmd_sep)
    p = add("intersect", cli.cmd_intersect)
    p.add_argument("--multi", action="store_true")
    add("dims", cli.cmd_dims, selector="kind", choices=["box", "hausdorff", "similarity", "bm"])
    p = add("levelset", cli.cmd_levelset)
    p.add_argument("--lam", "--lambda", dest="lam", required=True, help="level as p/q")
    add("union-components", cli.cmd_union_components)
    add("multinv", cli.cmd_multinv, selector="action", choices=["check", "cloud", "converge"])
    p = add("render", cli.cmd_render)
    p.add_argument("--overlap", default=None, help="integer shift, comma separated")
    p.add_argument("--out", default=None, help="output file for binary formats")
    return parser


@pytest.fixture
def base10_file(tmp_path):
    path = tmp_path / "base10.json"
    path.write_text(json.dumps({"matrix": [10], "digits": [[d] for d in range(10)]}))
    return str(path)


def run(capsys, argv, **paths):
    """Run the CLI with each "{name}" token of argv replaced by paths[name]."""
    code = cli.main([paths.get(token[1:-1], token) if token[:1] == "{" else token for token in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# the table


def test_table_keys_and_handlers_correspond():
    handlers = {name for name in vars(cli) if name.startswith("cmd_")}
    from_table = {"cmd_" + name.replace("-", "_") for name in cli.COMMANDS}
    assert from_table == handlers
    assert len(from_table) == len(cli.COMMANDS) == 16


@pytest.mark.parametrize("command", sorted(HELP_PINS))
def test_help_is_pinned(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == HELP_PINS[command]
    if not command:
        listed = list(cli.COMMANDS)
    else:
        extra = {o: kw for o, kw in cli.COMMANDS[command].items() if o not in cli._COMMON}
        listed = [o if o.startswith("-") else "{" + ",".join(kw["choices"]) + "}" for o, kw in extra.items()]
    for text in listed:
        assert text.split()[0] in out.getvalue()


def test_one_command_parser_keeps_the_full_usage():
    full = cli.build_parser()
    for name in cli.COMMANDS:
        assert cli.build_parser(name).format_usage() == full.format_usage()


# ---------------------------------------------------------------------------
# one-command parser against the full reference

_WORD = st.from_regex(r"[a-z0-9][a-z0-9/,._]{0,7}", fullmatch=True)


@st.composite
def command_lines(draw):
    """(argv with the global flags anywhere, the same argv with them before the command)."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    positional, options = [], []
    for option, kwargs in cli.COMMANDS[name].items():
        strings = option.split()
        if option in cli._COMMON and option != "--payload -p":
            continue
        if not option.startswith("-"):
            positional.append(draw(st.sampled_from(kwargs["choices"])))
        elif kwargs.get("action") == "store_true":
            if draw(st.booleans()):
                options.append([strings[0]])
        elif kwargs.get("required") or draw(st.booleans()):
            options.append([draw(st.sampled_from(strings)), draw(_WORD)])
    positional.append(draw(_WORD))
    before, after = [], []
    fmt = draw(st.none() | st.sampled_from(cli.FORMATS))
    for flag in ([["--format", fmt]] if fmt else []) + ([["--timestamp"]] if draw(st.booleans()) else []):
        (after if draw(st.booleans()) else before).append(flag)
    groups = draw(st.permutations(options + after))
    at = draw(st.integers(0, len(groups)))
    groups = groups[:at] + [positional] + groups[at:]

    def flat(groups):
        return [token for group in groups for token in group]

    reference = flat(before + after) + [name] + flat(g for g in groups if g not in after)
    return name, flat(before) + [name] + flat(groups), reference


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_one_command_parser_matches_the_full_reference(lines):
    name, argv, reference_argv = lines
    expected = vars(reference_parser().parse_args(reference_argv))
    # the parser sets no handler; main calls the one its command names
    assert getattr(cli, "cmd_" + expected["command"].replace("-", "_")) is expected.pop("handler")
    assert vars(cli.build_parser(name).parse_args(argv)) == expected
    assert vars(cli.build_parser().parse_args(argv)) == expected


# ---------------------------------------------------------------------------
# one parser per process: reuse, help and dispatch


@st.composite
def bad_lines(draw):
    """(name, argv) that does not parse: a bad selector, or an unknown flag or bad choice put in."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(["dims", "multinv"]))
        return name, [name, "volume", draw(_WORD)]
    name, argv, _ = draw(command_lines())
    at = draw(st.integers(argv.index(name) + 1, len(argv)))
    return name, argv[:at] + [draw(st.sampled_from(["--bogus", "--format=svg"]))] + argv[at:]


@st.composite
def sessions(draw):
    """Command lines, at least one of them a usage error, as one process might see them."""
    lines = draw(st.lists(command_lines().map(lambda line: line[:2]), max_size=6))
    at = draw(st.integers(0, len(lines)))
    return lines[:at] + [draw(bad_lines())] + lines[at:]


def outcome(parser, argv):
    """The namespace argv parses to, or the message of the UsageError it raises."""
    try:
        return vars(parser.parse_args(argv))
    except UsageError as exc:
        return f"UsageError: {exc}"


@settings(max_examples=100, deadline=None)
@given(sessions())
def test_a_reused_parser_keeps_no_state_between_calls(lines):
    errors = 0
    for name, argv in lines:
        fresh = outcome(cli.build_parser.__wrapped__(name), argv)
        assert outcome(cli.build_parser(name), argv) == fresh
        assert outcome(cli.build_parser(), argv) == fresh
        errors += isinstance(fresh, str)
    assert errors >= 1


def minimal_line(name):
    """A command line of ``name`` that parses: first choices, a required value, a descriptor."""
    argv = [name]
    for option, kwargs in cli.COMMANDS[name].items():
        if not option.startswith("-"):
            argv.append(kwargs["choices"][0] if "choices" in kwargs else "d.json")
        elif kwargs.get("required"):
            argv += [option.split()[0], "1/2"]
    return argv


def help_text(parser, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        parser.parse_args(argv)
    assert exit_info.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("command", sorted(HELP_PINS))
def test_help_after_reuse_keeps_its_pin_and_reads_the_width(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    parser = cli.build_parser(command or None)
    for name in [command] if command else cli.COMMANDS:
        assert parser.parse_args(minimal_line(name)).command == name
        with pytest.raises(UsageError):
            parser.parse_args(minimal_line(name) + ["--bogus"])
    argv = [command, "--help"] if command else ["--help"]
    narrow = help_text(parser, argv)
    assert hashlib.sha256(narrow.encode()).hexdigest() == HELP_PINS[command]
    for columns in ("120", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        text = help_text(parser, argv)
        assert text == help_text(cli.build_parser.__wrapped__(command or None), argv)
    assert text != narrow  # the width is read when the help is printed, not when the parser is built


def test_the_handler_bound_at_call_time_is_called(monkeypatch, capsys, base10_file):
    code, out, _ = run(capsys, ["residues", "{d}"], d=base10_file)
    assert code == 0
    assert json.loads(out)["count"] == 10
    calls = []
    monkeypatch.setattr(cli, "cmd_residues", lambda args, system, payload: calls.append(args.command) or {"stub": 1})
    code, out, _ = run(capsys, ["residues", "{d}"], d=base10_file)
    assert (code, json.loads(out), calls) == (0, {"stub": 1}, ["residues"])


_ALPHA = '{"alpha": {"pre": [[-4, 0], [-8, 0]], "cycle": [[0, 0], [8, 0]]}}'
_X = '{"pre": [[1]], "cycle": [[0]]}'
# a small job for every handler, with the type of report it returns
HANDLER_CASES = [
    (["residues", "{d}"], dict),
    (["numsys-check", "{d}"], dict),
    (["expand", "{d}", "-p", '{"vector": [905]}'], dict),
    (["eval", "{d}", "-p", _X], dict),
    (["equiv", "{d}", "-p", '{"x": %s, "y": {"pre": [[0]], "cycle": [[9]]}}' % _X], dict),
    (["enumerate-equiv", "{d}", "-p", '{"x": %s}' % _X], dict),
    (["unique", "--difference", "{m}"], dict),
    (["neighbours", "{d}"], dict),
    (["neighbours", "--dot", "{d}"], str),
    (["triple-graph", "{d}"], dict),
    (["triple-graph", "{d}", "--format", "dot"], str),
    (["sep", "{d}", "-p", '{"kind": "int", "pre": [0], "cycle": [2]}'], dict),
    (["intersect", "{m}", "-p", _ALPHA], dict),
    (["intersect", "--multi", "{m}", "-p", '{"alphas": [{"cycle": [[0, 0]]}, {"cycle": [[4, 0]]}]}'], dict),
    (["dims", "box", "{m}", "-p", _ALPHA], dict),
    (["dims", "hausdorff", "{m}", "-p", _ALPHA], dict),
    (["dims", "similarity", "{m}", "-p", _ALPHA], dict),
    (["dims", "bm", "{d}", "-p", '{"m": 2, "n": 3, "digits": [[0, 0], [1, 2]]}'], dict),
    (["levelset", "--lam", "1/2", "{m}"], dict),
    (["union-components", "{m}", "-p", '{"alpha": {"cycle": [[0, 0]]}, "limit": 4}'], dict),
    (["multinv", "check", "{d}", "-p", '{"restrict": [[0], [2]], "torus_k": 2}'], dict),
    (["multinv", "cloud", "{d}", "-p", '{"restrict": [[0], [2]], "k": 2}'], dict),
    (["multinv", "converge", "{d}", "-p", '{"restrict": [[0], [2]], "kmax": 2}'], dict),
    (["multinv", "converge", "{d}", "-p", '{"restrict": [[0], [2]], "kmax": 2}', "--format", "csv"], str),
    (["render", "{d}", "-p", '{"k": 2, "width": 8, "height": 4}', "--out", "{o}"], bytes),
]


def test_every_handler_is_covered_by_a_case():
    assert {argv[0] for argv, _ in HANDLER_CASES} == set(cli.COMMANDS)


@pytest.mark.parametrize("argv, kind", HANDLER_CASES, ids=[f"{i}-{argv[0]}" for i, (argv, _) in enumerate(HANDLER_CASES)])
def test_a_handler_returns_its_report_and_main_writes_it(capsys, tmp_path, base10_file, argv, kind):
    m3i = tmp_path / "m3i.json"
    m3i.write_text(json.dumps({"matrix": [-3, -1, 1, -3], "digits": [[0, 0], [4, 0], [8, 0]]}))
    paths = {"d": base10_file, "m": str(m3i), "o": str(tmp_path / "out.pgm")}
    argv = [paths.get(token[1:-1], token) if token[:1] == "{" else token for token in argv]
    args = cli.build_parser(argv[0]).parse_args(argv)
    system = cli.load_descriptor(args.descriptor)
    payload = cli._json_object(args.payload or "{}", "payload", inline=True)
    report = getattr(cli, "cmd_" + argv[0].replace("-", "_"))(args, system, payload)
    assert capsys.readouterr() == ("", "")  # the handler writes nothing
    assert type(report) is kind
    code, out, _ = run(capsys, argv)
    assert code == 0
    if kind is dict:
        assert json.loads(out) == report
    elif kind is str:
        assert out == report.rstrip("\n") + "\n"
    else:
        assert (tmp_path / "out.pgm").read_bytes() == report


def test_main_builds_one_parser_per_subcommand(capsys, base10_file):
    cli.build_parser.cache_clear()
    for _ in range(5):
        assert run(capsys, ["residues", "{d}"], d=base10_file)[0] == 0
        assert run(capsys, ["residues", "{d}", "--bogus"], d=base10_file)[0] == 64
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 9, 1)


# ---------------------------------------------------------------------------
# global flags after the subcommand


@pytest.mark.parametrize(
    "before, after",
    [
        (["--format", "dot", "neighbours", "{d}"], ["neighbours", "{d}", "--format", "dot"]),
        (["--format", "dot", "triple-graph", "{d}"], ["triple-graph", "--format", "dot", "{d}"]),
        (
            ["--format", "csv", "multinv", "converge", "{d}", "-p", '{"restrict": [[0], [2]], "kmax": 3}'],
            ["multinv", "converge", "{d}", "-p", '{"restrict": [[0], [2]], "kmax": 3}', "--format", "csv"],
        ),
    ],
)
def test_global_flags_after_the_subcommand_give_the_same_bytes(capsys, base10_file, before, after):
    outputs = []
    for argv in (before, after):
        code, out, _ = run(capsys, argv, d=base10_file)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert not outputs[0].startswith("{")


def test_timestamp_after_the_subcommand(capsys, base10_file):
    code, out, _ = run(capsys, ["residues", base10_file, "--timestamp"])
    assert code == 0
    assert "generated_at" in json.loads(out)


def test_a_format_before_the_subcommand_is_not_reset(base10_file):
    args = cli.build_parser("neighbours").parse_args(["--format", "dot", "neighbours", base10_file])
    assert args.format == "dot"
    assert args.timestamp is False


# ---------------------------------------------------------------------------
# usage errors: exit 64, a JSON error on stdout, the usage line on stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bogus", "{d}"], "invalid choice: 'bogus' (choose from 'residues', 'numsys-check'"),
        (["foo", "residues", "{d}"], "invalid choice: 'foo' (choose from 'residues', 'numsys-check'"),
        ([], "the following arguments are required: command"),
        (["residues"], "the following arguments are required: descriptor"),
        (["dims", "volume", "{d}"], "argument kind: invalid choice: 'volume'"),
        (["multinv", "orbit", "{d}"], "argument action: invalid choice: 'orbit'"),
        (["levelset", "{d}"], "the following arguments are required: --lam/--lambda"),
        (["residues", "{d}", "--bogus"], "unrecognized arguments: --bogus"),
        (["residues", "{d}", "--format", "svg"], "argument --format: invalid choice: 'svg'"),
    ],
)
def test_usage_error_is_a_json_error_with_exit_64(capsys, base10_file, argv, message):
    code, out, err = run(capsys, argv, d=base10_file)
    assert code == 64
    error = json.loads(out)["error"]
    assert set(error) == {"type", "message"}
    assert error["type"] == "UsageError"
    assert message in error["message"]
    assert err.startswith("usage: radixtile")


# ---------------------------------------------------------------------------
# unreadable files and malformed payloads: exit 2, never a traceback


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "{d}", "-p", "{missing}"], "cannot read the payload file"),
        (["eval", "{missing}"], "cannot read the descriptor file"),
        (["eval", "{d}", "-p", "[1]"], "the payload must be a JSON object"),
        (["eval", "{d}", "-p", "{}"], "missing JSON key 'cycle'"),
        (["dims", "box", "{d}", "-p", "{}"], "missing JSON key 'alpha'"),
        (["sep", "{d}", "-p", '{"kind": "int"}'], "missing JSON key 'cycle'"),
    ],
)
def test_bad_input_files_exit_2(capsys, tmp_path, base10_file, argv, message):
    missing = str(tmp_path / "nofile.json")
    code, out, _ = run(capsys, argv, d=base10_file, missing=missing)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "PreconditionViolated"
    assert message in error["message"]


def test_descriptor_must_be_an_object_with_its_keys(capsys, tmp_path):
    path = tmp_path / "d.json"
    for text, message in [("[10]", "must be a JSON object"), ('{"matrix": [10]}', "missing JSON key 'digits'")]:
        path.write_text(text)
        code, out, _ = run(capsys, ["residues", str(path)])
        assert code == 2
        assert message in json.loads(out)["error"]["message"]
