"""Command line front end: JSON in, JSON (or DOT / PNM / CSV) out.

Every subcommand reads a system descriptor file plus an optional JSON
payload and produces a deterministic report.  Its handler ``cmd_<name>``
returns the report (a dict for JSON, a str for DOT or CSV, bytes for PNM)
and writes nothing; ``main`` writes it through ``_write``.  Exact rationals
are emitted as "p/q" strings next to float renderings.  Exit codes:
0 success, 2 precondition failure, 3 budget exceeded, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys as _sys
from fractions import Fraction

from . import linalg, numsys, radix
from .errors import BudgetError, PreconditionError, PreconditionViolated, RadixTileError, UsageError
from .errors import json_int, json_ints, json_list, json_vec


def _parse_frac(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise PreconditionViolated(f"{text!r} is not a rational p/q with q != 0") from None


class _JsonObject(dict):
    """A JSON object whose missing key is a precondition failure, not a KeyError."""

    def __missing__(self, key):
        raise PreconditionViolated(f"missing JSON key {key!r}")


def _read(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionViolated(f"cannot read the {what} file: {exc}") from None


def _json_object(source: str, what: str, inline: bool = False) -> dict:
    """The JSON object in the file named ``source``, or in ``source`` itself when inline."""
    text = source if inline else _read(source, what)
    try:
        data = json.loads(text, object_hook=_JsonObject)
    except json.JSONDecodeError:
        raise
    except ValueError:  # an integer longer than Python's int-to-str limit, which json reads through int()
        limit = _sys.get_int_max_str_digits()
        raise PreconditionViolated(f"the {what} holds an integer past Python's limit of {limit} digits") from None
    if not isinstance(data, dict):
        raise PreconditionViolated(f"the {what} must be a JSON object")
    return data


def load_descriptor(path: str) -> numsys.RadixSystem:
    """The system in the descriptor file at path, read on every call.

    The text is parsed once per distinct content: in-process ``main`` calls
    share one ``RadixSystem`` per descriptor text, from an LRU of 32 entries
    keyed by the full text, so an edited file is parsed again and a bad one
    fails every time.  ``_system_from_text.cache_clear()`` empties it.
    """
    return _system_from_text(_read(path, "descriptor"))


@functools.lru_cache(maxsize=32)  # the decide job lists draw up to 30 distinct systems per pass
def _system_from_text(text: str) -> numsys.RadixSystem:
    data = _json_object(text, "descriptor", inline=True)
    if "polynomial" in data:
        poly = json_list(data["polynomial"], "polynomial", dict)
        return numsys.companion_system(json_ints(poly["coeffs"], "coeffs"), json_ints(poly["digits"], "digits"))
    flat = json_list(data["matrix"], "matrix")
    if flat and isinstance(flat[0], list):
        matrix = [json_ints(row, "a matrix row") for row in flat]
    else:
        n = math.isqrt(len(flat))
        if n * n != len(flat):
            raise PreconditionViolated("row-major matrix list must have square length")
        matrix = [json_ints(flat[i * n : (i + 1) * n], "matrix") for i in range(n)]
    return numsys.RadixSystem(tuple(matrix), tuple(map(json_vec, json_list(data["digits"], "digits"))))


def _seq_from_json(data, coerce=json_vec) -> radix.EpSeq:
    json_list(data, "a sequence", dict)
    return radix.EpSeq.make(
        [coerce(x) for x in json_list(data.get("pre", []), "pre")],
        [coerce(x) for x in json_list(data["cycle"], "cycle")],
    )


def _set_seq_from_json(data) -> radix.EpSeq:
    def coerce(entry):
        return frozenset(map(json_vec, json_list(entry, "a digit set")))

    return _seq_from_json(data, coerce)


def _rep(sys, data) -> radix.Representation:
    return radix.Representation(sys, _seq_from_json(data))


_string = json.encoder.encode_basestring_ascii  # json's own escaping, in C


def _json(value, pad: str = "") -> str:
    """json.dumps(value, sort_keys=True, indent=2) at the indent pad, for str keys, with integers in full at any length;
    a list of ints (not bools) or of int nests differing only in length is one %, of str or finite floats one join."""
    if isinstance(value, str):
        return _string(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return _fill("%d", (value,))
    if isinstance(value, float):  # json's NaN, Infinity and -Infinity past the finite floats
        return float.__repr__(value) if math.isfinite(value) else json.dumps(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items = f",\n{inner}".join([f"{_string(k)}: {_json(v, inner)}" for k, v in sorted(value.items())])
        return f"{{\n{inner}{items}\n{pad}}}" if value else "{}"
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    sep, kinds = ",\n" + inner, set(map(type, value))
    if kinds == {str}:
        body = sep.join(map(_string, value))
    elif kinds == {float} and all(map(math.isfinite, value)):
        body = sep.join(map(float.__repr__, value))
    elif (body := _int_items(value, kinds, inner)) is None:
        body = sep.join([_json(v, inner) for v in value])
    return f"[\n{inner}{body}\n{pad}]" if value else "[]"


def _int_items(value, kinds: set, pad: str) -> str | None:
    """The items of a list of exact ints, or of int nests rectangular below their own lengths, each through a cached
    template of its shape and all filled in one %; None for any other list."""
    if kinds == {int}:
        return _fill(f",\n{pad}".join(["%d"] * len(value)), tuple(value))
    if not kinds <= {list, tuple}:
        return None
    lengths, shape, flat = list(map(len, value)), (), [x for item in value for x in item]
    while (kinds := set(map(type, flat))) <= {list, tuple} and flat:
        if len(sizes := set(map(len, flat))) != 1:
            return None
        shape += (sizes.pop(),)
        flat = [x for row in flat for x in row]
    if not kinds <= {int}:
        return None
    rows = {k: _row_template((k, *shape), pad) for k in set(lengths)}
    return _fill(f",\n{pad}".join(map(rows.__getitem__, lengths)), tuple(flat))


def _fill(template: str, ints: tuple) -> str:
    try:
        return template % ints
    except ValueError:  # an integer past Python's int-to-str digit limit
        return template.replace("%d", "%s") % tuple(map(linalg.frac_str, ints))


@functools.lru_cache(maxsize=64)
def _row_template(shape: tuple, pad: str) -> str:
    """The %-template of a rectangular int nest of the given shape at the indent pad."""
    if not shape or not shape[0]:
        return "[]" if shape else "%d"
    return f"[\n{pad}  %s\n{pad}]" % f",\n{pad}  ".join([_row_template(shape[1:], pad + "  ")] * shape[0])


def _write(args, report) -> None:
    """Write a handler's report: a dict as sorted JSON, a str as text, bytes to ``--out`` or stdout."""
    if isinstance(report, dict):
        if getattr(args, "timestamp", False):
            from datetime import datetime, timezone

            report["generated_at"] = datetime.now(timezone.utc).isoformat()
        _sys.stdout.write(_json(report) + "\n")
    elif isinstance(report, str):
        _sys.stdout.write(report if report.endswith("\n") else report + "\n")
    elif not getattr(args, "out", None):
        _sys.stdout.buffer.write(report)
    else:
        try:
            fh = open(args.out, "wb")
            try:
                with fh:
                    fh.write(report)
            except OSError:  # the open truncated it: leave no partial file behind
                if os.path.isfile(args.out):
                    os.unlink(args.out)
                raise
        except OSError as exc:
            raise PreconditionViolated(f"cannot write the output file: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its report and writes nothing; main writes it


def cmd_residues(args, sys, payload):
    reps = linalg.residue_system(sys.matrix)
    return {"residues": [list(v) for v in reps], "count": len(reps)}


def cmd_numsys_check(args, sys, payload):
    ok, witnesses = numsys.is_number_system(sys)
    return {
        "number_system": ok,
        "witness_cycles": [[list(v) for v in cycle] for cycle in witnesses],
    }


def cmd_expand(args, sys, payload):
    digits = numsys.discrete_expansion(sys, json_vec(payload["vector"]))
    return {"digits": [list(d) for d in digits]}


def cmd_eval(args, sys, payload):
    value = radix.eval_exact(_rep(sys, payload))
    return {"value": {"exact": [linalg.frac_str(x) for x in value], "float": [float(x) for x in value]}}


def cmd_equiv(args, sys, payload):
    x = _rep(sys, payload["x"])
    y = _rep(sys, payload["y"])
    same = radix.equivalent(x, y)
    return {"equivalent": same, "neighbour_walk_agrees": radix.is_neighbour_sequence(x, y) == same}


def cmd_enumerate_equiv(args, sys, payload):
    x = _rep(sys, payload["x"])
    cls, samples = radix.enumerate_equivalents(sys, x, _int_field(payload, "limit", 16))
    return {"classification": cls, "samples": [s.to_json() for s in samples]}


def cmd_unique(args, sys, payload):
    target = sys.difference_system() if args.difference else sys
    return {"unique": radix.representations_unique(target)}


def cmd_neighbours(args, sys, payload):
    from . import neighbours

    result = neighbours.integer_neighbours(sys.matrix, sys.digits)
    if args.dot or args.format == "dot":
        return neighbours.neighbour_graph(sys.matrix, sys.digits).to_dot()
    return {
        "neighbours": [list(v) for v in result.sorted()],
        "ball_radius": result.ball_radius,
        "count": len(result.vectors),
    }


def cmd_triple_graph(args, sys, payload):
    from . import neighbours

    graph = neighbours.triple_state_graph(sys.matrix, sys.digits)
    if args.dot or args.format == "dot":
        return graph.to_dot()
    return {
        "states": [[list(z), list(x)] for z, x in graph.states],
        "edge_count": len(graph.src),
    }


def cmd_sep(args, sys, payload):
    from . import sep

    kind = payload.get("kind", "int")
    if kind == "int":
        seq = _seq_from_json(payload, coerce=json_int)
        witness = sep.is_sep_int(seq)
        out = None
        if witness is not None:
            out = {
                "block": witness.block,
                "base": list(witness.base),
                "increments": list(witness.increments),
            }
        return {"sep": witness is not None, "witness": out}
    from . import intersect

    seq = _set_seq_from_json(payload)
    if kind == "sets":
        witness = sep.is_sep_sets(seq)
    elif kind == "sets-translated":
        witness = sep.is_sep_sets_translated(
            sys.digits, seq, max_block=_int_field(payload, "max_block", None)
        )
    else:
        raise ValueError(f"unknown sep kind {kind!r}")
    return {
        "sep": witness is not None,
        "witness": None if witness is None else intersect.witness_json(witness),
    }


def _translate_from_payload(sys, payload, alpha) -> intersect.TranslateSpec:
    """The translate with digit-difference representation ``alpha``, strict unless the payload waives it."""
    from . import intersect

    return intersect.translate_spec(sys, _seq_from_json(alpha), strict=_bool_field(payload, "strict", True))


def cmd_intersect(args, sys, payload):
    from . import intersect

    if args.multi:
        specs = [_translate_from_payload(sys, payload, a) for a in json_list(payload["alphas"], "alphas")]
        seq = intersect.multi_intersection_sequence(specs)
        return {"sequence": seq.to_json()}
    t = _translate_from_payload(sys, payload, payload["alpha"])
    return intersect.intersection_report(
        t,
        sep_budget=_int_field(payload, "max_block", None),
        empirical_depth=_int_field(payload, "empirical_depth", None),
    )


def cmd_dims(args, sys, payload):
    from . import intersect, sep

    kind = args.kind
    if kind == "bm":
        dim_h, dim_b = intersect.bm_dimensions(
            _int_field(payload, "m"),
            _int_field(payload, "n"),
            list(map(json_vec, json_list(payload["digits"], "digits"))),
            allow_refined=_bool_field(payload, "allow_refined", False),
        )
        return {"hausdorff": dim_h, "box": dim_b}
    if "sequence" in payload:
        seq = _set_seq_from_json(payload["sequence"])
    else:
        seq = intersect.intersection_sequence(_translate_from_payload(sys, payload, payload["alpha"]))
    if kind == "box":
        report = intersect.box_dimension_ep(sys, seq)
        out = report.to_json()
        depth = _int_field(payload, "empirical_depth", None)
        if depth:
            est = intersect.box_count_exponent(sys, seq, depth)
            flags = out.setdefault("flags", {})
            flags["empirical_exponent"] = est
            flags["empirical_matches_exact"] = abs(est - report.value) < intersect.EMPIRICAL_TOLERANCE
        return out
    witness = sep.is_sep_sets_translated(sys.digits, seq, max_block=_int_field(payload, "max_block", None))
    if witness is None:
        raise PreconditionError("sequence is not SEP; no witness-based dimension")
    if kind == "hausdorff":
        return intersect.hausdorff_dimension_sep(sys, witness).to_json()
    return intersect.similarity_dimension(sys, witness).to_json()


def cmd_levelset(args, sys, payload):
    from . import intersect

    lam = _parse_frac(args.lam)
    prefix = [json_vec(a) for a in json_list(payload.get("alpha_prefix", []), "alpha_prefix")]
    if "alpha" in payload and "epsilon" in payload:
        alpha = _seq_from_json(payload["alpha"])
        m = intersect.prefix_length_for_radius(sys, _parse_frac(payload["epsilon"]))
        prefix = [alpha.entry(j) for j in range(m)]
    t = intersect.level_set_translate(sys, prefix, lam, strict=_bool_field(payload, "strict", True))
    seq = intersect.intersection_sequence(t)
    return {
        "beta": t.alpha.to_json(),
        "dimension": intersect.box_dimension_ep(sys, seq).to_json(),
    }


def cmd_union_components(args, sys, payload):
    from . import intersect

    t = intersect.TranslateSpec(
        system=sys, alpha=_seq_from_json(payload["alpha"]), uniqueness_checked=False
    )
    report = intersect.union_components(t, limit=_int_field(payload, "limit", 8))
    return {
        "classification": report.classification,
        "components": [
            {
                "alpha": c.alpha_rep.to_json(),
                "sequence": c.sets.to_json(),
                "dim_lower": c.dim_lower.to_json(),
            }
            for c in report.components
        ],
    }


def _automaton_from_payload(sys, payload) -> multinv.DigitAutomaton:
    from . import multinv

    if "automaton" in payload:
        auto = multinv.DigitAutomaton.from_json(payload["automaton"])
        if auto.n_digits != len(sys.digits):
            raise PreconditionViolated(f"automaton reads {auto.n_digits} digits, the system has {len(sys.digits)}")
        return auto
    if "restrict" in payload:
        return multinv.digit_restriction_automaton(sys, list(map(json_vec, json_list(payload["restrict"], "restrict"))))
    raise ValueError("payload needs 'automaton' or 'restrict'")


def cmd_multinv(args, sys, payload):
    from . import multinv

    auto = _automaton_from_payload(sys, payload)
    if args.action == "check":
        phi_ok, psi_ok = multinv.check_invariance(sys, auto)
        out = {"phi_closed": phi_ok, "psi_closed": psi_ok}
        k = _int_field(payload, "torus_k", 0)
        if k:
            out["torus_invariance"] = multinv.torus_invariance_check(sys, auto, k)
        return out
    if args.action == "cloud":
        from . import render

        cloud = multinv.xk_cloud(sys, auto, _int_field(payload, "k"))
        # the distinct points in their own order: one positive denominator, so the numerators' order
        coords, scale = render._scaled_coords(cloud, cloud.rows)
        coords = linalg.sorted_unique(coords)
        return {
            "points": [
                {"exact": [linalg.frac_str(Fraction(x, scale)) for x in p], "float": f}
                for p, f in zip(coords.tolist(), render.exact_floats(coords, scale).tolist())
            ]
        }
    report = multinv.convergence_report(sys, auto, _int_field(payload, "kmax"))
    if args.format == "csv":
        return report.to_csv()
    return {
        "phi_closed": report.phi_closed,
        "rows": [
            {
                "k": r.k,
                "measured": r.measured,
                "bound": r.bound,
                "ratio_to_prev": r.ratio_to_prev,
            }
            for r in report.rows
        ],
    }


_REQUIRED = object()


def _int_field(payload, key: str, default=_REQUIRED, kind=int):
    """payload[key], which must be a JSON integer (a JSON boolean for kind=bool);
    the default when the key is absent and a default is given."""
    if key not in payload and default is not _REQUIRED:
        return default
    value = payload[key]
    if type(value) is not kind:  # bool is an int subclass, a JSON true is not a count
        raise PreconditionViolated(f"{key} must be a JSON {'boolean' if kind is bool else 'integer'}, got {value!r}")
    return value


def _bool_field(payload, key: str, default: bool) -> bool:
    return _int_field(payload, key, default, kind=bool)


def cmd_render(args, sys, payload):
    from . import render

    width = _int_field(payload, "width", 256)
    height = _int_field(payload, "height", 256)
    k = _int_field(payload, "k", 5)
    bbox = None
    if "bbox" in payload:
        axes = [json_list(axis, "a bbox axis") for axis in json_list(payload["bbox"], "bbox")]
        bbox = tuple((_parse_frac(lo), _parse_frac(hi)) for lo, hi in axes)
    if args.overlap:
        shift = linalg.as_vec([int(x) for x in args.overlap.split(",")])
        return render.render_overlap(sys, shift, k, width, height).to_pnm()
    digit_filter = None
    if "filter" in payload:
        digit_filter = _set_seq_from_json(payload["filter"])
    cloud = render.ktile_points(
        sys, k, digit_filter=digit_filter, sample_seed=_int_field(payload, "seed", None)
    )
    return render.rasterize([cloud], width, height, bbox=bbox).to_pnm()


# ---------------------------------------------------------------------------
# wiring

FORMATS = ["json", "dot", "pgm", "ppm", "csv"]
_SWITCH = {"action": "store_true"}
# Arguments of every subcommand.  The global flags are accepted after the
# subcommand too, hidden from its help; SUPPRESS keeps a value given before it.
_COMMON = {
    "descriptor": dict(help="system descriptor JSON file"),
    "--payload -p": dict(help="payload JSON file or inline JSON"),
    "--format": dict(choices=FORMATS, default=argparse.SUPPRESS, help=argparse.SUPPRESS),
    "--timestamp": dict(_SWITCH, default=argparse.SUPPRESS, help=argparse.SUPPRESS),
}

# Every subcommand: name -> its arguments in order (option strings -> add_argument
# keywords), a selector positional before the common ones.  The handler is the
# function cmd_<name> ("-" read as "_"), looked up by name at each call, so a
# wrapper later bound to that name is the one called, cached parser or not.
COMMANDS = {
    "residues": _COMMON,
    "numsys-check": _COMMON,
    "expand": _COMMON,
    "eval": _COMMON,
    "equiv": _COMMON,
    "enumerate-equiv": _COMMON,
    "unique": {**_COMMON, "--difference": dict(_SWITCH, help="check the difference digit system")},
    "neighbours": {**_COMMON, "--dot": _SWITCH},
    "triple-graph": {**_COMMON, "--dot": _SWITCH},
    "sep": _COMMON,
    "intersect": {**_COMMON, "--multi": _SWITCH},
    "dims": {"kind": dict(choices=["box", "hausdorff", "similarity", "bm"]), **_COMMON},
    "levelset": {**_COMMON, "--lam --lambda": dict(dest="lam", required=True, help="level as p/q")},
    "union-components": _COMMON,
    "multinv": {"action": dict(choices=["check", "cloud", "converge"]), **_COMMON},
    "render": {
        **_COMMON,
        "--overlap": dict(help="integer shift, comma separated"),
        "--out": dict(help="output file for binary formats"),
    },
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(_sys.stderr)
        raise UsageError(message)


@functools.lru_cache(maxsize=None)
def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser for every subcommand, or for ``command`` alone, built once per
    process and shared by every caller: do not modify it."""
    parser = _Parser(prog="radixtile", description="Exact analysis of matrix number systems and digit tiles")
    parser.add_argument("--format", choices=FORMATS, default="json")
    parser.add_argument("--timestamp", action="store_true", help="include a generation timestamp")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.choices = COMMANDS  # usage and unknown-command messages name every subcommand
    for name in COMMANDS if command is None else [command]:
        p = sub.add_parser(name)
        for option, kwargs in COMMANDS[name].items():
            p.add_argument(*option.split(), **kwargs)
    return parser


def main(argv=None) -> int:
    argv = _sys.argv[1:] if argv is None else argv
    # build only the named subcommand; no name (--help, a typo, nothing) builds them all
    command = next((token for token in argv if token in COMMANDS), None)
    try:
        args = build_parser(command).parse_args(argv)
        system = load_descriptor(args.descriptor)
        text = args.payload or "{}"
        payload = _json_object(text, "payload", inline=text.lstrip().startswith(("{", "[")))
        _write(args, globals()["cmd_" + args.command.replace("-", "_")](args, system, payload))
    except (UsageError, RadixTileError, ValueError, OverflowError) as exc:
        _sys.stdout.write(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n")
        return 64 if isinstance(exc, UsageError) else 3 if isinstance(exc, BudgetError) else 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
