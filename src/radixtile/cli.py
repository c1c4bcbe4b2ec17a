"""Command line front end: JSON in, JSON (or DOT / PNM / CSV) out.

Every subcommand reads a system descriptor file plus an optional JSON
payload and writes a deterministic report.  Exact rationals are emitted
as "p/q" strings next to float renderings.  Exit codes: 0 success,
2 precondition failure, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from datetime import datetime, timezone
from fractions import Fraction

from . import intersect, linalg, multinv, neighbours, numsys, radix, render, sep
from .errors import BudgetError, PreconditionError, PreconditionViolated, RadixTileError


def _parse_frac(text) -> Fraction:
    return Fraction(str(text))


def load_descriptor(path: str) -> numsys.RadixSystem:
    with open(path) as fh:
        data = json.load(fh)
    if "polynomial" in data:
        poly = data["polynomial"]
        return numsys.companion_system(poly["coeffs"], poly["digits"])
    flat = data["matrix"]
    if flat and isinstance(flat[0], list):
        matrix = [list(map(int, row)) for row in flat]
    else:
        n = int(round(len(flat) ** 0.5))
        if n * n != len(flat):
            raise ValueError("row-major matrix list must have square length")
        matrix = [flat[i * n : (i + 1) * n] for i in range(n)]
    digits = [linalg.as_vec(d) for d in data["digits"]]
    return numsys.RadixSystem(tuple(map(tuple, matrix)), tuple(digits))


def _seq_from_json(data, coerce=linalg.as_vec) -> radix.EpSeq:
    return radix.EpSeq.make(
        [coerce(x) for x in data.get("pre", [])],
        [coerce(x) for x in data["cycle"]],
    )


def _set_seq_from_json(data) -> radix.EpSeq:
    def coerce(entry):
        return frozenset(linalg.as_vec(v) for v in entry)

    return _seq_from_json(data, coerce)


def _rep(sys, data) -> radix.Representation:
    return radix.Representation(sys, _seq_from_json(data))


def _emit_json(args, payload: dict) -> None:
    if getattr(args, "timestamp", False):
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    _sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _emit_text(text: str) -> None:
    _sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_bytes(args, blob: bytes) -> None:
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob)
    else:
        _sys.stdout.buffer.write(blob)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_residues(args, sys, payload):
    reps = linalg.residue_system(sys.matrix)
    _emit_json(args, {"residues": [list(v) for v in reps], "count": len(reps)})


def cmd_numsys_check(args, sys, payload):
    ok, witnesses = numsys.is_number_system(sys)
    _emit_json(
        args,
        {
            "number_system": ok,
            "witness_cycles": [[list(v) for v in cycle] for cycle in witnesses],
        },
    )


def cmd_expand(args, sys, payload):
    digits = numsys.discrete_expansion(sys, payload["vector"])
    _emit_json(args, {"digits": [list(d) for d in digits]})


def cmd_eval(args, sys, payload):
    value = radix.eval_exact(_rep(sys, payload))
    _emit_json(
        args,
        {"value": {"exact": [linalg.frac_str(x) for x in value], "float": [float(x) for x in value]}},
    )


def cmd_equiv(args, sys, payload):
    x = _rep(sys, payload["x"])
    y = _rep(sys, payload["y"])
    same = radix.equivalent(x, y)
    _emit_json(
        args,
        {"equivalent": same, "neighbour_walk_agrees": radix.is_neighbour_sequence(x, y) == same},
    )


def cmd_enumerate_equiv(args, sys, payload):
    x = _rep(sys, payload["x"])
    cls, samples = radix.enumerate_equivalents(sys, x, payload.get("limit", 16))
    _emit_json(
        args,
        {"classification": cls, "samples": [s.to_json() for s in samples]},
    )


def cmd_unique(args, sys, payload):
    target = sys.difference_system() if args.difference else sys
    _emit_json(args, {"unique": radix.representations_unique(target)})


def cmd_neighbours(args, sys, payload):
    result = neighbours.integer_neighbours(sys.matrix, sys.digits)
    if args.dot or args.format == "dot":
        _emit_text(neighbours.neighbour_graph(sys.matrix, sys.digits).to_dot())
        return
    _emit_json(
        args,
        {
            "neighbours": [list(v) for v in result.sorted()],
            "ball_radius": result.ball_radius,
            "count": len(result.vectors),
        },
    )


def cmd_triple_graph(args, sys, payload):
    graph = neighbours.triple_state_graph(sys.matrix, sys.digits)
    if args.dot or args.format == "dot":
        _emit_text(graph.to_dot())
        return
    _emit_json(
        args,
        {
            "states": [[list(z), list(x)] for z, x in graph.states],
            "edge_count": len(graph.edges),
        },
    )


def cmd_sep(args, sys, payload):
    kind = payload.get("kind", "int")
    if kind == "int":
        seq = _seq_from_json(payload, coerce=int)
        witness = sep.is_sep_int(seq)
        out = None
        if witness is not None:
            out = {
                "block": witness.block,
                "base": list(witness.base),
                "increments": list(witness.increments),
            }
        _emit_json(args, {"sep": witness is not None, "witness": out})
        return
    seq = _set_seq_from_json(payload)
    if kind == "sets":
        witness = sep.is_sep_sets(seq)
    elif kind == "sets-translated":
        witness = sep.is_sep_sets_translated(
            sys.digits, seq, max_block=payload.get("max_block")
        )
    else:
        raise ValueError(f"unknown sep kind {kind!r}")
    _emit_json(
        args,
        {
            "sep": witness is not None,
            "witness": None if witness is None else intersect.witness_json(witness),
        },
    )


def _translate_from_payload(sys, payload) -> intersect.TranslateSpec:
    alpha = _seq_from_json(payload["alpha"])
    return intersect.translate_spec(sys, alpha, strict=payload.get("strict", True))


def cmd_intersect(args, sys, payload):
    if args.multi:
        specs = [
            intersect.translate_spec(sys, _seq_from_json(a), strict=payload.get("strict", True))
            for a in payload["alphas"]
        ]
        seq = intersect.multi_intersection_sequence(specs)
        _emit_json(args, {"sequence": seq.to_json()})
        return
    t = _translate_from_payload(sys, payload)
    report = intersect.intersection_report(
        t,
        sep_budget=payload.get("max_block"),
        empirical_depth=payload.get("empirical_depth"),
    )
    _emit_json(args, report)


def cmd_dims(args, sys, payload):
    kind = args.kind
    if kind == "bm":
        dim_h, dim_b = intersect.bm_dimensions(
            payload["m"],
            payload["n"],
            payload["digits"],
            allow_refined=payload.get("allow_refined", False),
        )
        _emit_json(args, {"hausdorff": dim_h, "box": dim_b})
        return
    if "sequence" in payload:
        seq = _set_seq_from_json(payload["sequence"])
    else:
        seq = intersect.intersection_sequence(_translate_from_payload(sys, payload))
    if kind == "box":
        report = intersect.box_dimension_ep(sys, seq)
        out = report.to_json()
        depth = payload.get("empirical_depth")
        if depth:
            est = intersect.box_count_exponent(sys, seq, depth)
            out.setdefault("flags", {})
            out["flags"]["empirical_exponent"] = est
            out["flags"]["empirical_matches_exact"] = abs(est - report.value) < 0.05
        _emit_json(args, out)
        return
    witness = sep.is_sep_sets_translated(sys.digits, seq, max_block=payload.get("max_block"))
    if witness is None:
        raise PreconditionError("sequence is not SEP; no witness-based dimension")
    if kind == "hausdorff":
        _emit_json(args, intersect.hausdorff_dimension_sep(sys, witness).to_json())
    elif kind == "similarity":
        _emit_json(args, intersect.similarity_dimension(sys, witness).to_json())
    else:
        raise ValueError(f"unknown dims kind {kind!r}")


def cmd_levelset(args, sys, payload):
    lam = _parse_frac(args.lam)
    prefix = [linalg.as_vec(a) for a in payload.get("alpha_prefix", [])]
    if "alpha" in payload and "epsilon" in payload:
        alpha = _seq_from_json(payload["alpha"])
        m = intersect.prefix_length_for_radius(sys, _parse_frac(payload["epsilon"]))
        prefix = [alpha.entry(j) for j in range(m)]
    t = intersect.level_set_translate(sys, prefix, lam, strict=payload.get("strict", True))
    seq = intersect.intersection_sequence(t)
    _emit_json(
        args,
        {
            "beta": t.alpha.to_json(),
            "dimension": intersect.box_dimension_ep(sys, seq).to_json(),
        },
    )


def cmd_union_components(args, sys, payload):
    t = intersect.TranslateSpec(
        system=sys, alpha=_seq_from_json(payload["alpha"]), uniqueness_checked=False
    )
    report = intersect.union_components(t, limit=payload.get("limit", 8))
    _emit_json(
        args,
        {
            "classification": report.classification,
            "components": [
                {
                    "alpha": c.alpha_rep.to_json(),
                    "sequence": c.sets.to_json(),
                    "dim_lower": c.dim_lower.to_json(),
                }
                for c in report.components
            ],
        },
    )


def _automaton_from_payload(sys, payload) -> multinv.DigitAutomaton:
    if "automaton" in payload:
        auto = multinv.DigitAutomaton.from_json(payload["automaton"])
        if auto.n_digits != len(sys.digits):
            raise PreconditionViolated(f"automaton reads {auto.n_digits} digits, the system has {len(sys.digits)}")
        return auto
    if "restrict" in payload:
        return multinv.digit_restriction_automaton(
            sys, [linalg.as_vec(d) for d in payload["restrict"]]
        )
    raise ValueError("payload needs 'automaton' or 'restrict'")


def cmd_multinv(args, sys, payload):
    auto = _automaton_from_payload(sys, payload)
    if args.action == "check":
        phi_ok, psi_ok = multinv.check_invariance(sys, auto)
        out = {"phi_closed": phi_ok, "psi_closed": psi_ok}
        k = payload.get("torus_k")
        if k:
            out["torus_invariance"] = multinv.torus_invariance_check(sys, auto, int(k))
        _emit_json(args, out)
    elif args.action == "cloud":
        points = sorted(multinv.xk_cloud(sys, auto, int(payload["k"])).points)
        _emit_json(
            args,
            {
                "points": [
                    {"exact": [linalg.frac_str(x) for x in p], "float": [float(x) for x in p]}
                    for p in points
                ]
            },
        )
    elif args.action == "converge":
        report = multinv.convergence_report(sys, auto, int(payload["kmax"]))
        if args.format == "csv":
            _emit_text(report.to_csv())
            return
        _emit_json(
            args,
            {
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
            },
        )
    else:
        raise ValueError(f"unknown multinv action {args.action!r}")


def _int_field(payload, key: str, default: int) -> int:
    value = payload.get(key, default)
    if type(value) is not int:  # bool is an int subclass, a JSON true is not a count
        raise PreconditionViolated(f"{key} must be a JSON integer, got {value!r}")
    return value


def cmd_render(args, sys, payload):
    width = _int_field(payload, "width", 256)
    height = _int_field(payload, "height", 256)
    k = _int_field(payload, "k", 5)
    bbox = None
    if "bbox" in payload:
        bbox = tuple(
            (_parse_frac(lo), _parse_frac(hi)) for lo, hi in payload["bbox"]
        )
    if args.overlap:
        shift = linalg.as_vec([int(x) for x in args.overlap.split(",")])
        img = render.render_overlap(sys, shift, k, width, height)
    else:
        digit_filter = None
        if "filter" in payload:
            digit_filter = _set_seq_from_json(payload["filter"])
        cloud = render.ktile_points(
            sys, k, digit_filter=digit_filter, sample_seed=payload.get("seed")
        )
        img = render.rasterize([cloud], width, height, bbox=bbox)
    _emit_bytes(args, img.to_pnm())


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radixtile",
        description="Exact analysis of matrix number systems and digit tiles",
    )
    parser.add_argument("--format", choices=["json", "dot", "pgm", "ppm", "csv"], default="json")
    parser.add_argument("--timestamp", action="store_true", help="include a generation timestamp")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, selector=None, choices=None, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if selector:
            p.add_argument(selector, choices=choices)
        p.add_argument("descriptor", help="system descriptor JSON file")
        p.add_argument("--payload", "-p", default=None, help="payload JSON file or inline JSON")
        p.set_defaults(handler=handler)
        return p

    add("residues", cmd_residues)
    add("numsys-check", cmd_numsys_check)
    add("expand", cmd_expand)
    add("eval", cmd_eval)
    add("equiv", cmd_equiv)
    add("enumerate-equiv", cmd_enumerate_equiv)
    p = add("unique", cmd_unique)
    p.add_argument("--difference", action="store_true", help="check the difference digit system")
    p = add("neighbours", cmd_neighbours)
    p.add_argument("--dot", action="store_true")
    p = add("triple-graph", cmd_triple_graph)
    p.add_argument("--dot", action="store_true")
    add("sep", cmd_sep)
    p = add("intersect", cmd_intersect)
    p.add_argument("--multi", action="store_true")
    add("dims", cmd_dims, selector="kind", choices=["box", "hausdorff", "similarity", "bm"])
    p = add("levelset", cmd_levelset)
    p.add_argument("--lam", "--lambda", dest="lam", required=True, help="level as p/q")
    add("union-components", cmd_union_components)
    add("multinv", cmd_multinv, selector="action", choices=["check", "cloud", "converge"])
    p = add("render", cmd_render)
    p.add_argument("--overlap", default=None, help="integer shift, comma separated")
    p.add_argument("--out", default=None, help="output file for binary formats")
    return parser


def _load_payload(args) -> dict:
    if not args.payload:
        return {}
    text = args.payload
    if text.strip().startswith("{"):
        return json.loads(text)
    with open(text) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        system = load_descriptor(args.descriptor)
        payload = _load_payload(args)
        args.handler(args, system, payload)
    except BudgetError as exc:
        _sys.stdout.write(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n")
        return 3
    except (PreconditionError, ValueError) as exc:
        _sys.stdout.write(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n")
        return 2
    except RadixTileError as exc:
        _sys.stdout.write(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
