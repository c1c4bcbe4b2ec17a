"""Output checks: content digests against recorded outputs, plus oracles.

A digest covers a job's exit code and the exact part of its output.  Every
float-valued JSON field (the ``float`` renderings, ``ball_radius``, ``bound``,
measured distances and empirical exponents) is left out, and so is the
``bound`` column of a CSV table, so that a certified tighter bound or a
reordered float sum does not count as a failure.  Errors are digested by exit
code and error type, not by message.  Raster bytes are digested whole.

The oracles are independent of the recorded outputs:

``kkg``               number-system verdict of x^2+bx+c with digits 0..c-1
                      (Katai-Kovacs 1981, Gilbert 1981: c >= 2, -1 <= b <= c)
``gauss_neighbours``  -n+i neighbours equal +-{1, n-1+i, n+i} for n >= 3
``walk_agrees``       equiv reports neighbour_walk_agrees: true
``converge_bound``    every row of a convergence table has measured <= bound
``expand_roundtrip``  the expansion digits evaluate back to the vector
``residues_count``    a complete residue system has |det| members
``exit``              the job ends with the given exit code
"""

from __future__ import annotations

import csv
import hashlib
import io
import json


def _strip_floats(value):
    if isinstance(value, dict):
        return {k: _strip_floats(v) for k, v in value.items() if not isinstance(v, float)}
    if isinstance(value, list):
        return [_strip_floats(v) for v in value if not isinstance(v, float)]
    return value


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def _exact_part(kind: str, code: int, out: bytes):
    """The part of an output that the digest covers (bytes or JSON value)."""
    if code != 0:
        try:
            return {"exit": code, "error": json.loads(out)["error"]["type"]}
        except (ValueError, KeyError, TypeError):
            return {"exit": code, "unparsed": out.decode("utf-8", "replace")}
    if kind == "json":
        return _strip_floats(json.loads(out))
    if kind == "csv":
        rows = list(csv.DictReader(io.StringIO(out.decode())))
        return [{k: v for k, v in row.items() if k != "bound"} for row in rows]
    return out


def digest(kind: str, code: int, out: bytes) -> str:
    part = _exact_part(kind, code, out)
    if isinstance(part, bytes):
        return _sha(part)
    return _sha(json.dumps(part, sort_keys=True, separators=(",", ":")).encode())


# ---------------------------------------------------------------------------
# oracles


def _matrix_of(descriptor: dict) -> list[list[int]]:
    if "polynomial" in descriptor:
        coeffs = descriptor["polynomial"]["coeffs"]
        n = len(coeffs)
        return [
            [(1 if i == j + 1 else 0) if j < n - 1 else -coeffs[i] for j in range(n)]
            for i in range(n)
        ]
    flat = descriptor["matrix"]
    n = int(round(len(flat) ** 0.5))
    return [flat[i * n : (i + 1) * n] for i in range(n)]


def _rows_of(kind: str, out: bytes) -> list[tuple[float, float]]:
    if kind == "csv":
        return [(float(r["measured"]), float(r["bound"])) for r in csv.DictReader(io.StringIO(out.decode()))]
    return [(r["measured"], r["bound"]) for r in json.loads(out)["rows"]]


def oracle(check: dict | None, kind: str, descriptor: dict, code: int, out: bytes) -> str | None:
    """None when the output passes the check, else a one-line reason."""
    if check is None:
        return None
    name = check["kind"]
    if name == "exit":
        return None if code == check["code"] else f"exit {code}, expected {check['code']}"
    if code != 0:
        return f"exit {code}"
    if name == "kkg":
        got = json.loads(out)["number_system"]
        return None if got == check["number_system"] else f"number_system {got}, criterion says {not got}"
    if name == "gauss_neighbours":
        n = check["n"]
        half = [(1, 0), (n - 1, 1), (n, 1)]
        want = sorted([list(v) for v in half] + [[-a, -b] for a, b in half])
        got = json.loads(out)["neighbours"]
        return None if got == want else f"neighbours {got} != closed form {want}"
    if name == "walk_agrees":
        return None if json.loads(out)["neighbour_walk_agrees"] is True else "neighbour walk disagrees"
    if name == "converge_bound":
        rows = _rows_of(kind, out)
        bad = [i + 1 for i, (measured, bound) in enumerate(rows) if not measured <= bound]
        return None if rows and not bad else f"rows {bad} exceed their bound"
    if name == "expand_roundtrip":
        a = _matrix_of(descriptor)
        value = [0] * len(a)
        for d in reversed(json.loads(out)["digits"]):
            value = [sum(a[i][j] * value[j] for j in range(len(a))) + d[i] for i in range(len(a))]
        return None if value == check["vector"] else f"digits evaluate to {value}, not {check['vector']}"
    if name == "residues_count":
        data = json.loads(out)
        ok = data["count"] == check["det"] == len(data["residues"]) == len({tuple(r) for r in data["residues"]})
        return None if ok else f"{data['count']} residues for |det| {check['det']}"
    raise ValueError(f"unknown check {name!r}")
