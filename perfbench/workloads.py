"""The four benchmark workloads: job pools and the seeded job lists drawn from them.

A workload is a list of *slots*.  Each slot holds one or more alternative jobs
of about the same cost; the seed picks one alternative per slot and then
shuffles the picks.  So every seed runs the same mix of work, while a different
seed gives a different job list.  The pools are fixed, which lets
``expected.json`` hold the recorded output of every job any seed can draw.

A job is a dict:

``argv``     CLI tokens before the descriptor path (global flags first)
``system``   key into ``SYSTEMS``; its descriptor file is appended to argv
``payload``  JSON payload passed with ``-p``, or None
``out``      output kind: ``json``, ``dot``, ``csv`` or ``pnm``
``check``    oracle check run on the output (see checks.py), or None
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("decide", "translates", "render", "converge")

SYSTEMS: dict[str, dict] = {}


def _system(name: str, descriptor: dict) -> str:
    SYSTEMS[name] = descriptor
    return name


def _quad(b: int, c: int, digits=None) -> str:
    """Companion system of x^2 + b x + c, digits 0..c-1 unless given."""
    digits = list(range(c)) if digits is None else list(digits)
    tag = "" if digits == list(range(c)) else "_d" + "-".join(map(str, digits))
    return _system(f"quad_b{b}_c{c}{tag}", {"polynomial": {"coeffs": [c, b], "digits": digits}})


def _gauss(n: int, digits) -> str:
    """Multiplication by -n+i on Z^2 with digits d*e1."""
    digits = list(digits)
    full = digits == list(range(n * n + 1))
    tag = "full" if full else "d" + "-".join(map(str, digits))
    return _system(
        f"gauss{n}_{tag}",
        {"matrix": [-n, -1, 1, -n], "digits": [[d, 0] for d in digits]},
    )


def _matrix(name: str, flat, digits) -> str:
    return _system(name, {"matrix": list(flat), "digits": [list(d) for d in digits]})


def job(argv, system, payload=None, out="json", check=None) -> dict:
    return {"argv": list(argv), "system": system, "payload": payload, "out": out, "check": check}


def job_key(j: dict) -> str:
    """Content key of a job: its argv, descriptor contents and payload."""
    blob = json.dumps(
        {"argv": j["argv"], "system": SYSTEMS[j["system"]], "payload": j["payload"]},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


# ---------------------------------------------------------------------------
# decide: exact decisions on many distinct systems


def kkg_number_system(b: int, c: int) -> bool:
    """Katai-Kovacs / Gilbert: x^2+bx+c with digits 0..c-1 is a number system
    iff c >= 2 and -1 <= b <= c."""
    return c >= 2 and -1 <= b <= c


def _decide_system_slots(rng, name, det, kkg=None, gauss_n=None, n_dim=2):
    check_ns = None if kkg is None else {"kind": "kkg", "number_system": kkg}
    nb_check = None if gauss_n is None or gauss_n < 3 else {"kind": "gauss_neighbours", "n": gauss_n}
    vectors = [[rng.randint(-40, 40) for _ in range(n_dim)] for _ in range(4)]
    slots = [
        [job(["residues"], name, check={"kind": "residues_count", "det": abs(det)})],
        [job(["numsys-check"], name, check=check_ns)],
        [job(["neighbours"], name, check=nb_check), job(["neighbours", "--dot"], name, out="dot")],
        [job(["triple-graph"], name), job(["triple-graph", "--dot"], name, out="dot")],
        [job(["unique", "--difference"], name)],
    ]
    if kkg is not False:  # expansions exist only in a number system
        slots.append(
            [job(["expand"], name, {"vector": v}, check={"kind": "expand_roundtrip", "vector": v}) for v in vectors]
        )
    return slots


def decide_slots() -> list[list[dict]]:
    rng = random.Random("pool:decide")
    slots = []
    # quadratic companion systems x^2 + bx + c, including b = -2 (not a number system)
    for c in range(2, 6):
        for b in range(-2, 3):
            slots += _decide_system_slots(rng, _quad(b, c), c, kkg=kkg_number_system(b, c))
    # near the boundary |b| = c: long remainder walks, large candidate balls
    for b, c in ((3, 3), (-3, 3)):
        slots += _decide_system_slots(rng, _quad(b, c), c, kkg=kkg_number_system(b, c))
    # the -n+i systems with digits 0..n^2
    for n in (2, 3, 4):
        slots += _decide_system_slots(rng, _gauss(n, range(n * n + 1)), n * n + 1, gauss_n=n)
    # a cubic: x^3 + 2 with digits 0, 1
    cubic = _system("cubic_x3p2", {"polynomial": {"coeffs": [2, 0, 0], "digits": [0, 1]}})
    slots += _decide_system_slots(rng, cubic, 2, n_dim=3)
    # error paths: exit 2 (not expanding; digits not a complete residue
    # system) and exit 3 (candidate ball over its cap)
    nonexp = [_quad(c + 1, c) for c in (2, 3, 4, 5)]
    not_crs = [_quad(1, 3, [0, 1, 3]), _quad(2, 4, [0, 1, 2, 4]), _quad(0, 5, [0, 1, 2, 3])]
    big = _matrix("twin_bigdigit", [2, 0, 0, 2], [(0, 0), (2001, 0), (0, 1), (1, 1)])
    exit2 = {"kind": "exit", "code": 2}
    exit3 = {"kind": "exit", "code": 3}
    slots.append([job(["numsys-check"], s, check=exit2) for s in nonexp])
    slots.append([job(["neighbours"], s, check=exit2) for s in nonexp])
    slots.append([job(["numsys-check"], s, check=exit2) for s in not_crs])
    slots.append([job(["numsys-check"], big, check=exit3)])
    slots.append([job(["neighbours"], big, check=exit3)])
    return slots


# ---------------------------------------------------------------------------
# translates: thousands of small jobs on a few shared systems


M3I = _gauss(3, (0, 4, 8))
M5I = _gauss(5, (0, 3, 6))
M3F = _gauss(3, range(10))
B10 = _matrix("base10", [10], [(d,) for d in range(10)])

# digits (first coordinates), whether difference representations are unique
# (so strict translate checks pass), and the dimension
_TRANSLATE_SYSTEMS = {
    M3I: ((0, 4, 8), True, 2),
    M5I: ((0, 3, 6), True, 2),
    M3F: (tuple(range(10)), False, 2),
    B10: (tuple(range(10)), False, 1),
}


def _vec(system, x):
    return [x, 0] if _TRANSLATE_SYSTEMS[system][2] == 2 else [x]


def _seq(system, pre, cycle):
    return {"pre": [_vec(system, x) for x in pre], "cycle": [_vec(system, x) for x in cycle]}


def _rand_entries(rng, values, lo, hi):
    return [rng.choice(values) for _ in range(rng.randint(lo, hi))]


# for the full-digit systems, alphas use large differences only: a zero entry
# gives a full 10-digit component and an IFS with hundreds of maps
_BIG_DIFFS = (-9, -8, -7, 7, 8, 9)


def _rand_alpha(rng, system):
    """(pre, cycle) of digit differences, as first coordinates."""
    digits = _TRANSLATE_SYSTEMS[system][0]
    values = _BIG_DIFFS if system in (M3F, B10) else sorted({a - b for a in digits for b in digits})
    return _rand_entries(rng, values, 0, 2), _rand_entries(rng, values, 1, 2)


def _rand_digits(rng, system):
    digits = _TRANSLATE_SYSTEMS[system][0]
    return _rand_entries(rng, digits, 0, 3), _rand_entries(rng, digits, 1, 3)


def _negated(pre, cycle):
    return [-x for x in pre], [-x for x in cycle]


def _reflected(system, pre, cycle):
    """Digits d -> max - d; every digit set here is symmetric."""
    top = max(_TRANSLATE_SYSTEMS[system][0])
    return [top - x for x in pre], [top - x for x in cycle]


def _strict(system, payload):
    if not _TRANSLATE_SYSTEMS[system][1]:
        payload["strict"] = False
    return payload


def translates_slots() -> list[list[dict]]:
    """Alternatives in a slot are mirror images of one random input: -alpha
    for a translate alpha, d -> max - d for digits.  A mirror image has the
    same component sizes, SEP verdict and work, so every seed costs the same."""
    rng = random.Random("pool:translates")
    slots = []

    def family(count, make, systems=(M3I, M5I, M3F, B10)):
        for i in range(count):
            slots.append(make(systems[i % len(systems)]))

    def on_alphas(argv, extra=None):
        def make(s):
            alpha = _rand_alpha(rng, s)
            return [
                job(argv, s, _strict(s, {"alpha": _seq(s, *a), **(extra or {})}))
                for a in (alpha, _negated(*alpha))
            ]
        return make

    family(32, on_alphas(["intersect"]))
    for kind in ("box", "hausdorff", "similarity"):
        family(20, on_alphas(["dims", kind]))
    lams = ["0", "1", "1/2", "1/3", "2/3", "1/4", "3/4", "2/5", "3/7", "5/8", "4/9", "7/12"]

    def levelset(s):
        argv = ["levelset", "--lam", rng.choice(lams)]
        if rng.random() < 0.5:
            return [job(argv, s, _strict(s, {}))]
        return on_alphas(argv, {"epsilon": rng.choice(["1/10", "1/100", "1/1000"])})(s)

    family(20, levelset)

    def sep_int(s):
        pre, cycle = _rand_entries(rng, range(6), 0, 3), _rand_entries(rng, range(6), 1, 3)
        return [
            job(["sep"], s, {"kind": "int", "pre": [x + c for x in pre], "cycle": [x + c for x in cycle]})
            for c in (0, 1, 2)
        ]

    def sep_sets(s):
        digits = _TRANSLATE_SYSTEMS[s][0]
        top = max(digits)
        subsets = [sorted(rng.sample(digits, rng.randint(1, len(digits)))) for _ in range(4)]
        n_pre, n_cycle = rng.randint(0, 2), rng.randint(1, 2)
        alts = []
        for reflect in (False, True):
            entries = [[_vec(s, top - d if reflect else d) for d in sub] for sub in subsets]
            payload = {"kind": "sets-translated", "pre": entries[:n_pre], "cycle": entries[2 : 2 + n_cycle]}
            alts.append(job(["sep"], s, payload))
        return alts

    family(16, sep_int, systems=(B10,))
    family(16, sep_sets, systems=(M3I, M5I))

    def evaluate(s):
        x = _rand_digits(rng, s)
        return [job(["eval"], s, _seq(s, *v)) for v in (x, _reflected(s, *x))]

    family(32, evaluate)

    def equiv(s):
        if s == B10 and rng.random() < 0.5:
            # d.(a)(b)000... == d.(a)(b-1)999...
            head = [rng.randint(0, 9)]
            last = rng.randint(1, 9)
            x, y = (head + [last], [0]), (head + [last - 1], [9])
        else:
            x, y = _rand_digits(rng, s), _rand_digits(rng, s)
        pairs = [(x, y), (y, x), (_reflected(s, *x), _reflected(s, *y)), (_reflected(s, *y), _reflected(s, *x))]
        return [
            job(["equiv"], s, {"x": _seq(s, *a), "y": _seq(s, *b)}, check={"kind": "walk_agrees"})
            for a, b in pairs
        ]

    family(32, equiv)

    def enumerate_equiv(s):
        x, limit = _rand_digits(rng, s), rng.choice([4, 8])
        return [job(["enumerate-equiv"], s, {"x": _seq(s, *v), "limit": limit}) for v in (x, _reflected(s, *x))]

    family(12, enumerate_equiv, systems=(B10, M3I))

    def union(s):
        alpha = _rand_alpha(rng, s)
        return [job(["union-components"], s, {"alpha": _seq(s, *a), "limit": 4}) for a in (alpha, _negated(*alpha))]

    family(12, union, systems=(M3I, M5I))
    # long SEP blocks: build_ifs is exponential in the block length; the
    # alternatives reorder one multiset of entries
    for head in ([0, 0, 4, 4, 4], [0, 0, 4, 4, 4, 4]):
        alts = []
        for _ in range(4):
            cycle = rng.sample(head, len(head)) + [8]
            alts.append(job(["intersect"], M3I, {"alpha": _seq(M3I, [], cycle)}))
        slots.append(alts)
    return slots


# ---------------------------------------------------------------------------
# render: depth-k point clouds and rasters


R2F = _gauss(2, range(5))
R4F = _gauss(4, range(17))
TWIN = _matrix("twin_dragon2", [2, 0, 0, 2], [(0, 0), (1, 0), (0, 1), (1, 1)])
KNUTH = _matrix("knuth_m1i", [-1, -1, 1, -1], [(0, 0), (1, 0)])
BASE3 = _matrix("base3_full", [3], [(0,), (1,), (2,)])
CANTOR = _matrix("base3_cantor", [3], [(0,), (2,)])
BASE4 = _matrix("base4_full", [4], [(0,), (1,), (2,), (3,)])


def render_slots() -> list[list[dict]]:
    """Alternatives in a slot draw the same cloud into a raster of the same
    pixel count (width and height swapped) or overlap it with a translate by
    a shift of the same length."""
    rng = random.Random("pool:render")
    slots = []
    sizes = [(96, 64), (128, 96), (160, 120), (192, 128), (256, 192)]

    def render(system, k, extra=None):
        w, h = rng.choice(sizes)
        return [job(["render"], system, {"k": k, "width": a, "height": b, **(extra or {})}, out="pnm")
                for a, b in ((w, h), (h, w))]

    def overlap(system, k):
        w, h = rng.choice(sizes)
        return [
            job(["render", f"--overlap={shift}"], system, {"k": k, "width": w, "height": h}, out="pnm")
            for shift in ("1,0", "-1,0", "0,1", "0,-1")
        ]

    # clouds of 1.0e4 to 3.3e4 points, and one of 1e5 points whose overlap
    # sets the workload's peak memory; larger clouds take seconds each, too
    # few of them fit in a run for a steady median
    for system, k in ((R2F, 6), (M3F, 4), (TWIN, 7), (KNUTH, 14), (BASE3, 9), (BASE4, 7), (CANTOR, 14)):
        for _ in range(2):
            slots.append(render(system, k))
    # explicit bounding boxes and per-position digit filters
    slots.append(render(M3F, 4, {"bbox": [["-1", "2"], ["-1", "1"]]}))
    slots.append(render(KNUTH, 14, {"bbox": [["-1/2", "3/2"], ["-3/2", "1/2"]]}))
    filters = [
        (9, {"pre": [], "cycle": [[[0, 0], [4, 0], [8, 0]]]}),
        (10, {"pre": [[[0, 0], [1, 0]]], "cycle": [[[0, 0], [4, 0], [8, 0], [9, 0]], [[2, 0], [5, 0]]]}),
        (6, {"pre": [], "cycle": [[[1, 0], [3, 0], [5, 0], [7, 0], [9, 0]]]}),
    ]
    for k, f in filters:
        slots.append(render(M3F, k, {"filter": f}))
    # overlap views: the tile in red, a translate in green
    for system, k in ((R2F, 6), (M3F, 4), (KNUTH, 14), (TWIN, 7), (M3F, 5)):
        slots.append(overlap(system, k))
    # empirical box-count exponents on depth-k clouds
    for system in (M3I, M3F, M3I, M3F):
        alpha = _rand_alpha(rng, system)
        slots.append(
            [
                job(["dims", "box"], system, _strict(system, {"alpha": _seq(system, *a), "empirical_depth": 4}))
                for a in (alpha, _negated(*alpha))
            ]
        )
    # budget error: a depth-8 cloud of 10^8 points is over the cap
    slots.append([job(["render"], M3F, {"k": 8}, out="pnm", check={"kind": "exit", "code": 3})])
    return slots


# ---------------------------------------------------------------------------
# converge: exact scaled clouds and Hausdorff convergence tables


def converge_slots() -> list[list[dict]]:
    """Alternatives in a slot restrict the system to digit sets of the same
    size, so the clouds have the same number of points."""
    slots = []
    groups = [
        (BASE3, [[[0], [2]], [[0], [1]]], 10),
        (BASE4, [[[0], [1]], [[0], [2]], [[0], [3]]], 8),
        (BASE4, [[[0], [1], [3]], [[0], [1], [2]], [[0], [2], [3]]], 6),
        (R2F, [[[0, 0], [1, 0], [3, 0]], [[0, 0], [1, 0], [4, 0]], [[0, 0], [2, 0], [4, 0]]], 5),
        (R2F, [[[0, 0], [2, 0]], [[0, 0], [1, 0]], [[0, 0], [3, 0]]], 8),
        (TWIN, [[[0, 0], [1, 1]], [[0, 0], [1, 0]], [[0, 0], [0, 1]]], 8),
    ]
    bound_ok = {"kind": "converge_bound"}
    csv_argv = ["--format", "csv", "multinv", "converge"]
    for system, restricts, kmax in groups:
        for argv, out, k in (
            (["multinv", "converge"], "json", 2),
            (csv_argv, "csv", kmax - 2),
            (["multinv", "converge"], "json", kmax),
            (csv_argv, "csv", kmax),
        ):
            slots.append([job(argv, system, {"restrict": r, "kmax": k}, out=out, check=bound_ok) for r in restricts])
        for _ in range(2):
            slots.append([job(["multinv", "check"], system, {"restrict": r, "torus_k": 4}) for r in restricts])
            slots.append([job(["multinv", "cloud"], system, {"restrict": r, "k": 4}) for r in restricts])
    # the dense Hausdorff matrix at its largest: kmax = 12, 4096-point clouds
    slots.append([job(["multinv", "converge"], BASE3, {"restrict": [[0], [2]], "kmax": 12}, check=bound_ok)])
    return slots


_SLOTS = {
    "decide": decide_slots,
    "translates": translates_slots,
    "render": render_slots,
    "converge": converge_slots,
}


def slots(workload: str) -> list[list[dict]]:
    if workload not in _SLOTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _SLOTS[workload]()


def pool(workload: str) -> list[dict]:
    """Every job any seed can draw for the workload, without repeats."""
    seen = {}
    for slot in slots(workload):
        for j in slot:
            seen.setdefault(job_key(j), j)
    return list(seen.values())


def job_list(workload: str, seed: int) -> list[dict]:
    """One alternative per slot, chosen and shuffled by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    picks = [rng.choice(slot) for slot in slots(workload)]
    rng.shuffle(picks)
    return picks
