#!/usr/bin/env python3
"""Benchmark of the radixtile command line, end to end and per layer.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                      # every workload, untraced and traced
    python3 perfbench/run.py --write-spec         # regenerate BENCHMARK.json
    python3 perfbench/run.py --record             # re-record expected.json (seed commit only)

One run is one process and one closed-loop client: jobs run one at a time,
each as a ``radixtile.cli.main(argv)`` call with stdout captured.  The job list
comes from the seed (workloads.py).  It is run in passes until ``--seconds``
are used up; before each pass the library's ``lru_cache``s are cleared, so each
pass is one fresh user session in which the caches fill as they would for a
user.  The first pass warms the interpreter and is not timed.  Every output of
every pass is checked (checks.py).  Times are job medians over the passes, in
reference seconds (see ``reference_loop``).

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` traced and untraced passes alternate and it holds the per-layer
metrics (tracing.py).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(HERE, "_out")

if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import checks, tracing, workloads  # noqa: E402

RUN_SECONDS = 25
SETUP_REPEATS = 9
MIN_TIMED_PASSES = 3
TAIL_BEYOND = 10
# time of reference_loop() on an idle core of the machine the bounds were
# tuned on (2 vCPUs, Python 3.11); it only sets the scale of reported times
REF_LOOP_S = 0.0008

WHY = {
    "decide": "many distinct systems through residues, numsys-check, neighbours, triple-graph, "
    "unique and expand; cost follows the candidate ball, caches mostly miss",
    "translates": "thousands of small jobs on four shared systems; neighbours is warm, "
    "parser and per-job overhead matter, long SEP blocks drive build_ifs",
    "render": "depth-k clouds of 1e4 to 1e5 points, rasters and overlaps; the array and "
    "raster path, no decision work",
    "converge": "multinv converge, check and cloud on restricted digit sets up to kmax 12; "
    "exact Fraction clouds and the dense Hausdorff matrix set peak memory",
}

# name, unit, better, bound
END_TO_END = [
    ("wall_s", "s", "lower", 0.24),
    ("job_p50_ms", "ms", "lower", 0.24),
    ("job_tail_ms", "ms", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

PER_LAYER = (
    [(f"{layer}.{m}", unit, better) for layer in tracing.LAYERS
     for m, unit, better in (("self_s", "s", "lower"), ("self_share", "frac", "lower"), ("calls", "count", "lower"))]
    + [
        ("cli.parser_s", "s", "lower"),
        ("cli.out_bytes", "bytes", "lower"),
        ("linalg.ball_points", "count", "lower"),
        ("numsys.walks", "count", "lower"),
        ("numsys.walk_states", "count", "lower"),
        ("neighbours.tile_points", "count", "lower"),
        ("neighbours.live_ratio", "ratio", "higher"),
        ("neighbours.triple_edges", "count", "lower"),
        ("radix.pair_edges", "count", "lower"),
        ("radix.eval_calls", "count", "lower"),
        ("sep.searches", "count", "lower"),
        ("sep.witness_frac", "ratio", "higher"),
        ("intersect.ifs_maps", "count", "lower"),
        ("multinv.cloud_points", "count", "lower"),
        ("multinv.dist_pairs", "count", "lower"),
        ("multinv.dist_bytes_computed", "bytes", "lower"),
        ("render.cloud_points", "count", "lower"),
        ("render.pixels_lit", "count", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)


def spec() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in workloads.WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# the program under test


def require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "radixtile", "cli.py")):
        sys.stderr.write(f"perfbench: no radixtile sources under {SRC}\n")
        raise SystemExit(2)


def import_cli():
    """radixtile.cli from this checkout's src/, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import radixtile.cli

    where = os.path.realpath(radixtile.cli.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        sys.stderr.write(f"perfbench: imported radixtile from {where}, not from {SRC}\n")
        raise SystemExit(2)
    return radixtile.cli


def library_caches() -> list:
    """Every lru_cache in the library's layer modules."""
    out = []
    for name in tracing.LAYERS:
        module = importlib.import_module(f"radixtile.{name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", "") == module.__name__:
                out.append(obj)
    return out


def reference_loop() -> float:
    """Seconds taken by a fixed integer loop: the CPU's speed right now.

    Other tenants of a shared machine slow the CPU by up to half for seconds
    to minutes at a time.  Dividing a latency by this loop's time, measured
    just before and after, cancels that; the loop allocates nothing the
    garbage collector tracks, so the program's heap does not change it.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(12000):
        s += (i * i) % 7
    return time.perf_counter() - t0


def to_reference(elapsed: float, before: float, after: float) -> float:
    """A measured time in reference seconds: at REF_LOOP_S per loop."""
    return elapsed * REF_LOOP_S * 2.0 / (before + after)


def setup_time() -> float:
    """Time for a fresh interpreter to import radixtile.cli and exit, in reference seconds."""
    before = reference_loop()
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import radixtile.cli"],
        env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    elapsed = time.perf_counter() - t0
    return to_reference(elapsed, before, reference_loop())


def call(cli, argv) -> tuple[int, float, bytes]:
    """Run one job in-process: exit code, latency in seconds, stdout bytes."""
    buf = io.BytesIO()
    stream = io.TextIOWrapper(buf, encoding="utf-8", write_through=True)
    saved = sys.stdout
    sys.stdout = stream
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an unstructured traceback is a wrong output, not a crash of the run
        code = 1
        stream.write(traceback.format_exc())
    finally:
        elapsed = time.perf_counter() - t0
        sys.stdout = saved
    stream.flush()
    out = buf.getvalue()
    stream.detach()
    return code, elapsed, out


# ---------------------------------------------------------------------------
# passes


class Session:
    """A workload's prepared jobs and the checks on their outputs."""

    def __init__(self, cli, jobs, workdir, expected):
        self.cli = cli
        self.jobs = jobs
        self.keys = [workloads.job_key(j) for j in jobs]
        self.expected = expected
        self.caches = library_caches()
        os.makedirs(workdir, exist_ok=True)
        paths = {}
        for j in jobs:
            if j["system"] not in paths:
                paths[j["system"]] = os.path.join(workdir, j["system"] + ".json")
                with open(paths[j["system"]], "w") as fh:
                    json.dump(workloads.SYSTEMS[j["system"]], fh)
        self.argvs = []
        for j in jobs:
            argv = j["argv"] + [paths[j["system"]]]
            if j["payload"] is not None:
                argv += ["-p", json.dumps(j["payload"])]
            self.argvs.append(argv)
        self.attempted = 0
        self.failures: list[str] = []

    def describe(self, i: int) -> str:
        """Job i as a command line, with the system name for its descriptor."""
        j = self.jobs[i]
        payload = [] if j["payload"] is None else ["-p", json.dumps(j["payload"], separators=(",", ":"))]
        return " ".join(j["argv"] + [j["system"]] + payload)

    def check(self, i: int, code: int, out: bytes) -> str:
        """Digest of job i's output; a failed check is logged."""
        j = self.jobs[i]
        problems = []
        try:
            got = checks.digest(j["out"], code, out)
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            got = None
            problems.append(f"unreadable output ({type(exc).__name__})")
        record = self.expected.get(self.keys[i])
        if record is None:
            problems.append("no recorded output for this job")
        elif record[0] != code:
            problems.append(f"exit {code}, recorded {record[0]}")
        elif got is not None and record[1] != got:
            problems.append("output digest differs from the record")
        try:
            reason = checks.oracle(j["check"], j["out"], workloads.SYSTEMS[j["system"]], code, out)
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"oracle could not read the output ({type(exc).__name__})"
        if reason:
            problems.append(reason)
        self.attempted += 1
        if problems:
            self.failures.append(f"{self.describe(i)}: {'; '.join(problems)}")
        return got

    def run_pass(self, tracer=None) -> tuple[list[float], float, list[str], int]:
        """One pass over the job list.

        Returns the job latencies in reference seconds, the measured wall
        time of the jobs, their output digests, and the stdout bytes.
        """
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        latencies, wall, digests, out_bytes = [], 0.0, [], 0
        before = reference_loop()
        for i, argv in enumerate(self.argvs):
            if tracer is not None:
                tracer.job = i
            code, elapsed, out = call(self.cli, argv)
            after = reference_loop()
            latencies.append(to_reference(elapsed, before, after))
            before = after
            wall += elapsed
            out_bytes += len(out)
            digests.append(self.check(i, code, out))
        return latencies, wall, digests, out_bytes


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def scratch_dir() -> str:
    """A directory of this process under perfbench/_work, for descriptor files."""
    return os.path.join(HERE, "_work", str(os.getpid()))


def remove_scratch(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:  # another run still uses it
        pass


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_time()  # the first start compiles bytecode and is not counted
    cli = import_cli()
    with open(EXPECTED) as fh:
        expected = json.load(fh)["jobs"]
    workdir = scratch_dir()
    try:
        session = Session(cli, workloads.job_list(workload, seed), workdir, expected)
        result = measure(session, seconds, trace, workload)
    finally:
        remove_scratch(workdir)
    return result


def job_medians(passes: list[list[float]]) -> list[float]:
    """Each job's median latency over the passes."""
    return [statistics.median(col) for col in zip(*passes)]


def measure(session: Session, seconds: float, trace: bool, workload: str) -> dict:
    # set-up samples are spread between the passes, so that one slow spell
    # of a shared machine does not set the median
    setups = [setup_time()]
    start = time.perf_counter()
    _, _, reference, _ = session.run_pass()  # warm-up, untimed
    untraced, traced, walls = [], [], []
    while True:
        if len(setups) < SETUP_REPEATS:
            pause = time.perf_counter()
            setups.append(setup_time())
            start += time.perf_counter() - pause
        if trace and len(traced) <= len(untraced):
            with tracing.Tracer() as tracer:
                latencies, wall, digests, out_bytes = session.run_pass(tracer)
            traced.append((latencies, tracer.layer_metrics(out_bytes)))
            if digests != reference:
                session.failures.append("traced pass: output digests differ from the untraced pass")
        else:
            latencies, wall, digests, _ = session.run_pass()
            untraced.append(latencies)
            walls.append(wall)
        elapsed = time.perf_counter() - start
        done = (bool(untraced) and bool(traced)) if trace else len(untraced) >= MIN_TIMED_PASSES
        if done and elapsed + wall > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_time())

    per_job = job_medians(untraced)
    tail_value, tail_pct = tail(per_job)
    result = {
        "workload": workload,
        "jobs": len(session.jobs),
        "passes": len(untraced),
        "traced_passes": len(traced),
        "pass_walls_s": walls,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "failures": session.failures[:20],
        "wall_s": sum(per_job),
        "job_p50_ms": statistics.median(per_job) * 1000.0,
        "job_tail_ms": tail_value * 1000.0,
        "tail_percentile": tail_pct,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": len(session.failures) / max(1, session.attempted),
        "setup_s": statistics.median(setups),
        "setup_samples_s": setups,
        "slowest_ms": [
            [round(ms * 1000.0, 3), session.describe(i)]
            for ms, i in sorted(((m, i) for i, m in enumerate(per_job)), reverse=True)[:15]
        ],
    }
    if traced:
        layer = {name: statistics.median_low([m[name] for _, m in traced]) for name in traced[0][1]}
        traced_wall = sum(job_medians([lat for lat, _ in traced]))
        layer["trace.overhead_frac"] = traced_wall / result["wall_s"] - 1.0
        result["layers"] = layer
        result["spans"] = tracer.span_count()  # of the last traced pass
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{workload}.tsv.gz"))
    return result


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    import numpy

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    lines += sum(1 for _ in fh)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_lines": lines,
    }


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable lines and return the metrics object."""
    w = result["workload"]
    print(
        f"# {w}: {result['jobs']} jobs per pass, {result['passes']} timed passes"
        f" ({result['traced_passes']} traced), {result['attempted']} jobs attempted, {result['failed']} failed;"
        f" measured pass time {statistics.median(result['pass_walls_s']):.3f} s (median)"
    )
    for failure in result["failures"]:
        print(f"#   FAIL {failure}")
    units = {n: u for n, u, _, _ in END_TO_END}
    e2e = {n: result[n] for n in units}
    for name, value in e2e.items():
        extra = ""
        if name == "job_tail_ms":
            extra = f"  (p{result['tail_percentile']:.1f} of {result['jobs']} per-job medians, {TAIL_BEYOND} beyond)"
        print(f"{w:<11} {name:<28} {value:>14.6g} {units[name]}{extra}")
    print(f"{w:<11} {'fail_frac':<28} {result['fail_frac']:>14.6g} frac")
    if not trace:
        return {n: {"value": v, "unit": units[n]} for n, v in e2e.items()}
    layer_units = {n: u for n, u, _ in PER_LAYER}
    for name in layer_units:
        print(f"{w:<11} {name:<28} {result['layers'][name]:>14.6g} {layer_units[name]}")
    print(f"# {result['spans']} spans written to {os.path.relpath(OUT_DIR, ROOT)}/spans-{w}.tsv.gz")
    return {n: {"value": result["layers"][n], "unit": u} for n, u in layer_units.items()}


def run_one(args) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = report(result, bool(args.trace))
    result["env"] = environment()
    result["seed"] = args.seed
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print("# env " + json.dumps(result["env"], sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    summary = {"seed": args.seed, "env": environment(), "workloads": {}}
    for w in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("# env")), flush=True)
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            summary["workloads"].setdefault(w, {})[f"trace{trace}"] = json.loads(lines[-1])
    out = os.path.join(OUT_DIR, "bench.json")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(f"# summary written to {out}")
    return 0


def record(args) -> int:
    """Run every job of every pool once and store exit codes and digests."""
    cli = import_cli()
    jobs_out = {}
    workdir = scratch_dir()
    try:
        for w in workloads.WORKLOADS:
            session = Session(cli, workloads.pool(w), workdir, {})
            for i, j in enumerate(session.jobs):
                code, _, out = call(cli, session.argvs[i])
                reason = checks.oracle(j["check"], j["out"], workloads.SYSTEMS[j["system"]], code, out)
                if reason:
                    print(f"oracle disagrees: {' '.join(session.argvs[i][:-1])}: {reason}")
                jobs_out[session.keys[i]] = [code, checks.digest(j["out"], code, out)]
            print(f"{w}: {len(session.jobs)} jobs recorded", flush=True)
    finally:
        remove_scratch(workdir)
    with open(EXPECTED, "w") as fh:
        json.dump({"env": environment(), "jobs": jobs_out}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record expected.json")
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    require_source()
    if args.record:
        return record(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
