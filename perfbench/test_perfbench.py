"""Tests of the benchmark itself: job lists, tracing, checks and the spec file."""

import json
import os

import pytest

from perfbench import checks, run, tracing, workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_list_follows_the_seed(workload):
    first = json.dumps(workloads.job_list(workload, 7))
    assert json.dumps(workloads.job_list(workload, 7)) == first
    assert json.dumps(workloads.job_list(workload, 8)) != first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_pool_job_has_a_record(workload):
    with open(run.EXPECTED) as fh:
        recorded = json.load(fh)["jobs"]
    missing = [j for j in workloads.pool(workload) if workloads.job_key(j) not in recorded]
    assert not missing


def test_benchmark_json_matches_the_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == run.spec()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_of_a_toy_nested_call():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    def hot():
        clock.advance(0.5)

    def outer():
        clock.advance(1.0)
        leaf_w()
        clock.advance(3.0)
        leaf_w()
        hot_w()

    leaf_w = tracer.wrap("numsys", "leaf", leaf)
    hot_w = tracer.wrap("linalg", "hot", hot, keep=False)
    outer_w = tracer.wrap("cli", "outer", outer)
    outer_w()

    assert tracer.self_s["cli"] == pytest.approx(4.0)
    assert tracer.self_s["numsys"] == pytest.approx(4.0)
    assert tracer.self_s["linalg"] == pytest.approx(0.5)
    assert tracer.calls == {**dict.fromkeys(tracing.LAYERS, 0), "cli": 1, "numsys": 2, "linalg": 1}
    # outer's span opens first; both leaf spans name it as parent; the hot
    # call leaves no span of its own
    assert tracer.span_count() == 3
    assert list(tracer.span_parent) == [-1, 0, 0]
    assert tracer.span_end[0] - tracer.span_start[0] == pytest.approx(8.5)


def test_install_rebinds_imported_copies_and_uninstall_restores():
    run.import_cli()
    from radixtile import multinv, neighbours, numsys, radix

    originals = (radix.pair_automaton, numsys.discrete_expansion)
    with tracing.Tracer():
        assert neighbours.pair_automaton is radix.pair_automaton is not originals[0]
        assert multinv.discrete_expansion is numsys.discrete_expansion is not originals[1]
    assert (radix.pair_automaton, numsys.discrete_expansion) == originals
    assert neighbours.pair_automaton is originals[0]


def test_traced_digests_equal_untraced(tmp_path):
    cli = run.import_cli()
    with open(run.EXPECTED) as fh:
        expected = json.load(fh)["jobs"]
    cheap = {"eval", "equiv", "sep", "residues", "neighbours", "unique", "expand"}
    jobs = [j for w in ("translates", "decide") for j in workloads.job_list(w, 3)[:40] if j["argv"][0] in cheap]
    session = run.Session(cli, jobs, str(tmp_path), expected)
    _, _, plain, _ = session.run_pass()
    with tracing.Tracer() as tracer:
        _, _, traced, _ = session.run_pass(tracer)
    assert traced == plain
    assert session.failures == []
    assert tracer.span_count() > 0


def test_digest_ignores_floats_but_not_exact_fields():
    a = json.dumps({"exact": "1/3", "float": 0.3333333333333333, "ball_radius": 1.5}).encode()
    b = json.dumps({"exact": "1/3", "float": 0.3333333333333334, "ball_radius": 1.25}).encode()
    c = json.dumps({"exact": "2/3", "float": 0.3333333333333333, "ball_radius": 1.5}).encode()
    assert checks.digest("json", 0, a) == checks.digest("json", 0, b) != checks.digest("json", 0, c)
    err = json.dumps({"error": {"type": "NotACrs", "message": "one wording"}}).encode()
    err2 = json.dumps({"error": {"type": "NotACrs", "message": "another wording"}}).encode()
    assert checks.digest("json", 2, err) == checks.digest("json", 2, err2)


def test_oracles_flag_wrong_outputs():
    quad = workloads.SYSTEMS["quad_b-2_c3"]
    wrong = json.dumps({"number_system": True, "witness_cycles": []}).encode()
    assert checks.oracle({"kind": "kkg", "number_system": False}, "json", quad, 0, wrong)
    table = b"k,measured,bound,ratio_to_prev\n1,0.5,0.4,\n"
    assert checks.oracle({"kind": "converge_bound"}, "csv", quad, 0, table)
    digits = json.dumps({"digits": [[1, 0], [2, 0]]}).encode()
    # x^2 - 2x + 3: 1 + 2*A e1 = (1, 0) + 2*(0, 1) = (1, 2)
    assert checks.oracle({"kind": "expand_roundtrip", "vector": [1, 2]}, "json", quad, 0, digits) is None
    assert checks.oracle({"kind": "exit", "code": 3}, "json", quad, 2, b"")
