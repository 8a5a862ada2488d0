"""Tests of the benchmark itself: seeded streams, output schema, and that
every non-timing field repeats exactly when one seed is run twice."""

import itertools
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

CHEAP_CHECKS = ("q-monk", "mn-example", "figures")
TIMING_UNITS = ("s", "ms", "1/s")


def _head(workload, seed, count=400):
    stream = wl.stream(workload, seed)
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("workload", ["products", "oracles"])
def test_streams_are_deterministic_per_seed(workload):
    assert _head(workload, 5) == _head(workload, 5)
    assert _head(workload, 5) != _head(workload, 6)


def test_product_stream_covers_every_route():
    routes = {q[0] for q in _head("products", 1)}
    assert routes == set(wl.PRODUCT_ROUTES)
    assert {q[0] for q in _head("oracles", 1)} == set(wl.ORACLE_ROUTES)


def test_product_stream_keeps_high_rank_share():
    def rank(query):
        route, _word, _k, params = query
        if route in ("hook_multiply_chains", "q_hook_multiply"):
            return sum(params) - 1
        if route in ("powersum_multiply", "q_powersum_multiply"):
            return params[0]
        return None

    ranks = [r for r in map(rank, _head("products", 1, 4000)) if r is not None]
    high = sum(r > wl.LOW_RANK for r in ranks) / len(ranks)
    assert abs(high - wl.HIGH_RANK_SHARE) < 0.02


def _result_keys_ok(result):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    json.dumps(result)


@pytest.fixture(autouse=True)
def few_repeats(monkeypatch):
    # one fresh interpreter and one call per CLI product keep these tests short
    monkeypatch.setattr(bench, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(wl, "CLI_REPEATS", 1)


def test_untraced_run_reports_every_end_to_end_metric(capsys):
    result = bench.run_untraced("products", 3, 0.05)
    _result_keys_ok(result)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    out = capsys.readouterr().out
    assert "machine: cores=" in out and "seed=3" in out


@pytest.fixture
def small_traces(monkeypatch, tmp_path):
    monkeypatch.setitem(wl.TRACE_QUERIES, "products", 120)
    monkeypatch.setattr(bench, "TRACE_DIR", str(tmp_path))
    return tmp_path


def test_traced_run_reports_every_per_layer_metric(small_traces):
    result = bench.run_traced("products", 2)
    _result_keys_ok(result)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    with open(small_traces / "products-seed2.json") as fh:
        trace = json.load(fh)
    assert trace["machine"]["seed"] == 2
    assert len(trace["spans"]) == 120
    assert trace["aggregates"]["qbruhat.q_up_covers"]["calls"] > 0


def test_traced_counts_repeat_exactly(small_traces):
    def counts():
        metrics = bench.run_traced("products", 4)["metrics"]
        return {
            name: m["value"]
            for name, m in metrics.items()
            if m["unit"] not in TIMING_UNITS and name != "trace_overhead_ratio"
        }

    first = counts()
    assert first["perm.Permutation.calls"] > 0
    assert first == counts()


@pytest.mark.parametrize("workload", ["products", "oracles", "verify"])
def test_non_timing_fields_repeat_exactly(workload):
    wl.setup(workload)
    if workload == "verify":
        queries = [(name,) for name in CHEAP_CHECKS]
    else:
        queries = list(itertools.islice(wl.stream(workload, 9), 150))

    def fields():
        wl.clear_caches(workload)
        out = wl.Outcome()
        results = wl.timed_batch(wl.prepare(workload, queries), out)
        wl.check_batch(workload, queries, results, out)
        return out.attempted, out.failed, out.digest.hexdigest(), out.cache

    first = fields()
    assert first[0] == len(queries)
    assert first[1] == 0
    assert first == fields()


def test_tracer_restores_every_binding():
    from flagmn import kbruhat, operators, perm, qbruhat, verification

    before = (
        perm.Permutation.__init__,
        qbruhat.QElement.__init__,
        operators.act,
        verification.act,
        kbruhat.up_covers,
        qbruhat.up_covers,
    )
    tr = tracer.Tracer()
    with tr:
        assert operators.act is verification.act is not before[2]
        assert kbruhat.up_covers is qbruhat.up_covers is not before[4]
        tr.run("probe", kbruhat.up_covers, perm.Permutation((2, 1, 3)), 1)
    after = (
        perm.Permutation.__init__,
        qbruhat.QElement.__init__,
        operators.act,
        verification.act,
        kbruhat.up_covers,
        qbruhat.up_covers,
    )
    assert after == before
    assert tr.count("kbruhat.up_covers") == 1
    assert tr.groups["probe"]["kbruhat.up_covers"][tracer.CALLS] == 1


def test_self_time_excludes_traced_children():
    tr = tracer.Tracer()
    with tr:
        from flagmn import qschubert
        from flagmn.perm import parse_permutation

        tr.run("q", qschubert.q_monk_multiply, parse_permutation("1432"), 2)
    agg = tr.agg["qbruhat.q_up_covers"]
    assert agg[tracer.SELF] <= agg[tracer.TOTAL]
    span = tr.spans[0]
    assert 0 <= span["self_s"] <= span["end"] - span["start"]


def test_cli_probes_match_recorded_outputs():
    times, bad = wl.cli_probes()
    assert bad == 0
    assert set(times) == set(wl.CLI_PROBES)
