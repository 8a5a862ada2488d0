"""flagmn benchmark: one workload per run, or all three with no --workload.

    python3 perfbench/run.py --workload products --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py            # products, oracles and verify in turn

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Untraced runs (``--trace 0``) give the end-to-end metrics;
traced runs (``--trace 1``) give the per-layer metrics and write the spans
to ``perfbench/traces/``.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(HERE, "traces")

# Set-up is timed this many times in fresh interpreters, after one untimed
# start that compiles the bytecode; the median is reported.
SETUP_SAMPLES = 7

WORKLOADS = ("products", "oracles", "verify")

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _percentile(values, p: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def machine(workload: str, seed: int) -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
    }


def measure_setup(workload: str) -> float:
    """Median seconds of import plus first-use set-up in a fresh interpreter."""
    from workloads import SETUP_CODE

    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "t0 = time.perf_counter()\n"
        f"{SETUP_CODE[workload]}\n"
        "print(time.perf_counter() - t0)\n"
    )
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
            cwd=ROOT,
        )
        if i:
            samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def _print_lines(info: dict, lines: dict) -> None:
    """Human-readable lines; metrics of layers left idle (0) are left out."""
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in lines.items():
        if value or name == "failed_ratio":
            print(f"{name} = {value} {unit}")


def _cache_lines(cache: dict) -> dict:
    out = {}
    for name, (hits, misses) in cache.items():
        out[f"{name}.hits"] = (hits, "count")
        out[f"{name}.misses"] = (misses, "count")
        out[f"{name}.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    return out


# -- untraced ------------------------------------------------------------------


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    import workloads as wl

    setup_s = measure_setup(workload)
    wl.setup(workload)
    outcome = wl.closed_loop(workload, seed, seconds)
    # read before the statistics below allocate their own lists
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = outcome.attempted, outcome.failed
    if workload == "verify":
        # one query is one whole pass of the gate
        per = len(wl.gate())
        query_s = [
            sum(outcome.latencies[i : i + per])
            for i in range(0, len(outcome.latencies), per)
        ]
    else:
        query_s = outcome.latencies
    lat_ms = [x * 1e3 for x in query_s]
    values = {
        "setup_s": setup_s,
        "queries_per_s": _ratio(len(query_s), outcome.busy_seconds()),
        "query_p50_ms": statistics.median(lat_ms),
        "query_p99_ms": _percentile(lat_ms, 99),
        "peak_rss_mb": peak_rss_mb,
    }
    lines = {n: (values[n], u) for n, u in END_TO_END_UNITS.items()}
    lines["query_count"] = (len(query_s), "count")
    if workload == "verify":
        lines["verify_s"] = (query_s[0], "s")
        for (name,), dt in zip(wl.gate(), outcome.latencies):
            lines[f"verify.{name}_s"] = (dt, "s")
    if workload == "products":
        probe_ms, bad = wl.cli_probes()
        attempted += len(probe_ms)
        failed += bad
        for name, ms in probe_ms.items():
            lines[f"cli.main.{name}_ms"] = (ms, "ms")
    lines["failed_ratio"] = (_ratio(failed, attempted), "ratio")
    lines.update(_cache_lines(outcome.cache))
    lines["output_digest"] = (outcome.digest.hexdigest(), "sha256")
    _print_lines(machine(workload, seed), lines)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        },
    }


# -- traced --------------------------------------------------------------------


def layer_values(tr, outcome, check_s, probe_ms, solver_s) -> dict:
    """Every per-layer metric, 0 where the workload leaves a layer idle."""
    import tracer as t
    import workloads as wl
    from flagmn import verification

    def agg(name: str, slot: int) -> float:
        return tr.count(name, slot)

    def p_ms(name: str, p: int) -> float:
        return _percentile([x * 1e3 for x in tr.latency.get(name, [])], p)

    out = {}
    for metric, traced in (
        ("perm.Permutation", "perm.Permutation.__init__"),
        ("qbruhat.QElement", "qbruhat.QElement.__init__"),
        ("operators.act", "operators.act"),
        ("kbruhat.leq_k", "kbruhat.leq_k"),
        ("kbruhat.bruhat_leq", "kbruhat.bruhat_leq"),
        ("kbruhat.up_covers", "kbruhat.up_covers"),
        ("qbruhat.q_up_covers", "qbruhat.q_up_covers"),
    ):
        out[f"{metric}.calls"] = (agg(traced, t.CALLS), "count")
        out[f"{metric}.self_s"] = (agg(traced, t.SELF), "s")
    out["operators.act.nonzero_ratio"] = (
        _ratio(agg("operators.act", t.ITEMS), agg("operators.act", t.CALLS)),
        "ratio",
    )
    for name in (
        "operators.rc_decompose",
        "operators.is_zero_word",
        "operators.equivalent_words",
        "kbruhat.find_witness",
        "kbruhat.interval",
        "qbruhat.q_interval",
        "schubert.x_times",
        "schubert.schubert_poly",
        "schubert.expand_in_schubert",
        "qschubert.quantize",
        "qschubert.q_x_times",
        "qschubert.quantum_lr",
    ):
        out[f"{name}.self_s"] = (agg(name, t.SELF), "s")
    out["qschubert.q_hook_multiply.p50_ms"] = (p_ms("qschubert.q_hook_multiply", 50), "ms")
    out["qschubert.q_hook_multiply.p99_ms"] = (p_ms("qschubert.q_hook_multiply", 99), "ms")
    for name in (
        "qschubert.q_powersum_multiply",
        "schubert.hook_multiply_chains",
        "schubert.powersum_multiply",
        "schubert.schur_multiply",
    ):
        out[f"{name}.p50_ms"] = (p_ms(name, 50), "ms")
    terms = sum(agg(f"qschubert.{r}", t.ITEMS) for r in wl.CLASSICAL_OF)
    out["qschubert.terms_per_cover"] = (
        _ratio(terms, agg("qbruhat.q_up_covers", t.ITEMS)),
        "ratio",
    )
    out.update(_cache_lines(outcome.cache))
    out["qschubert.standard_solver_s"] = (sum(solver_s.values(), 0.0), "s")
    for n in (4, 5):
        out[f"qschubert.standard_solver.n{n}_s"] = (solver_s.get(n, 0.0), "s")
    for name in verification.CHECKS:
        out[f"verification.{name}_s"] = (check_s.get(name, 0.0), "s")
    for name in wl.CLI_PROBES:
        out[f"cli.main.{name}_ms"] = (probe_ms.get(name, 0.0), "ms")
    return out


def run_traced(workload: str, seed: int) -> dict:
    import workloads as wl
    from tracer import Tracer

    probe_ms, bad_probes, solver_s = {}, 0, {}
    if workload == "products":
        probe_ms, bad_probes = wl.cli_probes()
    if workload == "oracles":
        solver_s = wl.standard_solver_cold()
    if workload == "verify":
        queries = wl.gate()
        reference = [
            i for i, q in enumerate(queries) if q[0] not in wl.UNTRACED_REFERENCE_SKIPS
        ]
    else:
        queries = list(
            itertools.islice(wl.stream(workload, seed), wl.TRACE_QUERIES[workload])
        )
        reference = list(range(len(queries)))

    # untraced reference pass, then the traced pass, each from cold caches
    wl.clear_caches(workload)
    plain = wl.Outcome()
    wl.timed_batch(wl.prepare(workload, [queries[i] for i in reference]), plain)
    calls = wl.prepare(workload, queries)
    wl.clear_caches(workload)
    tr = Tracer()
    outcome = wl.Outcome()
    with tr:
        results = wl.timed_batch(calls, outcome, tr)
    wl.check_batch(workload, queries, results, outcome)

    span_s = [s["end"] - s["start"] for s in tr.spans]
    traced_ref = sum(span_s[i] for i in reference)
    check_s = (
        {q[0]: dt for q, dt in zip(queries, span_s)} if workload == "verify" else {}
    )
    attempted = outcome.attempted + len(probe_ms)
    failed = outcome.failed + bad_probes
    lines = layer_values(tr, outcome, check_s, probe_ms, solver_s)
    lines["trace_overhead_ratio"] = (
        _ratio(traced_ref, plain.busy_seconds()) - 1,
        "ratio",
    )
    lines["failed_ratio"] = (_ratio(failed, attempted), "ratio")

    info = machine(workload, seed)
    _print_lines(info, lines)
    digest = outcome.digest.hexdigest()
    print(f"output_digest = {digest} sha256")
    metrics = {n: {"value": v, "unit": u} for n, (v, u) in lines.items()}
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{workload}-seed{seed}.json")
    tr.write(
        path,
        {
            "machine": info,
            "metrics": metrics,
            "output_digest": digest,
            "reference_queries": len(reference),
        },
    )
    print(f"trace written to {os.path.relpath(path, ROOT)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# -- entry point ------------------------------------------------------------------


def run_all(args) -> int:
    """The one command: every workload in its own interpreter, in turn."""
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        done = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            timeout=600,
        )
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "flagmn", "__init__.py")):
        return _fail(f"no flagmn sources under {SRC}")
    # The gate fans out over FLAGMN_THREADS processes when it is set.
    os.environ.pop("FLAGMN_THREADS", None)
    sys.path.insert(0, SRC)
    import flagmn

    if not os.path.abspath(flagmn.__file__).startswith(SRC + os.sep):
        return _fail(f"imported flagmn from {flagmn.__file__}, not {SRC}")
    if args.workload is None:
        return run_all(args)
    if args.trace:
        result = run_traced(args.workload, args.seed)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
