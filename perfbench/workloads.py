"""The three benchmark workloads and the passes that time and check them.

Every workload is a closed loop with one client: the next query is sent when
the previous one has returned.  A query is a plain tuple made from the seed;
``_prepare`` turns it into a call of a public flagmn function, looked up on
its module at call time so that the tracer's rebinding takes effect.  Outputs
are checked after each timed batch, outside the timed region.

* ``products``: classical and quantum Monk, hook and power-sum products in
  S_6..S_8 plus classical Schur products in S_6, through the rule routes.
* ``oracles``: hook products in S_4/S_5 through the independent routes
  (quantization, polynomial ring, and the descent-exchange recursion, which
  only ``flagmn product --basis ll-reduce`` offers, so it runs the CLI).
* ``verify``: passes of the twelve release-gate checks, serially; the
  program fixes their inputs, so the seed does not apply.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import random
import statistics
import sys
import time
from array import array

from flagmn import cli, operators, qschubert, schubert, verification
from flagmn.perm import Permutation, fits_rectangle, hook_partition, partitions
from flagmn.schubert import Expansion

HERE = os.path.dirname(os.path.abspath(__file__))

# Hook and power-sum products are mostly of rank <= LOW_RANK.  A fixed share
# of them, HIGH_RANK_SHARE, has rank LOW_RANK + 1 .. n - 1: the forward BFS
# there costs up to 0.1 s per query in S_8[q], and those queries set p99.
LOW_RANK = 4
HIGH_RANK_SHARE = 0.05
PRODUCT_ROUTES = (
    "monk_multiply",
    "q_monk_multiply",
    "hook_multiply_chains",
    "q_hook_multiply",
    "powersum_multiply",
    "q_powersum_multiply",
    "schur_multiply",
)
ORACLE_ROUTES = ("fgp_product", "poly_product", "ll_reduce")
CLASSICAL_OF = {
    "q_monk_multiply": "monk_multiply",
    "q_hook_multiply": "hook_multiply_chains",
    "q_powersum_multiply": "powersum_multiply",
}

# Queries per timed batch (the run stops between batches; a verify batch is
# one pass of the gate), and the fixed stream prefix a traced run replays so
# its counts repeat exactly.
BATCH = 200
TRACE_QUERIES = {"products": 4000, "oracles": 3000}

# The reference pass that prices the tracer skips forest-decomposition: it
# alone is 70% of the gate and would nearly double a traced run.
UNTRACED_REFERENCE_SKIPS = ("forest-decomposition",)

# lru caches read from outside through cache_info(): metric name -> function
CACHES = {
    "schubert.schubert_cache": (schubert, "_schubert_cached"),
    "qschubert.quantum_elementary_cache": (qschubert, "quantum_elementary"),
    "qschubert.quantum_schur_cache": (qschubert, "quantum_schur"),
    "qschubert.standard_solver_cache": (qschubert, "_standard_solver"),
    "qschubert.elementary_poly_cache": (qschubert, "_elementary_poly"),
    "qschubert.quantum_basis_element_cache": (qschubert, "_quantum_basis_element"),
    "operators.flat_is_zero": (operators, "_flat_is_zero"),
}

# The fixed CLI products of the roadmap, run in-process.
CLI_PROBES = {
    "powersum-s8": "product --quantum --u 68235741 --k 5 --powersum 4",
    "hook-s8": "product --quantum --u 68235741 --k 4 --hook 4,4",
    "lambda-s6": "product --u 315264 --k 3 --lambda 2,1",
}
CLI_REPEATS = 15

# What a user pays before the first query, timed in a fresh interpreter.
SETUP_CODE = {
    "products": "import flagmn",
    "oracles": (
        "import flagmn\n"
        "from flagmn.perm import identity\n"
        "for n in (4, 5):\n"
        "    flagmn.fgp_product(identity(n), (1,), 1)\n"
    ),
    "verify": "import flagmn",
}


def setup(workload: str) -> None:
    """The first-use set-up of ``SETUP_CODE``, in this process."""
    exec(SETUP_CODE[workload], {})


def _cache(name: str):
    mod, attr = CACHES[name]
    return getattr(mod, attr)


def clear_caches(workload: str) -> None:
    """Empty every lru cache but the FGP basis change that oracles set up."""
    for name in CACHES:
        if workload != "oracles" or name != "qschubert.standard_solver_cache":
            _cache(name).cache_clear()


def cache_snapshot() -> dict[str, tuple[int, int]]:
    out = {}
    for name in CACHES:
        info = _cache(name).cache_info()
        out[name] = (info.hits, info.misses)
    return out


# -- query streams ------------------------------------------------------------


def _random_word(rng: random.Random, n: int) -> tuple[int, ...]:
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return tuple(word)


def _hooks(n: int, k: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1, k + 1) for b in range(1, n - k + 1)]


def product_stream(seed: int):
    """Endless seeded stream of (route, word, k, params) product queries."""
    rng = random.Random(f"products-{seed}")
    while True:
        route = rng.choice(PRODUCT_ROUTES)
        n = 6 if route == "schur_multiply" else rng.choice((6, 7, 8))
        word = _random_word(rng, n)
        k = rng.randint(1, n - 1)
        high = rng.random() < HIGH_RANK_SHARE
        if route in ("monk_multiply", "q_monk_multiply"):
            params = ()
        elif route in ("hook_multiply_chains", "q_hook_multiply"):
            params = rng.choice(
                [h for h in _hooks(n, k) if (sum(h) - 1 > LOW_RANK) == high]
            )
        elif route in ("powersum_multiply", "q_powersum_multiply"):
            params = (
                rng.randint(LOW_RANK + 1, n - 1) if high else rng.randint(1, LOW_RANK),
            )
        else:
            shapes = [
                lam
                for size in range(1, 4)
                for lam in partitions(size)
                if fits_rectangle(lam, k, n - k)
            ]
            params = (rng.choice(shapes),)
        yield route, word, k, params


def oracle_stream(seed: int):
    """Endless seeded stream of (route, word, k, (a, b)) hook queries."""
    rng = random.Random(f"oracles-{seed}")
    while True:
        route = rng.choice(ORACLE_ROUTES)
        n = rng.choice((4, 5))
        word = _random_word(rng, n)
        k = rng.randint(1, n - 1)
        yield route, word, k, rng.choice(_hooks(n, k))


def gate() -> list[tuple[str]]:
    """One pass of the release gate: its checks in registry order."""
    return [(name,) for name in verification.CHECKS]


def stream(workload: str, seed: int):
    if workload == "products":
        return product_stream(seed)
    if workload == "oracles":
        return oracle_stream(seed)
    return itertools.cycle(gate())


# -- calls ---------------------------------------------------------------------


def cli_stdout(argv: list[str]) -> str:
    """What ``flagmn <argv>`` prints, run in-process; raises on a bad exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"flagmn {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _ll_reduce_argv(word, k: int, a: int, b: int) -> list[str]:
    # the route exists only as a CLI basis
    return [
        "product", "--quantum", "--u", "".join(map(str, word)), "--k", str(k),
        "--hook", f"{a},{b}", "--basis", "ll-reduce",
    ]


def _prepare(workload: str, query):
    """(group, owner, attribute, args) for one query.

    The function is fetched from its owner only when the call is made, so a
    tracer installed after preparation still sees the call.
    """
    if workload == "verify":
        name = query[0]
        return name, verification, verification.CHECKS[name].__name__, ()
    route, word, k, params = query
    if route == "ll_reduce":
        argv = _ll_reduce_argv(word, k, *params)
        return route, sys.modules[__name__], "cli_stdout", (argv,)
    u = Permutation(word)
    if route == "fgp_product" or route == "poly_product":
        mod = qschubert if route == "fgp_product" else schubert
        return route, mod, route, (u, hook_partition(*params), k)
    mod = qschubert if route.startswith("q_") else schubert
    return route, mod, route, (u, *params, k)


def _classical_hooks_sum(u: Permutation, r: int, k: int) -> Expansion:
    # p_r = sum_a (-1)^(a-1) s_(r-a+1, 1^(a-1)); hooks outside the k x (n-k)
    # rectangle vanish in H*Fl_n.
    n = u.n
    out = Expansion(n)
    for a, b in _hooks(n, k):
        if a + b - 1 == r:
            term = schubert.hook_multiply_minimal(u, a, b, k)
            out = out + term.scale((-1) ** (a - 1))
    return out


def _trimmed(poly: dict, n: int) -> dict:
    return {w.extend(n): c for w, c in poly.items() if w.n <= n}


def check(workload: str, query, result) -> bool:
    """Whether one query's output is right, by an independent computation."""
    if workload == "verify":
        return result.ok
    route, word, k, params = query
    u = Permutation(word)
    if workload == "oracles":
        a, b = params
        want = qschubert.q_hook_multiply(u, a, b, k)
        if route == "poly_product":
            return _trimmed(result, u.n) == want.classical_terms()
        if route == "ll_reduce":
            return result == want.text() + "\n"
        return result == want
    if route == "monk_multiply":
        return result == schubert.hook_multiply_minimal(u, 1, 1, k)
    if route == "hook_multiply_chains":
        return result == schubert.hook_multiply_minimal(u, *params, k)
    if route == "powersum_multiply":
        return result == _classical_hooks_sum(u, params[0], k)
    if route == "schur_multiply":
        poly = schubert.poly_product(u, params[0], k)
        return result.is_classical() and result.classical_terms() == _trimmed(
            poly, u.n
        )
    classical_fn = getattr(schubert, CLASSICAL_OF[route])
    return result.classical_terms() == classical_fn(u, *params, k).classical_terms()


def _output_text(result) -> str:
    if isinstance(result, verification.CheckResult):
        return f"{result.name} {result.ok} {result.detail}"
    if isinstance(result, dict):
        return " ".join(f"{c:+d} {w}" for w, c in sorted(result.items()))
    if isinstance(result, str):
        return result
    return result.text()


# -- passes ------------------------------------------------------------------------


class Outcome:
    """Per-query latencies, failure count, output digest and cache deltas."""

    def __init__(self) -> None:
        # compact, so the benchmark's own memory barely grows with the
        # number of queries a faster program completes
        self.latencies = array("d")
        self.failed = 0
        self.digest = hashlib.sha256()
        self.cache = {name: [0, 0] for name in CACHES}

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def busy_seconds(self) -> float:
        return sum(self.latencies)


def prepare(workload: str, queries) -> list:
    return [_prepare(workload, q) for q in queries]


def timed_batch(calls, outcome: Outcome, tracer=None) -> list:
    """Send each prepared call after the previous returned; return the results.

    A call that raises counts as failed and yields a None result.  With a
    tracer each call is one top-level span.
    """
    before = cache_snapshot()
    clock = time.perf_counter
    results = []
    for group, owner, attr, args in calls:
        fn = getattr(owner, attr)
        t0 = clock()
        try:
            out = tracer.run(group, fn, *args) if tracer else fn(*args)
        except Exception:
            out = None
        outcome.latencies.append(clock() - t0)
        results.append(out)
    after = cache_snapshot()
    for name, (hits, misses) in after.items():
        outcome.cache[name][0] += hits - before[name][0]
        outcome.cache[name][1] += misses - before[name][1]
    return results


def check_batch(workload: str, queries, results, outcome: Outcome) -> None:
    for query, result in zip(queries, results):
        ok = result is not None
        if ok:
            try:
                ok = check(workload, query, result)
            except Exception:
                ok = False
            text = _output_text(result)
        else:
            text = "raised"
        outcome.failed += 0 if ok else 1
        outcome.digest.update(f"{query!r} {text}\n".encode())


def closed_loop(workload: str, seed: int, seconds: float) -> Outcome:
    """Run batches from cold query caches until ``seconds`` of query time.

    Call ``setup`` first.  Verify runs whole passes of the gate.
    """
    clear_caches(workload)
    outcome = Outcome()
    queries = stream(workload, seed)
    size = len(gate()) if workload == "verify" else BATCH
    while True:
        batch = list(itertools.islice(queries, size))
        results = timed_batch(prepare(workload, batch), outcome)
        check_batch(workload, batch, results, outcome)
        if outcome.busy_seconds() >= seconds:
            return outcome


# -- fixed probes -------------------------------------------------------------------


def cli_expected() -> dict[str, str]:
    """Byte-exact CLI stdout: the bundled table, or the files in expected/."""
    body = verification.fixture_text("mn-example").split("\n", 1)[1]
    out = {"powersum-s8": body}
    for name in ("hook-s8", "lambda-s6"):
        with open(os.path.join(HERE, "expected", f"{name}.txt")) as fh:
            out[name] = fh.read()
    return out


def cli_probes() -> tuple[dict[str, float], int]:
    """Median wall ms of each fixed CLI product over ``CLI_REPEATS`` calls,
    and how many of the products print other than expected."""
    expected = cli_expected()
    times = {}
    bad = 0
    for name, argv in CLI_PROBES.items():
        samples = []
        for _ in range(CLI_REPEATS):
            t0 = time.perf_counter()
            try:
                text = cli_stdout(argv.split())
            except Exception:
                text = None
            samples.append(time.perf_counter() - t0)
        bad += text != expected[name]
        times[name] = statistics.median(samples) * 1e3
    return times, bad


def standard_solver_cold() -> dict[int, float]:
    """Seconds for the cold FGP change of basis at n = 4 and n = 5."""
    solver = qschubert._standard_solver
    solver.cache_clear()
    out = {}
    for n in (4, 5):
        t0 = time.perf_counter()
        solver(n)
        out[n] = time.perf_counter() - t0
    return out
