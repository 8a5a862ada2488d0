"""Acceptance criteria, one pass/fail line each (run with -s to watch).

The whole gate runs once, serially in one process, through
flagmn.verification.run_checks; each criterion reads its checks' results
from that run and is timed against the stated budget.  The gate's stdout is
pinned by its sha256.
"""

import hashlib

import pytest

from flagmn.verification import CHECKS, GROUPS, run_checks

# sha256 of `flagmn verify all` stdout
VERIFY_ALL_SHA256 = "1c31d7eed84d563790002bd0d461ac66fd71d3d8e7a0f11a2fde6b74128d8c4f"


@pytest.fixture(scope="module")
def gate():
    return {r.name: r for r in run_checks()}


def _report(label, results, budget):
    ok = all(r.ok for r in results)
    total = sum(r.seconds for r in results)
    status = "PASS" if ok and total <= budget else "FAIL"
    print(f"{status} {label} [{total:.2f}s of {budget:.0f}s allowed]")
    for r in results:
        print(f"    {r.name}: {r.detail}")
    assert ok, f"{label}: " + "; ".join(r.detail for r in results if not r.ok)
    assert total <= budget, f"{label} took {total:.2f}s, budget {budget:.0f}s"


def test_criterion_1_quantum_monk_product(gate):
    _report("quantum Monk product, both routes", [gate["q-monk"]], 1.0)


def test_criterion_2_powersum_example(gate):
    _report("17-term power sum product in S_8[q]", [gate["mn-example"]], 60.0)


def test_criterion_3_minimal_coefficients(gate):
    _report("descent-exchange path and degree-4 table", [gate["q-minimal"]], 1.0)


def test_criterion_4_classical_oracle_equivalence(gate):
    _report("classical hook routes across S_5", [gate["classical-oracles"]], 120.0)


def test_criterion_5_quantum_oracle_equivalence(gate):
    _report("quantum hook routes, S_4 + random S_5", [gate["quantum-oracles"]], 600.0)


def test_criterion_6_property_suites(gate):
    results = [gate[name] for name in GROUPS["properties"]]
    _report("structural property suites", results, 900.0)


def test_criterion_7_figure_regressions(gate):
    _report("bundled interval drawings", [gate["figures"]], 60.0)


def test_gate_stdout_is_pinned(gate):
    out = "".join(
        f"{'ok' if r.ok else 'FAIL'} {r.name}: {r.detail}\n" for r in gate.values()
    )
    out += f"all {len(gate)} checks passed\n"
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256


def test_every_check_is_reachable():
    assert set(GROUPS["all"]) == set(CHECKS)
    assert set(GROUPS["properties"]) <= set(CHECKS)
