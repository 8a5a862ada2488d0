"""The gate's registry and the failure reports of its sweep workers.

Each worker test breaks one route on one case and calls the worker
directly, so it stays fast while showing that a FAIL line would name the
case and the routes that disagreed.
"""

import dataclasses
import re
import subprocess
import sys
from pathlib import Path

import pytest

import flagmn
from flagmn import verification
from flagmn.operators import OperatorWord
from flagmn.perm import Permutation
from flagmn.qbruhat import QElement
from flagmn.schubert import Expansion


def test_registry_names_resolve_to_the_registered_checks():
    # perfbench fetches each check as getattr(verification, fn.__name__)
    for fn in verification.CHECKS.values():
        assert getattr(verification, fn.__name__) is fn


def test_sweep_keeps_the_first_failure_in_input_order():
    def worker(case):
        return 1, f"case {case}" if case % 2 else None

    assert verification._sweep(worker, range(6)) == (6, "case 1")
    assert verification._sweep(worker, [0, 2]) == (2, None)


def test_sweep_runs_each_distinct_case_once():
    calls = []

    def worker(case):
        calls.append(case)
        return case, f"case {case}" if case < 3 else None

    # 1 fails at its first and its last draw, 2 fails once in between
    assert verification._sweep(worker, [3, 1, 3, 2, 1]) == (10, "case 1")
    assert calls == [3, 1, 2]


def test_import_starts_no_process_machinery():
    # the gate runs in one process, so importing the package needs no pool
    src = str(Path(flagmn.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import flagmn; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_classical_oracle_worker_names_the_failing_case(monkeypatch):
    assert verification._classical_oracle_worker((2, 1, 3)) == (4, None)
    real = verification.hook_multiply_minimal

    def broken(u, a, b, k):
        return Expansion(u.n) if (k, a, b) == (2, 1, 1) else real(u, a, b, k)

    monkeypatch.setattr(verification, "hook_multiply_minimal", broken)
    checked, failure = verification._classical_oracle_worker((2, 1, 3))
    assert checked == 4
    assert failure == "u=213 k=2 hook=1,1: chains != minimal"


def test_quantum_oracle_worker_names_the_failing_case(monkeypatch):
    case = ((2, 1, 3, 4), 1, 1, 1)
    assert verification._quantum_oracle_worker(case) == (1, None)
    real = verification.ll_reduce_product
    monkeypatch.setattr(
        verification, "ll_reduce_product", lambda u, lam, k: real(u, lam, k) * 2
    )
    _, failure = verification._quantum_oracle_worker(case)
    assert failure.startswith("u=2134 k=1 hook=1,1: hook-theorem != ll-reduce at ")
    monkeypatch.setattr(verification, "fgp_product", lambda u, lam, k: Expansion(u.n))
    assert verification._quantum_oracle_worker(case) == (
        1,
        "u=2134 k=1 hook=1,1: hook-theorem != fgp-oracle",
    )


def test_peakless_worker_names_the_failing_case(monkeypatch):
    assert verification._peakless_worker((1, 2, 4, 3)) == (1, None)
    real = verification.peakless_count
    monkeypatch.setattr(verification, "peakless_count", lambda z, a: real(z, a) + 1)
    checked, failure = verification._peakless_worker((1, 2, 4, 3))
    assert checked == 1
    assert failure.startswith("zeta=1243 u=")
    assert "chain census" in failure and "!= C(s-1, het-a)" in failure


def test_path_worker_names_the_failing_word(monkeypatch):
    letters = ((1, 2), (2, 3))
    assert verification._path_worker(letters) == (1, None)
    monkeypatch.setattr(verification, "is_column", lambda word: True)
    word = OperatorWord.from_application(5, letters)
    assert verification._path_worker(letters) == (1, f"{word}: both row and column")
    # the sweep draws only paths; a star on 1 is caught before any test runs
    assert verification._path_worker(((1, 2), (1, 3), (1, 4))) == (
        0,
        "v(1,4) v(1,3) v(1,2): not a path word",
    )


def test_gate_case_lists_count_distinct_cases():
    # quantum-paths and quantum-oracles print len(cases), so no case repeats
    paths = list(verification._structural_paths(5))
    assert len(paths) == len(set(paths)) == 3140
    cases, exhaustive = verification._quantum_oracle_cases()
    assert len(cases) == len(set(cases)) == 240 + 189
    assert exhaustive == 240


def test_forest_worker_names_the_failing_word(monkeypatch):
    case = (5, ((1, 2),))
    assert verification._forest_worker(case) == (1, None)
    monkeypatch.setattr(verification, "is_column", lambda word: False)
    checked, failure = verification._forest_worker(case)
    assert checked == 1
    assert failure.startswith("v(1,2) in S_5[q] on u=")
    assert failure.endswith(" is not a column")


def test_forest_check_fails_below_its_target(monkeypatch):
    monkeypatch.setattr(verification, "_FOREST_DRAWS", 3)
    result = verification.check_forest_decomposition()
    assert not result.ok
    tail = r"; first failure: \d nonzero words, fewer than 500$"
    assert re.search(tail, result.detail)


def test_interval_worker_names_the_failing_transport(monkeypatch):
    case = verification._random_interval_cases(1, verification._SEED_INTERVALS)[0]
    assert verification._interval_worker(case) == (1, None)
    u_word, k, alpha, w_word = case
    top = QElement(alpha, Permutation(w_word))
    failed = (1, f"u={Permutation(u_word)} k={k} top={top}: w0 transport fails")
    image = verification.w0_element(top)
    # every element lands on the image of the top: not an isomorphism
    monkeypatch.setattr(verification, "w0_element", lambda z: image)
    assert verification._interval_worker(case) == failed
    # no map at all: the target interval does not exist
    monkeypatch.setattr(verification, "w0_element", lambda z: z)
    assert verification._interval_worker(case) == failed


@pytest.mark.parametrize(
    "broken",
    [
        # the same elements one rank higher: the grading is not carried over
        lambda p: dataclasses.replace(
            p, rank_of={z: r + 1 for z, r in p.rank_of.items()}
        ),
        # the same graded elements with no covers: an edge is not carried over
        lambda p: dataclasses.replace(p, edges=()),
    ],
    ids=["ranks", "edges"],
)
def test_interval_worker_checks_ranks_and_edges(monkeypatch, broken):
    case = verification._random_interval_cases(1, verification._SEED_INTERVALS)[0]
    u_word, k, alpha, w_word = case
    u, top = Permutation(u_word), QElement(alpha, Permutation(w_word))
    real = verification.q_interval

    def target_broken(bottom, new_top, new_k):
        poset = real(bottom, new_top, new_k)
        return poset if (bottom, new_top, new_k) == (u, top, k) else broken(poset)

    monkeypatch.setattr(verification, "q_interval", target_broken)
    assert verification._interval_worker(case) == (
        1,
        f"u={u} k={k} top={top}: shift transport fails",
    )


def test_unknown_fixture_and_example_names_are_refused():
    with pytest.raises(ValueError, match="^unknown fixture 'nope'; choose from "):
        verification.fixture_text("nope")
    with pytest.raises(ValueError, match="^unknown example 'nope'; choose from "):
        verification.reproduce_text("nope")
