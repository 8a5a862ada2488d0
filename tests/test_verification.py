"""The gate's registry and the failure reports of its sweep workers.

Each worker test breaks one route on one case and calls the worker
directly, so it stays fast while showing that a FAIL line would name the
case and the routes that disagreed.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import flagmn
from flagmn import operators, qschubert, schubert, verification
from flagmn.kbruhat import LabeledPoset
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
    cases = [((2, 1, 3), k, a, b, False) for k, a, b in verification._hooks(3)]
    assert verification._sweep(verification._oracle_worker, cases) == (4, None)
    real = schubert.hook_multiply_minimal

    def broken(u, a, b, k):
        return Expansion(u.n) if (k, a, b) == (2, 1, 1) else real(u, a, b, k)

    monkeypatch.setattr(schubert, "hook_multiply_minimal", broken)
    checked, failure = verification._sweep(verification._oracle_worker, cases)
    assert checked == 4
    assert failure == "u=213 k=2 hook=1,1: chains != minimal at 231"


def test_quantum_oracle_worker_names_the_failing_case(monkeypatch):
    case = ((2, 1, 3, 4), 1, 1, 1, True)
    assert verification._oracle_worker(case) == (1, None)
    real = qschubert.ll_reduce_product
    monkeypatch.setattr(
        qschubert, "ll_reduce_product", lambda u, lam, k: real(u, lam, k) * 2
    )
    at = "u=2134 k=1 hook=1,1: hook-theorem"
    assert verification._oracle_worker(case) == (1, f"{at} != ll-reduce at 3124")
    # an oracle that drops the quantum term is named at that term, not the first
    real_fgp = qschubert.fgp_product

    def classical_fgp(u, lam, k):
        terms = real_fgp(u, lam, k).terms
        return Expansion(u.n, {x: c for x, c in terms.items() if not any(x.alpha)})

    monkeypatch.setattr(qschubert, "fgp_product", classical_fgp)
    assert verification._oracle_worker(case) == (
        1,
        f"{at} != fgp-oracle at q^(1,0,0) 1234",
    )


def _without_last_term(exp: Expansion) -> Expansion:
    return Expansion(exp.n, exp.items()[:-1])


def test_quantum_oracles_catch_a_wrong_hook_rule_at_n_8(monkeypatch):
    # the S_4 and S_5 cases cannot see a rule that goes wrong only from S_8 on
    real = qschubert.q_hook_multiply

    def broken(u, a, b, k):
        exp = real(u, a, b, k)
        return _without_last_term(exp) if u.n >= 8 else exp

    monkeypatch.setattr(qschubert, "q_hook_multiply", broken)
    result = verification.check_quantum_oracles()
    assert not result.ok
    u = Permutation((6, 8, 2, 3, 5, 7, 4, 1))
    dropped = real(u, 4, 4, 4).items()[-1][0]
    assert result.detail.endswith(
        "; first failure: u=68235741 k=4 hook=4,4:"
        f" hook-theorem != fgp-oracle at {dropped}"
    )


def test_independence_check_fails_on_one_wrong_s5_ll_reduce_coefficient(monkeypatch):
    u, lam, k = Permutation((2, 4, 1, 5, 3)), (2, 1), 2
    real = qschubert.ll_reduce_product
    x, c = real(u, lam, k).items()[0]
    zeta = str(x.w * u.inverse())

    def broken(v, shape, j):
        exp = real(v, shape, j)
        return exp + Expansion(v.n, {x: 1}) if (v, shape, j) == (u, lam, k) else exp

    monkeypatch.setattr(qschubert, "ll_reduce_product", broken)
    result = verification.check_quantum_independence()
    assert not result.ok
    # u = 12435 is the first S_5 case in this class, and the broken u the first
    # to give it another value
    assert result.detail.endswith(
        f"; first failure: (zeta, lam) = ({zeta!r}, {lam}): numerical parts differ:"
        f" {c} from ll-reduce at u=12435, {c + 1} from ll-reduce at u={u}"
    )


def test_relation_check_names_the_clause_and_the_word(monkeypatch):
    live = OperatorWord(3, ((2, 3), (1, 2)))
    real = operators.is_zero_word
    monkeypatch.setattr(operators, "is_zero_word", lambda w: w == live or real(w))
    result = verification.check_degree_two_relations()
    assert not result.ok
    assert result.detail.endswith(
        "; first failure: relation clause live_chain_triples: v(2,3) v(1,2)"
    )


def test_relation_check_counts_the_words_of_every_clause(monkeypatch):
    real = operators._clause

    def merged(l1, l2):
        name = real(l1, l2)
        return "crossing_pairs" if name == "mixed_nested_pairs" else name

    monkeypatch.setattr(operators, "_clause", merged)
    result = verification.check_degree_two_relations()
    assert not result.ok
    assert result.detail.endswith(
        "; first failure: relation clause crossing_pairs: 12 words, expected 8"
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
    assert len(cases) == len(set(cases)) == 240 + 189 + 1
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


@pytest.mark.parametrize(
    "name, transport, identity",
    [
        ("shift", "o_shift_element", lambda u, z: z),
        ("w0", "w0_element", lambda z: z),
        ("complementation", "rho_element", lambda alpha, z: z),
    ],
    ids=["shift", "w0", "complementation"],
)
def test_identity_transport_fails(monkeypatch, name, transport, identity):
    # each target's bottom is stated apart from its map, so a map that moves
    # nothing cannot pass
    case = verification._random_interval_cases(1, verification._SEED_INTERVALS)[0]
    u_word, k, alpha, w_word = case
    top = QElement(alpha, Permutation(w_word))
    monkeypatch.setattr(verification, transport, identity)
    assert verification._interval_worker(case) == (
        1,
        f"u={Permutation(u_word)} k={k} top={top}: {name} transport fails",
    )


@pytest.mark.parametrize(
    "broken",
    [
        # the same elements one rank higher: the grading is not carried over
        lambda p: LabeledPoset(
            p.bottom,
            p.top,
            p.elements,
            p.edges,
            {z: r + 1 for z, r in p.rank_of.items()},
        ),
        # the same graded elements with no covers: an edge is not carried over
        lambda p: LabeledPoset(p.bottom, p.top, p.elements, (), p.rank_of),
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
