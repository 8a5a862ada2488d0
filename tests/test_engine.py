"""The tuple product engine against object-level references.

The engine in ``schubert`` runs on one-line (alpha, word) tuples, walks only
minimal prefixes, and shares x-steps between monomials.  Each test here
rebuilds one of those shortcuts the long way, through the public, validating
constructors and cover functions, and asks for the same answer.
"""

import hashlib
import itertools
import random

import pytest

from flagmn import qschubert, schubert
from flagmn.kbruhat import up_covers
from flagmn.perm import Permutation, all_permutations, het, partitions
from flagmn.qbruhat import QElement, q_up_covers
from flagmn.qschubert import fgp_product, q_x_times, quantum_elementary, quantum_schur
from flagmn.schubert import (
    Expansion,
    _hook_coefficient,
    _minimal_rule,
    _padded_sum,
    _powersum_coefficient,
    schubert_poly,
    schur_multiply,
    schur_poly,
    x_times,
)
from lemma_helpers import brute_q_covers, brute_quantum_covers

S4 = list(all_permutations(4))
DEGREE_AT_MOST_ONE = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]  # on S_4


# -- trusted constructors ----------------------------------------------------


@pytest.mark.parametrize(
    "word", [(1, 1, 2), (0, 1, 2), (1, 3), (2,), (1, 2, 4)]
)
def test_public_permutation_constructor_still_rejects(word):
    with pytest.raises(ValueError):
        Permutation(word)


@pytest.mark.parametrize("alpha", [(0,), (0, 0, 0), (0, -1)])
def test_public_qelement_constructor_still_rejects(alpha):
    with pytest.raises(ValueError):
        QElement(alpha, Permutation((2, 3, 1)))


def test_trusted_covers_equal_validated_rebuilds():
    # every u in S_4, every k and every q-degree <= 1
    for u, k, alpha in itertools.product(S4, (1, 2, 3), DEGREE_AT_MOST_ONE):
        x = QElement(alpha, u)
        got = q_up_covers(x, k)
        want = brute_q_covers(x, k)
        assert got == want, (x, k)
        for (_, y), (_, z) in zip(got, want):
            assert hash(y) == hash(z) and str(y) == str(z)
            assert (y.rank, y.w.length, y.w.inverse()) == (z.rank, z.w.length, z.w.inverse())
        assert up_covers(u, k) == [
            (lab, Permutation(w.word)) for lab, w in up_covers(u, k)
        ]


# -- the pruned minimal walk --------------------------------------------------


def _reachable(start, k, r, covers):
    frontier = {start}
    for _ in range(r):
        frontier = {y for x in frontier for _lab, y in covers(x, k)}
    return frontier


def _reference_minimal_rule(u, k, r, quantum, coeff):
    # every element r cover-steps up, then the #supp - #cycles = r filter
    zero = (0,) * (u.n - 1)
    start = QElement(zero, u) if quantum else u
    covers = brute_q_covers if quantum else up_covers
    terms = []
    for x in _reachable(start, k, r, covers):
        w = x.w if quantum else x
        zeta = w * u.inverse()
        cycles = zeta.num_cycles()
        if len(zeta.support()) - cycles != r:
            continue
        c = coeff(het(zeta), cycles)
        if c:
            terms.append((x if quantum else QElement(zero, w), c))
    return Expansion(u.n, terms)


def _tag(rising, cycles):
    # a coefficient that records both statistics, so a wrong count shows
    return 1 + rising + 10 * cycles


def _coefficients(r):
    return [_tag, _powersum_coefficient] + [
        _hook_coefficient(a) for a in range(1, r + 1)
    ]


def test_minimal_walk_matches_unpruned_walk_on_s4():
    for u, k, r, quantum in itertools.product(S4, (1, 2, 3), (0, 1, 2, 3), (False, True)):
        for coeff in _coefficients(r):
            want = _reference_minimal_rule(u, k, r, quantum, coeff)
            assert _minimal_rule(u, k, r, quantum, coeff) == want, (u, k, r, quantum)


@pytest.mark.parametrize("n", [6, 7])
def test_minimal_walk_matches_unpruned_walk_seeded(n):
    rng = random.Random(f"minimal-walk-{n}")
    for _ in range(100):
        u = Permutation(rng.sample(range(1, n + 1), n))
        k = rng.randint(1, n - 1)
        r = rng.randint(1, n - 1)
        quantum = rng.random() < 0.5
        for coeff in _coefficients(r):
            want = _reference_minimal_rule(u, k, r, quantum, coeff)
            assert _minimal_rule(u, k, r, quantum, coeff) == want, (u, k, r, quantum)


def test_every_cover_moves_the_cycle_rank_by_one():
    # n - #cycles(w u^-1) = #supp - #nontrivial cycles of w u^-1
    def rank(w, u):
        zeta = w * u.inverse()
        return len(zeta.support()) - zeta.num_cycles()

    for u, w, k in itertools.product(S4, S4, (1, 2, 3)):
        steps = [y for _lab, y in up_covers(w, k)]
        steps += [y for _lab, _ij, y in brute_quantum_covers(w, k)]
        assert all(abs(rank(y, u) - rank(w, u)) == 1 for y in steps), (u, w, k)


# -- the prefix-shared operator sum -------------------------------------------


def _per_monomial_sum(u, monomials, x_op):
    out = Expansion(u.n)
    for (xe, qe), c in monomials:
        cur = Expansion.unit(u)
        for m, e in enumerate(xe, start=1):
            for _ in range(e):
                cur = x_op(cur, m)
        cur = Expansion(
            u.n, {QElement(_padded_sum(x.alpha, qe), x.w): d for x, d in cur.terms.items()}
        )
        out = out + cur.scale(c)
    return out


def test_operator_sum_matches_per_monomial_x_times():
    n = 4
    for k in range(1, n):
        shapes = [
            lam
            for size in range(k * (n - k) + 1)
            for lam in partitions(size, n - k, k)
        ]
        for lam in shapes:
            classical = [((e, ()), c) for e, c in schur_poly(lam, k).monomials()]
            quantum = quantum_schur(lam, k, n).monomials()
            for u in S4:
                want = _per_monomial_sum(u, classical, x_times)
                assert schur_multiply(u, lam, k) == want, (u, lam, k)
                want = _per_monomial_sum(u, quantum, q_x_times)
                assert fgp_product(u, lam, k) == want, (u, lam, k)


# -- golden digest -----------------------------------------------------------

GOLDEN_ROUTES = (
    (schubert, "monk_multiply"),
    (qschubert, "q_monk_multiply"),
    (schubert, "hook_multiply_chains"),
    (schubert, "hook_multiply_minimal"),
    (qschubert, "q_hook_multiply"),
    (schubert, "powersum_multiply"),
    (qschubert, "q_powersum_multiply"),
    (schubert, "schur_multiply"),
)

# sha256 of every golden product's Expansion.text(), recorded at commit
# 63b9e61 (the object-level engine with the unpruned walk)
GOLDEN_SHA256 = "393866c415e6fedbee2776c234eb6c4616902e4b2d467652273d56ca8c389a75"


def _shapes(n, k, max_size):
    return [
        lam
        for size in range(1, max_size + 1)
        for lam in partitions(size, n - k, k)
    ]


def golden_products():
    """(label, function, args) for a fixed seeded list of products: 280 rule
    products in S_6..S_8 over the routes above, 20 FGP products in S_4/S_5."""
    rng = random.Random("golden-products")
    out = []
    for t in range(280):
        mod, name = GOLDEN_ROUTES[t % len(GOLDEN_ROUTES)]
        n = 6 if name == "schur_multiply" else rng.choice((6, 7, 8))
        u = Permutation(rng.sample(range(1, n + 1), n))
        k = rng.randint(1, n - 1)
        if "monk" in name:
            args = (u, k)
        elif "hook" in name:
            args = (u, rng.randint(1, k), rng.randint(1, n - k), k)
        elif "powersum" in name:
            args = (u, rng.randint(1, n - 1), k)
        else:
            args = (u, rng.choice(_shapes(n, k, 3)), k)
        out.append((f"{name}{args}", getattr(mod, name), args))
    for _ in range(20):
        n = rng.choice((4, 5))
        u = Permutation(rng.sample(range(1, n + 1), n))
        k = rng.randint(1, n - 1)
        args = (u, rng.choice(_shapes(n, k, n - 1)), k)
        out.append((f"fgp_product{args}", qschubert.fgp_product, args))
    return out


def golden_digest():
    h = hashlib.sha256()
    for label, fn, args in golden_products():
        h.update(f"{label}\n{fn(*args).text()}\n".encode())
    return h.hexdigest()


def test_golden_products_are_byte_identical():
    assert golden_digest() == GOLDEN_SHA256


# sha256 of the printed polynomials below, recorded at commit e6fcde8 (before
# Poly and QPoly shared their arithmetic)
POLY_SHA256 = "06815577b4d2677e6c1696a6fc396216e5e013d8d43627def14cc82dc151c11a"


def printed_polynomials():
    """str of every Schubert polynomial of S_5 and of every quantum Schur
    polynomial in a k x (n - k) rectangle with n <= 5, then one QPoly repr."""
    for w in all_permutations(5):
        yield str(schubert_poly(w))
    for n in range(2, 6):
        for k in range(1, n):
            for size in range(k * (n - k) + 1):
                for lam in partitions(size, n - k, k):
                    yield str(quantum_schur(lam, k, n))
    yield repr(quantum_elementary(3, 4))


def test_golden_polynomials_print_byte_identically():
    h = hashlib.sha256()
    for text in printed_polynomials():
        h.update(f"{text}\n".encode())
    assert h.hexdigest() == POLY_SHA256
