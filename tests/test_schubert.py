import itertools

import pytest

from flagmn import schubert
from flagmn.perm import (
    Permutation,
    all_permutations,
    from_cycles,
    grassmannian,
    hook_partition,
    identity,
    parse_permutation,
    partitions,
)
from flagmn.qbruhat import QElement
from flagmn.schubert import (
    Expansion,
    Poly,
    expand_in_schubert,
    hook_multiply_chains,
    hook_multiply_minimal,
    monk_multiply,
    poly_product,
    powersum_multiply,
    schubert_poly,
    schur_multiply,
    schur_poly,
    x_times,
)
from lemma_helpers import divided_difference


def poly_of(d):
    return Poly(d)


def mono(*exps):
    return tuple(exps)


# -- polynomial arithmetic ---------------------------------------------------


def test_poly_basics():
    x1, x2 = Poly.x(1), Poly.x(2)
    p = (x1 + x2) * (x1 - x2)
    assert p == poly_of({(2,): 1, (0, 2): -1})
    assert (p - p) == Poly()
    assert not Poly()
    assert Poly.one().degree() == 0
    assert (x1 * 3).coefficient((1,)) == 3
    assert str(x1 * x1 - 2 * x2) == "-2*x2 +x1^2"
    assert str(p - p) == "0"


def test_poly_trailing_zeros_normalized():
    assert poly_of({(1, 0): 1}) == poly_of({(1,): 1})
    assert Poly.x(3).terms == {(0, 0, 1): 1}
    # keys equal up to trailing zeros add up, and a zero sum drops out
    assert str(poly_of({(1,): 2, (1, 0): 3})) == "+5*x1"
    assert poly_of({(1,): 2, (1, 0): -2}).terms == {}


def test_divided_difference_monomials():
    # d_1 of x1^2 = x1 + x2; d_1 of x1 x2 = 0; d_1 of x2 = -1
    assert divided_difference(poly_of({(2,): 1}), 1) == poly_of({(1,): 1, (0, 1): 1})
    assert divided_difference(poly_of({(1, 1): 1}), 1) == Poly()
    assert divided_difference(poly_of({(0, 1): 1}), 1) == poly_of({(): -1})
    # symmetric polynomials are killed
    e2 = poly_of({(1, 1): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    assert divided_difference(e2, 1) == Poly()
    assert divided_difference(e2, 2) == Poly()


# -- Schubert polynomials -----------------------------------------------------


def test_schubert_poly_small_frozen():
    assert schubert_poly(identity(3)) == Poly.one()
    assert schubert_poly(Permutation((2, 1, 3))) == poly_of({(1,): 1})
    assert schubert_poly(Permutation((1, 3, 2))) == poly_of({(1,): 1, (0, 1): 1})
    assert schubert_poly(Permutation((3, 1, 2))) == poly_of({(2,): 1})
    assert schubert_poly(Permutation((2, 3, 1))) == poly_of({(1, 1): 1})
    assert schubert_poly(Permutation((3, 2, 1))) == poly_of({(2, 1): 1})
    assert schubert_poly(Permutation((2, 1, 4, 3))) == poly_of(
        {(2,): 1, (1, 1): 1, (1, 0, 1): 1}
    )
    assert schubert_poly(Permutation((1, 4, 3, 2))) == poly_of(
        {(2, 1): 1, (1, 2): 1, (2, 0, 1): 1, (1, 1, 1): 1, (0, 2, 1): 1}
    )


def test_schubert_poly_stability():
    w = Permutation((1, 4, 3, 2))
    assert schubert_poly(w.extend(7)) == schubert_poly(w)


def test_schubert_poly_leading_monomial_is_code():
    for u in all_permutations(4):
        code = u.code()
        while code and code[-1] == 0:
            code = code[:-1]
        assert schubert_poly(u).lexmin_monomial() == code
        assert schubert_poly(u).coefficient(u.code()) == 1


def test_schubert_poly_divided_difference_recursion():
    # d_i S_w = S_{w s_i} when i is a descent, else 0
    for w in all_permutations(4):
        p = schubert_poly(w)
        for i in (1, 2, 3):
            d = divided_difference(p, i)
            if w.has_descent(i):
                assert d == schubert_poly(w.swap_positions(i, i + 1))
            else:
                assert d == Poly()


def test_schubert_poly_longest_element():
    # S_{w_0} = x1^(n-1) x2^(n-2) ... for S_5
    from flagmn.perm import longest_element

    assert schubert_poly(longest_element(5)) == poly_of({(4, 3, 2, 1): 1})


def ssyt_schur(lam, k):
    """Schur polynomial via semistandard tableaux, an independent oracle."""
    lam = tuple(v for v in lam if v)
    if not lam:
        return Poly.one()
    if len(lam) > k:
        return Poly()
    rows = len(lam)
    cells = [(r, c) for r in range(rows) for c in range(lam[r])]
    out = {}

    def fill(idx, tab):
        if idx == len(cells):
            exps = [0] * k
            for row in tab:
                for v in row:
                    exps[v - 1] += 1
            key = tuple(exps)
            out[key] = out.get(key, 0) + 1
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, tab[r][c - 1])  # weakly increasing along rows
        if r > 0:
            lo = max(lo, tab[r - 1][c] + 1)  # strictly increasing down columns
        for v in range(lo, k + 1):
            tab[r].append(v)
            fill(idx + 1, tab)
            tab[r].pop()

    fill(0, [[] for _ in range(rows)])
    return Poly(out)


def test_schur_poly_matches_tableaux():
    for k in (1, 2, 3):
        for size in range(0, 5):
            for lam in partitions(size, max_parts=k):
                assert schur_poly(lam, k) == ssyt_schur(lam, k), (lam, k)


def test_schur_poly_refuses_a_negative_k():
    with pytest.raises(ValueError, match="^k must be nonnegative, got -1$"):
        schur_poly((1,), -1)
    with pytest.raises(ValueError, match="^k must be nonnegative, got -1$"):
        poly_product(parse_permutation("132"), (1,), -1)
    # with no variables only the empty shape survives
    assert schur_poly((), 0) == Poly.one()
    assert schur_poly((1,), 0) == Poly()
    assert poly_product(parse_permutation("132"), (1,), 0) == {}


def test_schur_poly_is_symmetric():
    p = schur_poly((2, 1), 3)
    assert divided_difference(p, 1) == Poly()
    assert divided_difference(p, 2) == Poly()
    assert divided_difference(p, 3) != Poly()  # not symmetric in x3, x4


def test_expand_in_schubert_roundtrip():
    for u in all_permutations(4):
        assert expand_in_schubert(schubert_poly(u)) == {u.trim(): 1}


def test_expand_in_schubert_products():
    # x2 = S_132 - S_213
    p = Poly.x(2)
    assert expand_in_schubert(p) == {
        Permutation((1, 3, 2)): 1,
        Permutation((2, 1)): -1,
    }
    two = schubert_poly(Permutation((1, 3, 2))) * schubert_poly(
        Permutation((1, 3, 2))
    )
    assert expand_in_schubert(two) == {
        Permutation((1, 4, 2, 3)): 1,
        Permutation((2, 3, 1)): 1,
    }


def test_expand_in_schubert_guards_its_pivot(monkeypatch):
    # a Schubert polynomial without its leading monomial cannot strip it
    monkeypatch.setattr(schubert, "schubert_poly", lambda w: Poly())
    with pytest.raises(RuntimeError, match=r"^pivot monomial \(0, 1\) not eliminated$"):
        expand_in_schubert(Poly.x(2))


# -- expansions ---------------------------------------------------------------


def test_expansion_algebra():
    u = parse_permutation("1432")
    e = Expansion.unit(u)
    assert e.coefficient(u) == 1
    two = e + e
    assert two.coefficient(u) == 2
    assert not (two - two)
    assert (3 * e).coefficient(u) == 3
    assert e.text() == "+1 1432"


def test_expansion_refuses_a_term_of_another_size():
    x = QElement((0, 0), parse_permutation("213"))
    with pytest.raises(ValueError, match=r"^term 213 not in S_4\[q\]$"):
        Expansion(4, {x: 1})


@pytest.mark.parametrize("m", [0, 5])
def test_x_times_refuses_a_variable_out_of_range(m):
    unit = Expansion.unit(parse_permutation("1432"))
    with pytest.raises(ValueError, match=rf"^x_{m} is not a variable of H\*Fl_4$"):
        x_times(unit, m)


def test_expansion_text_ordering():
    n = 4
    a = QElement((0, 0, 0), parse_permutation("2134"))
    b = QElement((1, 0, 0), parse_permutation("1234"))
    e = Expansion(n, {b: -2, a: 1})
    assert e.text().splitlines() == ["+1 2134", "-2 q^(1,0,0) 1234"]


# -- product rules -------------------------------------------------------------


def test_monk_multiply_ring():
    u = parse_permutation("1324")
    got = monk_multiply(u, 2)
    expected = {"1423": 1, "2314": 1, "1342": 0}
    for text, c in expected.items():
        assert got.coefficient(parse_permutation(text)) == c
    assert len(got) == 2


def test_monk_multiply_poly_has_extra_terms():
    u = parse_permutation("321")
    ring = monk_multiply(u, 2)
    poly = monk_multiply(u.extend(4), 2)
    # in the quotient S_321 * S_s2 dies entirely for n = 3
    assert len(ring) == 0
    assert {str(x.w.trim()) for x, _ in poly.items()} == {"3412", "4213"}
    # and the polynomial ring agrees with multiplying out x1^2 x2 (x1 + x2)
    prod = schubert_poly(u) * (Poly.x(1) + Poly.x(2))
    assert expand_in_schubert(prod) == {
        x.w.trim(): c for x, c in poly.items()
    }


def test_monk_is_x1_sum():
    # x_1 + ... + x_k acting by iterated monk differences telescopes
    u = parse_permutation("21543")
    k = 3
    total = Expansion(u.n)
    for m in range(1, k + 1):
        total = total + x_times(Expansion.unit(u), m)
    assert total == monk_multiply(u, k)


def test_x_times_last_variable():
    # x_n = -(monk at n-1): check via e_1(x_1..x_n) acting as zero
    u = parse_permutation("2143")
    total = Expansion(u.n)
    for m in range(1, u.n + 1):
        total = total + x_times(Expansion.unit(u), m)
    assert not total


def brute_schur_multiply(u, lam, k):
    # restrict the polynomial-ring product to S_n
    n = u.n
    out = {}
    for w, c in poly_product(u, lam, k).items():
        if w.n <= n:
            out[w.extend(n)] = c
    return out


@pytest.mark.parametrize("text,k", [("132", 1), ("321", 2), ("2143", 2)])
def test_schur_multiply_matches_polynomial_ring(text, k):
    u = parse_permutation(text)
    n = u.n
    for size in range(1, 4):
        for lam in partitions(size, max_parts=k):
            got = schur_multiply(u, lam, k)
            assert got.is_classical()
            want = brute_schur_multiply(u, lam, k)
            assert {x.w: c for x, c in got.items()} == want, (lam, k)


def test_hook_routes_agree_small():
    for n in (3, 4):
        for u in all_permutations(n):
            for k in range(1, n):
                for a in range(1, k + 1):
                    for b in range(1, n - k + 1):
                        via_chains = hook_multiply_chains(u, a, b, k)
                        via_minimal = hook_multiply_minimal(u, a, b, k)
                        assert via_chains == via_minimal, (str(u), a, b, k)


def test_hook_multiply_is_schur_multiply():
    u = parse_permutation("2143")
    for (a, b) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        got = hook_multiply_chains(u, a, b, 2)
        want = schur_multiply(u, hook_partition(a, b), 2)
        assert got == want, (a, b)


def test_hook_args_validated():
    u = parse_permutation("2143")
    with pytest.raises(ValueError):
        hook_multiply_chains(u, 3, 1, 2)  # a > k
    with pytest.raises(ValueError):
        hook_multiply_chains(u, 1, 3, 2)  # b > n - k
    with pytest.raises(ValueError):
        hook_multiply_minimal(u, 0, 1, 2)


def test_powersum_multiply_example():
    # S_u . p_r = sum of signed minimal cycles; check alternating-hook identity
    u = parse_permutation("21543")
    k, r = 2, 2
    got = powersum_multiply(u, r, k)
    alt = Expansion(u.n)
    for a in range(1, r + 1):
        b = r + 1 - a
        if a <= k and b <= u.n - k:
            term = hook_multiply_chains(u, a, b, k)
            alt = alt + term.scale((-1) ** (a + 1))
    assert got == alt


def test_powersum_total_degree_too_large_is_zero():
    u = parse_permutation("1234")
    assert not powersum_multiply(u, 4, 2)  # cycles need support r+1 > n


def test_classical_product_41532_example():
    # a full product check against the polynomial ring for a non-hook shape
    u = parse_permutation("1432")
    got = schur_multiply(u, (2, 2), 2)
    want = brute_schur_multiply(u, (2, 2), 2)
    assert {x.w: c for x, c in got.items()} == want
