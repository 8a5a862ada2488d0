import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagmn import qschubert
from flagmn.kbruhat import Chain, LabeledPoset, interval, poset_chains
from flagmn.operators import OperatorWord
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
from flagmn.qbruhat import QElement, parse_qelement, q_ij, q_interval
from flagmn.qschubert import (
    FGP_REFUSED_BLOCK,
    QLRQuery,
    QPoly,
    _classical_terms,
    _coefficient,
    _elementary_poly,
    _exchange,
    _quantum_basis_element,
    _standard_solver,
    fgp_product,
    ll_reduce_product,
    ll_reduce_step,
    o_shift_element,
    o_shift_monomial,
    q_hook_multiply,
    q_monk_multiply,
    q_powersum_multiply,
    q_x_times,
    quantize,
    quantum_elementary,
    quantum_lr,
    quantum_schur,
    rho_element,
    varpi,
    w0_element,
)
from flagmn.schubert import (
    Expansion,
    Poly,
    _code_perm,
    _schur_monomials,
    _trim,
    hook_multiply_minimal,
    monk_multiply,
    powersum_multiply,
    schur_multiply,
    schur_poly,
)
from flagmn.verification import CheckResult
from lemma_helpers import exchange_walls, largest_wall_lr


def qe(text, n):
    return parse_qelement(text, n)


# -- varpi and the reduction ---------------------------------------------------


def test_varpi_worked_values():
    alpha = (1, 2, 2, 3, 2)
    assert varpi(alpha, 2) == 1
    assert varpi(alpha, 4) == 2
    assert [varpi(alpha, i) for i in range(1, 6)] == [0, 1, -1, 2, 1]
    assert all(varpi((0, 0, 0), i) == 0 for i in (1, 2, 3))


def test_varpi_range_errors():
    with pytest.raises(ValueError):
        varpi((1, 0, 0), 0)
    with pytest.raises(ValueError):
        varpi((1, 0, 0), 4)


def test_varpi_positive_forces_positive_entry():
    # varpi_i > 0 needs alpha_i >= 1, so stripping e_i never goes negative
    for alpha in itertools.product(range(3), repeat=4):
        for i in range(1, 5):
            if varpi(alpha, i) > 0:
                assert alpha[i - 1] >= 1


def test_qlrquery_validation():
    u = parse_permutation("1432")
    w = parse_permutation("3412")
    QLRQuery(u, w, (0, 0, 0), (1,), 2)
    with pytest.raises(ValueError):
        QLRQuery(u, w, (0, 0), (1,), 2)  # wrong wall count
    with pytest.raises(ValueError):
        QLRQuery(u, w, (0, -1, 0), (1,), 2)
    with pytest.raises(ValueError):
        QLRQuery(u, w, (0, 0, 0), (3,), 2)  # (3) wider than n-k = 2
    with pytest.raises(ValueError):
        QLRQuery(u, w, (0, 0, 0), (1, 1, 1), 2)  # taller than k = 2
    with pytest.raises(ValueError):
        QLRQuery(u, parse_permutation("14325"), (0, 0, 0), (1,), 2)


def test_ll_reduce_needs_quantum_part():
    q = QLRQuery(
        parse_permutation("1432"), parse_permutation("3412"), (0, 0, 0), (1,), 2
    )
    with pytest.raises(ValueError):
        ll_reduce_step(q)


def test_ll_reduction_path_s8():
    # three exact descent-exchange steps down to a classical coefficient
    u = parse_permutation("68235741")
    w = parse_permutation("78251346")
    alpha = q_ij(5, 8, 8)
    q = QLRQuery(u, w, alpha, (2, 2), 5)

    i, q = ll_reduce_step(q)
    assert i == 7
    assert str(q.u) == "68235714"
    assert str(q.w) == "78251364"
    assert q.alpha == q_ij(5, 7, 8)

    i, q = ll_reduce_step(q)
    assert i == 6
    assert str(q.u) == "68235174"
    assert str(q.w) == "78251634"
    assert q.alpha == q_ij(5, 6, 8)

    i, q = ll_reduce_step(q)
    assert i == 5  # the k = 5 wall itself, with varpi = 2
    assert str(q.u) == "68231574"
    assert str(q.w) == "78256134"
    assert not any(q.alpha)


def test_quantum_lr_s8_values():
    u = parse_permutation("68235741")
    w = parse_permutation("78251346")
    alpha = q_ij(5, 8, 8)
    by_shape = {
        lam: quantum_lr(QLRQuery(u, w, alpha, lam, 5))
        for lam in [(2, 1, 1), (2, 2), (3, 1), (1, 1, 1, 1)]
    }
    assert by_shape == {(2, 1, 1): 1, (2, 2): 1, (3, 1): 0, (1, 1, 1, 1): 0}
    # the row shape (4) has no Grassmannian permutation with descent 5 in S_8
    with pytest.raises(ValueError):
        QLRQuery(u, w, alpha, (4,), 5)


def test_quantum_lr_wall_choice_is_immaterial_s8():
    u = parse_permutation("68235741")
    w = parse_permutation("78251346")
    alpha = q_ij(5, 8, 8)
    for lam in [(2, 1, 1), (2, 2), (3, 1)]:
        q = QLRQuery(u, w, alpha, lam, 5)
        assert quantum_lr(q) == largest_wall_lr(q)


S4_SHAPES = [
    (k, lam)
    for k in (1, 2, 3)
    for size in (1, 2, 3)
    for lam in partitions(size)
    if len(lam) <= k and lam[0] <= 4 - k
]


@given(
    st.permutations(list(range(1, 5))),
    st.permutations(list(range(1, 5))),
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
    st.sampled_from(S4_SHAPES),
)
def test_quantum_lr_wall_choice_is_immaterial_random(uw, ww, alpha, shape):
    k, lam = shape
    q = QLRQuery(Permutation(uw), Permutation(ww), alpha, lam, k)
    assert quantum_lr(q) == largest_wall_lr(q)


# -- quantum Monk --------------------------------------------------------------


def test_quantum_monk_s4():
    u = parse_permutation("1432")
    got = q_monk_multiply(u, 2)
    assert got == Expansion(
        4,
        {
            qe("3412", 4): 1,
            qe("2431", 4): 1,
            qe("q^(0,1,0) 1342", 4): 1,
            qe("q^(0,1,1) 1234", 4): 1,
        },
    )


def test_repr_evaluates_back():
    u = parse_permutation("1432")
    exp = q_monk_multiply(u, 2)
    names = {"Permutation": Permutation, "QElement": QElement, "Expansion": Expansion}
    for obj in (u, qe("q^(0,1,1) 1234", 4), exp, Expansion(4)):
        assert eval(repr(obj), names) == obj


def test_record_classes_repr_eq_hash_and_keywords():
    u, w = parse_permutation("1432"), parse_permutation("3412")
    poset = interval(u, w, 2)
    records = [
        poset,
        next(poset_chains(poset)),
        OperatorWord(4, ((4, 1), (1, 2))),
        QLRQuery(u, w, (0, 0, 0), (1,), 2),
        CheckResult("monk", True, "4 cases", 0.25),
        q_monk_multiply(u, 2),
        Poly({(2, 1): 3, (): -1}),
        QPoly({((1,), (0, 2)): 1}),
        Poly(),
        QPoly(),
    ]
    classes = (Permutation, QElement, LabeledPoset, Chain, OperatorWord, QLRQuery)
    classes += (CheckResult, Expansion, Poly, QPoly)
    names = {cls.__name__: cls for cls in classes}
    for obj in records:
        back = eval(repr(obj), names)
        assert back == obj and repr(back) == repr(obj)
        # Poly and QPoly take their one field, terms, from _SparsePoly
        mro = type(obj).__mro__
        slots = [f for cls in mro for f in cls.__dict__.get("__slots__", ())]
        fields = {f: getattr(obj, f) for f in slots}
        assert type(obj)(**fields) == obj
        values = tuple(fields.values())
        assert obj != values and values != obj
        assert all(obj != v for v in values)
        if isinstance(obj, (LabeledPoset, Expansion, Poly, QPoly)):
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(obj)  # rank_of and terms are dicts
        else:
            assert hash(back) == hash(obj)
    assert records[2] != OperatorWord(4, ((1, 2), (4, 1)))
    assert records[4] != CheckResult("monk", False, "4 cases", 0.25)
    assert Expansion(4) != Expansion(5)
    # equality is type-strict: same fields, other class
    assert Poly() != QPoly() and QPoly() != Poly()

    class Timed(CheckResult):
        __slots__ = ()

    timed = Timed("monk", True, "4 cases", 0.25)
    assert timed != records[4] and records[4] != timed


def test_quantum_monk_is_linear_and_respects_q():
    u = parse_permutation("1432")
    doubled = Expansion(4, {qe("q^(1,0,0) 1432", 4): 2})
    got = q_monk_multiply(doubled, 2)
    expect = q_monk_multiply(u, 2)
    assert got == Expansion(
        4,
        {
            QElement(tuple(a + b for a, b in zip(x.alpha, (1, 0, 0))), x.w): 2 * c
            for x, c in expect.terms.items()
        },
    )


def test_q_x_times_telescopes_to_zero():
    # x_1 + ... + x_n acts as zero on every class
    for word in itertools.permutations((1, 2, 3, 4)):
        u = Expansion.unit(Permutation(word))
        total = Expansion(4)
        for m in (1, 2, 3, 4):
            total = total + q_x_times(u, m)
        assert total == Expansion(4)


def test_q_x_times_commute_spot():
    u = Expansion.unit(parse_permutation("25314"))
    for i, j in [(1, 3), (2, 5), (4, 5)]:
        assert q_x_times(q_x_times(u, i), j) == q_x_times(q_x_times(u, j), i)


# -- quantum elementary polynomials and the quantization oracle -----------------


def x(i):
    return QPoly.x(i)


def q(i):
    return QPoly.q(i)


def test_quantum_elementary_small_cases():
    assert quantum_elementary(1, 1) == x(1)
    assert quantum_elementary(2, 2) == x(1) * x(2) + q(1)
    assert quantum_elementary(2, 3) == (
        x(1) * x(2) + x(1) * x(3) + x(2) * x(3) + q(1) + q(2)
    )
    assert quantum_elementary(3, 3) == x(1) * x(2) * x(3) + q(1) * x(3) + q(2) * x(1)
    assert quantum_elementary(0, 5) == QPoly.one()
    assert not quantum_elementary(4, 3)


def test_quantum_elementary_classical_part():
    for j in range(1, 6):
        for i in range(0, j + 1):
            classical = quantum_elementary(i, j).classical_part()
            assert classical == schur_poly((1,) * i, j)


def _random_exponents(rng, length):
    return tuple(rng.randint(0, 2) for _ in range(rng.randint(0, length)))


def _random_qpoly(rng):
    return QPoly(
        {
            (_random_exponents(rng, 3), _random_exponents(rng, 2)): rng.randint(-3, 3)
            for _ in range(rng.randint(0, 4))
        }
    )


def _random_poly(rng):
    return Poly(
        {_random_exponents(rng, 3): rng.randint(-3, 3) for _ in range(rng.randint(0, 4))}
    )


def test_qpoly_ring_laws_on_seeded_polynomials():
    rng = random.Random("qpoly-ring-laws")
    for _ in range(200):
        a, b, c = (_random_qpoly(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a and a + b == b + a
        assert a - a == QPoly() and not a - a
        assert a * 1 == a * QPoly.one() == 1 * a == a
        assert (a + b).classical_part() == a.classical_part() + b.classical_part()
        assert (a * b).classical_part() == a.classical_part() * b.classical_part()
        p, r = _random_poly(rng), _random_poly(rng)
        assert QPoly.from_poly(p + r) == QPoly.from_poly(p) + QPoly.from_poly(r)
        assert QPoly.from_poly(p * r) == QPoly.from_poly(p) * QPoly.from_poly(r)
        assert QPoly.from_poly(p).classical_part() == p
    assert QPoly.one().classical_part() == Poly.one()


def test_qpoly_keys_equal_up_to_trailing_zeros_add_up():
    q = QPoly({((1,), (0, 1)): 2, ((1, 0), (0, 1, 0)): 3})
    assert str(q) == "+5*q2*x1"
    assert not QPoly({((1,), ()): 2, ((1, 0), (0,)): -2})


def test_poly_and_qpoly_share_their_arithmetic():
    # equality stays type-strict: the zero and the one of the two types differ
    assert Poly() != QPoly() and QPoly() != Poly()
    assert Poly.one() != QPoly.one()
    shared = (
        "__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
        "__eq__", "__hash__", "__bool__", "monomials", "__str__", "__repr__",
    )
    for name in shared:
        assert getattr(Poly, name) is getattr(QPoly, name), name
        assert name not in vars(Poly) and name not in vars(QPoly), name


def test_e_n_1_has_no_quantum_correction():
    # degree-one classes are never deformed, so x_1+...+x_n is still zero in qH*
    for n in range(1, 6):
        assert quantum_elementary(1, n) == QPoly.from_poly(schur_poly((1,), n))


def test_quantize_fixes_degree_one():
    p = Poly.x(1) + Poly.x(3) * 2
    assert quantize(p, 4) == QPoly.from_poly(p)


def test_quantize_sets_q_to_zero_correctly():
    for n in (3, 4):
        for k in range(1, n):
            for size in range(1, k * (n - k) + 1):
                for lam in partitions(size):
                    if len(lam) > k or lam[0] > n - k:
                        continue
                    s = schur_poly(lam, k)
                    assert quantize(s, n).classical_part() == s


def test_quantize_rejects_monomials_outside_staircase():
    with pytest.raises(ValueError):
        quantize(Poly({(3,): 1}), 3)  # x_1^3 needs exponent <= n-1 = 2
    with pytest.raises(ValueError):
        quantize(Poly({(0, 0, 1): 1}), 3)  # x_3 alone is already out (a_3 <= 0)


def test_quantize_rejects_degrees_above_the_top_block():
    with pytest.raises(ValueError):
        quantize(Poly({(4,): 1}), 3)  # degree 4 > n(n-1)/2 = 3: no product


def test_quantize_splits_mixed_degrees():
    p1 = Poly.x(1) + Poly.x(3) * 2
    p2 = schur_poly((1, 1), 3)
    p3 = schur_poly((2, 1), 2)
    assert quantize(p2, 4).classical_part() != quantize(p2, 4)  # q appears
    assert quantize(p1 + p2 + p3, 4) == (
        quantize(p1, 4) + quantize(p2, 4) + quantize(p3, 4)
    )


def _subset_elementary(i, j):
    """e_i(x_1..x_j) as the sum of x_S over the i-subsets S of 1..j."""
    out = {}
    for subset in itertools.combinations(range(j), i):
        e = [0] * j
        for m in subset:
            e[m] = 1
        out[tuple(e)] = 1
    return Poly(out)


def test_elementary_poly_is_the_subset_sum():
    for j in range(8):
        for i in range(j + 1):
            assert _elementary_poly(i, j) == _subset_elementary(i, j), (i, j)


def _full_fraction_inverse(n):
    """The whole n! x n! change of basis inverted over QQ, ignoring degrees.

    An independent reference for the back-substitution in ``quantize``: maps
    (elementary-monomial tuple, staircase monomial) to the entry of the
    inverse.
    """
    monos = sorted(
        _trim(e)
        for e in itertools.product(*(range(n - j + 1) for j in range(1, n + 1)))
    )
    index = {e: t for t, e in enumerate(monos)}
    basis = list(itertools.product(*(range(j + 1) for j in range(1, n))))
    dim = len(monos)
    cols = []
    for tup in basis:
        p = Poly.one()
        for j, i_j in enumerate(tup, start=1):
            if i_j:
                p = p * _subset_elementary(i_j, j)
        col = [0] * dim
        for xe, c in p.terms.items():
            col[index[xe]] = c
        cols.append(col)
    a = [
        [Fraction(cols[b][m]) for b in range(dim)]
        + [Fraction(1 if b == m else 0) for b in range(dim)]
        for m in range(dim)
    ]
    for col in range(dim):
        piv = next(r for r in range(col, dim) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(dim):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * p for v, p in zip(a[r], a[col])]
    return {
        (tup, xe): a[b][dim + m]
        for b, tup in enumerate(basis)
        for m, xe in enumerate(monos)
    }


@pytest.mark.parametrize("n", [3, 4, 5])
def test_quantize_matches_the_full_inverse(n):
    full = _full_fraction_inverse(n)
    basis = {tup for tup, _ in full}
    for xe in {xe for _, xe in full}:
        want = QPoly()
        for tup in basis:
            c = full[tup, xe]
            assert c.denominator == 1
            want = want + _quantum_basis_element(tup) * int(c)
        assert quantize(Poly({xe: 1}), n) == want, xe


def test_the_peel_orders_the_s6_basis_triangularly():
    order = _standard_solver(6)
    assert len(order) == 720
    assert len({tup for tup, _, _ in order}) == 720
    assert len({pivot for _, pivot, _ in order}) == 720
    earlier = set()
    for tup, pivot, sign in order:
        p = Poly.one()
        for j, i_j in enumerate(tup, start=1):
            p = p * _elementary_poly(i_j, j)
        assert sign in (1, -1) and p.terms[pivot] == sign
        assert earlier.isdisjoint(p.terms), tup
        earlier.add(pivot)


def test_a_peel_that_stalls_raises(monkeypatch):
    # with e_i(x_1..x_j) replaced by x_1^i, both degree-1 products are x_1
    monkeypatch.setattr(qschubert, "_elementary_poly", lambda i, j: Poly({(i,): 1}))
    _standard_solver.cache_clear()
    want = (
        "the degree-1 elementary-monomial products for n=3 do not peel into a"
        " triangular basis"
    )
    try:
        with pytest.raises(RuntimeError, match=f"^{re.escape(want)}$"):
            _standard_solver(3)
    finally:
        _standard_solver.cache_clear()


def test_quantum_schur_validates_shape():
    with pytest.raises(ValueError):
        quantum_schur((3,), 2, 4)
    with pytest.raises(ValueError):
        quantum_schur((1, 1, 1), 2, 4)


def _shapes_in(k, n):
    """Every partition inside the k x (n - k) rectangle, the empty one first."""
    for size in range(k * (n - k) + 1):
        yield from partitions(size, n - k, k)


def _flagged_determinant(lam, flag):
    """det(E^{flag(j)}_{mu_i-i+j}), mu = lam', by the Leibniz sum over S_{lam_1}."""
    mu = [sum(part > j for part in lam) for j in range(max(lam, default=0))]
    out = QPoly()
    for perm in itertools.permutations(range(len(mu))):
        term = QPoly.one() * (-1) ** Permutation([p + 1 for p in perm]).length
        for j, i in enumerate(perm):
            term = term * quantum_elementary(mu[i] - i + j, flag(j))
        out = out + term
    return out


def test_quantum_schur_is_the_quantization_of_the_schur_polynomial():
    # the reference: quantize's change of basis, on every shape of S_2..S_6
    shapes = [
        (lam, k, n)
        for n in range(2, 7)
        for k in range(1, n)
        for lam in _shapes_in(k, n)
    ]
    assert len(shapes) == 114
    for lam, k, n in shapes:
        want = quantize(schur_poly(lam, k), n)
        assert quantum_schur(lam, k, n) == want, (lam, k, n)
        assert _flagged_determinant(lam, lambda j: k + j) == want, (lam, k, n)


def test_the_column_flags_matter():
    # the same determinant with every column at k is not s^q_lam: the flags,
    # not the Jacobi-Trudi shape alone, keep each term a standard monomial
    wrong = [
        (lam, k, n)
        for n in range(2, 6)
        for k in range(1, n)
        for lam in _shapes_in(k, n)
        if lam and _flagged_determinant(lam, lambda j: k) != quantum_schur(lam, k, n)
    ]
    assert len(wrong) == 22
    assert ((2,), 1, 3) in wrong  # x1^2 at a constant flag, x1^2 - q1 in truth


def test_fgp_products_never_build_the_change_of_basis(monkeypatch):
    # the determinant needs no solver, which is what lets fgp-oracle answer
    # at S_8 and start without the n! change of basis
    def unbuilt(*args):
        raise AssertionError("the FGP route reached the change of basis")

    monkeypatch.setattr(qschubert, "_standard_solver", unbuilt)
    monkeypatch.setattr(qschubert, "quantize", unbuilt)
    quantum_schur.cache_clear()
    try:
        for n in range(4, 9):
            u = Permutation(random.Random(n).sample(range(1, n + 1), n))
            k = n // 2
            for lam in ((2, 1), (2, 2)):  # a hook and a shape that is not one
                got = fgp_product(u, lam, k)
                assert got == ll_reduce_product(u, lam, k) and got.terms, (u, lam)
    finally:
        quantum_schur.cache_clear()


# -- products: FGP oracle vs closed rules ---------------------------------------


def test_fgp_reproduces_quantum_monk_s4():
    u = parse_permutation("1432")
    assert fgp_product(u, (1,), 2) == q_monk_multiply(u, 2)


def test_quantize_refuses_s8_before_building_the_change_of_basis(monkeypatch):
    # the middle degree blocks at n = 8 are out of reach: the largest has one
    # row per code (c_1..c_7), 0 <= c_j <= j, of the middle degree
    steps = (range(j + 1) for j in range(1, 8))
    block = max(Counter(map(sum, itertools.product(*steps))).values())
    assert block == FGP_REFUSED_BLOCK == 3836
    want = (
        "quantize's change of basis stops at S_7: S_8 needs a peel of degree"
        f" blocks of {block} elementary-monomial products or more;"
        " quantum_schur and fgp_product (--basis fgp-oracle) have no such limit"
    )

    def unbuilt(n):
        raise AssertionError(f"the change of basis for n={n} was built")

    monkeypatch.setattr(qschubert, "_standard_solver", unbuilt)
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        quantize(schur_poly((1,), 1), 8)


def test_q_hook_validates_arguments():
    u = parse_permutation("1432")
    with pytest.raises(ValueError):
        q_hook_multiply(u, 3, 1, 2)  # a > k
    with pytest.raises(ValueError):
        q_hook_multiply(u, 1, 3, 2)  # b > n-k
    with pytest.raises(ValueError):
        q_hook_multiply(u, 1, 1, 4)


def test_q_hook_of_single_box_is_quantum_monk():
    for word in itertools.permutations((1, 2, 3, 4)):
        u = Permutation(word)
        for k in (1, 2, 3):
            assert q_hook_multiply(u, 1, 1, k) == q_monk_multiply(u, k)


def _monk_args(n):
    return [(k,) for k in range(1, n)]


def _hook_args(n):
    return [
        (a, b, k)
        for k in range(1, n)
        for a in range(1, k + 1)
        for b in range(1, n - k + 1)
    ]


def _powersum_args(n):
    return [(r, k) for k in range(1, n) for r in range(1, n)]


def _rectangle_args(n):
    return [
        (lam, k)
        for k in range(1, n)
        for size in range(1, k * (n - k) + 1)
        for lam in partitions(size, max_part=n - k, max_parts=k)
    ]


@pytest.mark.parametrize(
    "quantum, classical, arguments",
    [
        (q_monk_multiply, monk_multiply, _monk_args),
        (q_hook_multiply, hook_multiply_minimal, _hook_args),
        (q_powersum_multiply, powersum_multiply, _powersum_args),
        (fgp_product, schur_multiply, _rectangle_args),
    ],
    ids=["monk", "hook", "powersum", "schur"],
)
def test_classical_part_is_classical_product(quantum, classical, arguments):
    # the classical ring is the q = 0 shadow of the quantum ring
    for n in (3, 4):
        for u in all_permutations(n):
            for args in arguments(n):
                want = classical(u, *args)
                assert want.is_classical()
                got = quantum(u, *args).classical_terms()
                assert got == want.classical_terms(), (u, args)


def test_q_hook_terms_are_rank_homogeneous():
    u = parse_permutation("25314")
    for k, a, b in [(2, 1, 2), (2, 2, 3), (3, 2, 2), (4, 3, 1)]:
        exp = q_hook_multiply(u, a, b, k)
        assert exp.terms
        for z in exp.terms:
            assert z.rank == u.length + a + b - 1


def test_fgp_matches_q_hook_s4_full_sweep():
    for word in itertools.permutations((1, 2, 3, 4)):
        u = Permutation(word)
        for k in (1, 2, 3):
            for a in range(1, k + 1):
                for b in range(1, 4 - k + 1):
                    lam = hook_partition(a, b)
                    assert fgp_product(u, lam, k) == q_hook_multiply(u, a, b, k)


def test_fgp_matches_q_hook_s5_spot():
    for text, k, a, b in [
        ("41352", 3, 2, 1),
        ("41352", 2, 1, 2),
        ("53421", 2, 2, 3),
        ("25314", 4, 2, 1),
    ]:
        u = parse_permutation(text)
        lam = hook_partition(a, b)
        assert fgp_product(u, lam, k) == q_hook_multiply(u, a, b, k)


def test_fgp_handles_non_hook_shapes():
    # (2,2) is not a hook, so only the LL route can cross-check it
    u = parse_permutation("2143")
    exp = fgp_product(u, (2, 2), 2)
    assert exp.terms
    for z, c in exp.terms.items():
        assert z.rank == u.length + 4
        assert c == quantum_lr(QLRQuery(u, z.w, z.alpha, (2, 2), 2))


def test_quantum_lr_matches_q_hook_s4_sweep():
    hooks = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]
    for word in itertools.permutations((1, 2, 3, 4)):
        u = Permutation(word)
        for k in (1, 2, 3):
            for a, b in hooks:
                if a > k or b > 4 - k:
                    continue
                lam = hook_partition(a, b)
                exp = q_hook_multiply(u, a, b, k)
                for z, c in exp.terms.items():
                    assert quantum_lr(QLRQuery(u, z.w, z.alpha, lam, k)) == c


def test_quantum_lr_zero_off_support():
    # a coefficient absent from the hook product must reduce to zero
    u = parse_permutation("1432")
    exp = q_hook_multiply(u, 1, 1, 2)
    for w in all_permutations(4):
        for alpha in itertools.product(range(2), repeat=3):
            z = QElement(alpha, w)
            if z.rank != u.length + 1:
                continue
            want = exp.terms.get(z, 0)
            assert quantum_lr(QLRQuery(u, w, alpha, (1,), 2)) == want


def _s3_queries():
    """Every S_3 query with alpha in {0, 1, 2}^2 nonzero, at four (k, lam)."""
    for k, lam in ((1, (1,)), (1, (2,)), (2, (1,)), (2, (1, 1))):
        for u, w in itertools.product(all_permutations(3), repeat=2):
            for alpha in itertools.product(range(3), repeat=2):
                if any(alpha):
                    yield QLRQuery(u, w, alpha, lam, k)


def test_quantum_lr_matches_fgp_on_every_s3_query():
    # arbitrary queries, not only the terms a product reaches: a reduction
    # step that ignores sg_i(w) = 0 gives 1 at u = 231, w = 132,
    # alpha = (1, 1), lam = (1), k = 1, where the coefficient is 0
    queries = list(_s3_queries())
    for q in queries:
        want = fgp_product(q.u, q.lam, q.k).coefficient(QElement(q.alpha, q.w))
        assert quantum_lr(q) == want
    assert len(queries) == 1152


def test_word_exchange_is_the_object_exchange_on_every_s3_query():
    # the exchange runs on one-line words; has_descent, varpi and swap_positions on
    # Permutation objects state the same rule at the smallest wall
    queries = list(_s3_queries())
    for q in queries:
        walls = exchange_walls(q.u, q.w, q.alpha, q.k)
        step = ll_reduce_step(q)
        if walls:
            i = walls[0]
            u, w = q.u.swap_positions(i, i + 1), q.w.swap_positions(i, i + 1)
            alpha = q.alpha[: i - 1] + (q.alpha[i - 1] - 1,) + q.alpha[i:]
            assert step == (i, QLRQuery(u, w, alpha, q.lam, q.k))
        else:
            assert step is None
            assert _exchange(q.u.word, q.w.word, q.alpha, q.k) is None
        # the coefficient function reads the classical coefficient where
        # repeated steps land at alpha = 0, and 0 where a step fails
        end = q
        while end is not None and any(end.alpha):
            step = ll_reduce_step(end)
            end = None if step is None else step[1]
        want = 0
        if end is not None:
            want = schur_multiply(end.u, q.lam, q.k).coefficient(end.w)
        monomials = _schur_monomials(q.lam, q.k)
        assert _coefficient(q.u.word, q.w.word, q.alpha, q.k, monomials) == want
    assert len(queries) == 1152


def _rectangle_shapes(k, n):
    return [
        lam for size in range(k * (n - k) + 1) for lam in partitions(size, n - k, k)
    ]


def test_ll_reduce_product_matches_fgp_on_every_rectangle_shape():
    for n in (3, 4):
        for u in all_permutations(n):
            for k in range(1, n):
                for lam in _rectangle_shapes(k, n):
                    assert ll_reduce_product(u, lam, k) == fgp_product(u, lam, k)
    rng = random.Random("ll-reduce-s5")
    words5 = [p.word for p in all_permutations(5)]
    for _ in range(100):
        u, k = Permutation(rng.choice(words5)), rng.randrange(1, 5)
        lam = rng.choice(_rectangle_shapes(k, 5))
        assert ll_reduce_product(u, lam, k) == fgp_product(u, lam, k), (u, lam, k)


def test_ll_reduce_product_matches_the_hook_theorem_on_every_s5_hook():
    for u in all_permutations(5):
        for k in range(1, 5):
            for a in range(1, k + 1):
                for b in range(1, 5 - k + 1):
                    got = ll_reduce_product(u, hook_partition(a, b), k)
                    assert got == q_hook_multiply(u, a, b, k), (u, k, a, b)


def _ll_reduce_hook_cases():
    cases = [
        (u, k, hook_partition(a, b))
        for u in all_permutations(4)
        for k in range(1, 4)
        for a in range(1, k + 1)
        for b in range(1, 4 - k + 1)
    ]
    rng = random.Random("ll-reduce-memo-s5")
    words5 = [p.word for p in all_permutations(5)]
    for _ in range(150):
        u, k = Permutation(rng.choice(words5)), rng.randrange(1, 5)
        cases.append((u, k, hook_partition(rng.randint(1, k), rng.randint(1, 5 - k))))
    return cases


def test_ll_reduce_product_is_the_same_with_its_memo_cold_and_warm():
    cases = _ll_reduce_hook_cases()
    cold = []
    for u, k, lam in cases:
        _classical_terms.cache_clear()
        cold.append(ll_reduce_product(u, lam, k))
    warm = [ll_reduce_product(u, lam, k) for u, k, lam in cases]
    assert _classical_terms.cache_info().hits > 0
    assert warm == cold


def test_classical_terms_are_the_nonzero_terms_of_schur_multiply():
    for u in all_permutations(4):
        for k in range(1, 4):
            for lam in _rectangle_shapes(k, 4):
                want = schur_multiply(u, lam, k).classical_terms()
                got = _classical_terms(u.word, _schur_monomials(lam, k))
                assert got == {w.word: c for w, c in want.items()}, (u, k, lam)


def test_the_memos_are_bounded():
    for memo in (_classical_terms, _code_perm):
        assert isinstance(memo.cache_info().maxsize, int)


def test_ll_reduce_product_validates_up_front():
    u = parse_permutation("1432")
    assert ll_reduce_product(u, (1, 0), 2) == ll_reduce_product(u, (1,), 2)
    assert ll_reduce_product(u, (), 2) == Expansion.unit(u)
    for lam, k in (((3,), 2), ((1, 1, 1), 2), ((1,), 4), ((1,), 0)):
        with pytest.raises(ValueError):
            ll_reduce_product(u, lam, k)


def test_nonzero_terms_satisfy_descent_bound():
    # sg_i(w) + varpi_i(alpha) <= sg_i(u) + sg_i(v) for every wall i, where
    # sg_i is 1 at a descent and 0 otherwise
    for word in itertools.permutations((1, 2, 3, 4)):
        u = Permutation(word)
        for k in (1, 2, 3):
            for a in range(1, k + 1):
                for b in range(1, 4 - k + 1):
                    v = grassmannian(hook_partition(a, b), k, 4)
                    for z in q_hook_multiply(u, a, b, k).terms:
                        for i in (1, 2, 3):
                            lhs = z.w.has_descent(i) + varpi(z.alpha, i)
                            assert lhs <= u.has_descent(i) + v.has_descent(i)


# -- power sums ------------------------------------------------------------------


MN_U = "68235741"

# the 17 terms of S_u * p^q_4(x_1..x_5): (cycle w u^{-1}, q-interval factors, sign)
MN_TERMS = [
    ((2, 3, 5, 7, 4), (), 1),
    ((2, 4, 3, 5, 7), (), 1),
    ((3, 5, 6, 7, 4), (), 1),
    ((2, 3, 5, 6, 7), (), -1),
    ((2, 3, 4, 7, 5), ((5, 7),), 1),
    ((3, 4, 6, 7, 5), ((5, 7),), 1),
    ((1, 6, 7, 3, 5), ((5, 8),), 1),
    ((1, 7, 2, 3, 5), ((5, 8),), 1),
    ((1, 6, 7, 5, 4), ((5, 8),), -1),
    ((1, 7, 5, 3, 4), ((5, 8),), -1),
    ((1, 7, 4, 3, 5), ((5, 8),), -1),
    ((2, 3, 5, 7, 8), ((2, 6),), -1),
    ((1, 7, 3, 5, 8), ((2, 8),), 1),
    ((1, 8, 2, 3, 4), ((2, 8),), 1),
    ((1, 6, 7, 5, 8), ((2, 8),), 1),
    ((1, 7, 5, 6, 8), ((2, 8),), 1),
    ((1, 7, 5, 4, 8), ((2, 8), (5, 7)), -1),
]


def mn_expected():
    u = parse_permutation(MN_U)
    terms = {}
    for cycle, qs, sign in MN_TERMS:
        alpha = (0,) * 7
        for i, j in qs:
            alpha = tuple(a + b for a, b in zip(alpha, q_ij(i, j, 8)))
        terms[QElement(alpha, from_cycles([cycle], 8) * u)] = sign
    return Expansion(8, terms)


def test_powersum_17_term_example():
    got = q_powersum_multiply(parse_permutation(MN_U), 4, 5)
    assert len(got) == 17
    assert got == mn_expected()


def test_powersum_classical_small():
    # p_1 = s_(1), so r = 1 must be quantum Monk again
    for word in itertools.permutations((1, 2, 3, 4)):
        u = Permutation(word)
        for k in (1, 2, 3):
            assert q_powersum_multiply(u, 1, k) == q_monk_multiply(u, k)


def test_powersum_equals_alternating_hooks_when_all_hooks_fit():
    # p^q_r = sum_a (-1)^(a-1) s^q_(r-a+1, 1^(a-1)) needs every hook inside
    # the k x (n-k) rectangle, i.e. r <= min(k, n-k)
    cases = [("2143", 2, 2, 4), ("1432", 2, 2, 4), ("25314", 2, 2, 5)]
    for text, r, k, n in cases:
        u = parse_permutation(text)
        total = Expansion(n)
        for a in range(1, r + 1):
            sign = 1 if a % 2 == 1 else -1
            total = total + q_hook_multiply(u, a, r - a + 1, k).scale(sign)
        assert total == q_powersum_multiply(u, r, k)


def _extend_linearly(rule, exp: Expansion, *args) -> Expansion:
    """rule(w, *args) shifted by q^alpha for each term q^alpha S_w of exp."""
    return Expansion(
        exp.n,
        [
            (QElement(tuple(map(sum, zip(x.alpha, y.alpha))), y.w), c * d)
            for x, c in exp.terms.items()
            for y, d in rule(x.w, *args).terms.items()
        ],
    )


def test_powersum_rule_commutes_with_x_m_at_s9():
    # multiplication by a class commutes with each x_m.  q_x_times walks the
    # covers through position m, which the minimal-interval rule never reads,
    # so this checks the rule at S_9, where no other test multiplies by it
    rng = random.Random(9)
    for _ in range(50):
        u = Permutation(tuple(rng.sample(range(1, 10), 9)))
        k, r, m = rng.randrange(1, 9), rng.randint(1, 6), rng.randint(1, 9)
        one = Expansion.unit(u)
        left = q_x_times(_extend_linearly(q_powersum_multiply, one, r, k), m)
        right = _extend_linearly(q_powersum_multiply, q_x_times(one, m), r, k)
        assert left == right, (str(u), k, r, m)


# -- cyclic shift and the symmetry maps -------------------------------------------


def test_o_shift_monomial_basics():
    u = parse_permutation("41352")
    assert o_shift_monomial(u, u) == (0, 0, 0, 0)


def test_o_shift_monomial_transposition_cases():
    # w = u t_{ij} with i < j: the monomial is q_{ij}^(-1), q_{ij}, or 1
    # according to whether n sits at position i, position j, or elsewhere
    n = 5
    for word in itertools.permutations(range(1, n + 1)):
        u = Permutation(word)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                w = u.swap_positions(i, j)
                got = o_shift_monomial(u, w)
                wall = tuple(1 if i <= m < j else 0 for m in range(1, n))
                if u(i) == n:
                    assert got == tuple(-e for e in wall)
                elif u(j) == n:
                    assert got == wall
                else:
                    assert got == (0,) * (n - 1)


@given(
    st.permutations(list(range(1, 6))),
    st.permutations(list(range(1, 6))),
    st.permutations(list(range(1, 6))),
)
def test_o_shift_monomial_multiplicative(a, b, c):
    u, v, w = Permutation(a), Permutation(b), Permutation(c)
    uv, vw = o_shift_monomial(u, v), o_shift_monomial(v, w)
    assert o_shift_monomial(u, w) == tuple(map(sum, zip(uv, vw)))


THREE_OPS_SOURCE = ("41352", "q^(0,0,1,1) 52134", 3)

O_IMAGE_NODES = {
    "52413",
    "q^(1,1,1,0) 12453",
    "53412",
    "q^(0,0,1,0) 52143",
    "q^(1,1,1,0) 12543",
    "q^(1,1,1,0) 13452",
    "q^(0,0,1,0) 53142",
    "q^(1,1,1,0) 13542",
    "q^(0,0,1,0) 53241",
    "q^(1,1,2,1) 13245",
}

W0_IMAGE_NODES = {
    "41352",
    "42351",
    "51342",
    "43152",
    "43251",
    "52341",
    "53142",
    "53241",
    "q^(1,1,0,0) 13542",
    "q^(1,1,0,0) 23541",
}

RHO_IMAGE_NODES = {
    "43125",
    "q^(1,1,0,0) 13425",
    "53124",
    "q^(1,1,0,0) 23415",
    "q^(1,1,0,0) 14325",
    "q^(1,1,0,0) 13524",
    "q^(1,1,0,0) 24315",
    "q^(1,1,0,0) 15324",
    "q^(1,1,0,0) 23514",
    "q^(1,1,0,0) 25314",
}


def three_ops_source_poset():
    text, top, k = THREE_OPS_SOURCE
    return parse_permutation(text), qe(top, 5), k


def test_o_shift_carries_interval_onto_interval():
    u, top, k = three_ops_source_poset()
    src = q_interval(u, top, k)
    image = {o_shift_element(u, z) for z in src.elements}
    assert {str(z) for z in image} == O_IMAGE_NODES
    tgt = q_interval(
        parse_permutation("52413"), qe("q^(1,1,2,1) 13245", 5), k
    )
    assert set(tgt.elements) == image
    # graded isomorphism: ranks and covers transported
    for z in src.elements:
        assert tgt.rank_of[o_shift_element(u, z)] == src.rank_of[z]
    tgt_pairs = {(a, b) for a, _lab, b in tgt.edges}
    for a, _lab, b in src.edges:
        assert (o_shift_element(u, a), o_shift_element(u, b)) in tgt_pairs


def test_w0_conjugation_carries_interval_onto_interval():
    u, top, k = three_ops_source_poset()
    src = q_interval(u, top, k)
    image = {w0_element(z) for z in src.elements}
    assert {str(z) for z in image} == W0_IMAGE_NODES
    tgt = q_interval(
        parse_permutation("41352"), qe("q^(1,1,0,0) 23541", 5), 5 - k
    )
    assert set(tgt.elements) == image
    for z in src.elements:
        assert tgt.rank_of[w0_element(z)] == src.rank_of[z]
    tgt_pairs = {(a, b) for a, _lab, b in tgt.edges}
    for a, _lab, b in src.edges:
        assert (w0_element(a), w0_element(b)) in tgt_pairs


def test_rho_reverses_interval():
    u, top, k = three_ops_source_poset()
    src = q_interval(u, top, k)
    image = {rho_element(top.alpha, z) for z in src.elements}
    assert {str(z) for z in image} == RHO_IMAGE_NODES
    tgt = q_interval(
        parse_permutation("43125"), qe("q^(1,1,0,0) 25314", 5), 5 - k
    )
    assert set(tgt.elements) == image
    height = src.rank_of[top]
    for z in src.elements:
        assert tgt.rank_of[rho_element(top.alpha, z)] == height - src.rank_of[z]
    tgt_pairs = {(a, b) for a, _lab, b in tgt.edges}
    for a, _lab, b in src.edges:
        # order-reversing: covers flip
        assert (
            rho_element(top.alpha, b),
            rho_element(top.alpha, a),
        ) in tgt_pairs


def test_o_shift_element_rejects_ineffective_results():
    # 213 -> o.213 = 321 needs q_{x,y} with negative exponents relative to 132
    u = parse_permutation("132")
    z = QElement((0, 0), parse_permutation("213"))
    with pytest.raises(ValueError):
        o_shift_element(u, z)
