import itertools
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagmn.perm import (
    Permutation,
    _check_shape,
    all_permutations,
    cyclic_shift,
    fits_rectangle,
    flatten,
    from_code,
    from_cycles,
    grassmannian,
    grassmannian_shape,
    het,
    hook_partition,
    identity,
    is_hook,
    longest_element,
    parse_permutation,
    partitions,
)
import flagmn as fm
from flagmn.kbruhat import bruhat_leq, up_covers
from flagmn.operators import equivalent_words
from flagmn.qbruhat import q_leq, q_up_covers
from flagmn.qschubert import o_shift_monomial, quantum_schur
from flagmn.schubert import Poly, poly_product, schur_poly
from lemma_helpers import flatten_cycles

ZETA1 = from_cycles([(2, 3, 5, 7, 4)], 8)
ZETA2 = from_cycles([(1, 7, 4), (3, 6)], 7)


def test_lengths_frozen():
    assert parse_permutation("68235741").length == 18
    assert parse_permutation("68357421").length == 22
    assert parse_permutation("3217465").length == 7
    assert parse_permutation("6274135").length == 12
    assert parse_permutation("78251346").length == 16
    assert parse_permutation("53421").length == 9
    assert parse_permutation("52134").length == 5
    assert parse_permutation("41352").length == 5


def test_composition_examples():
    u = parse_permutation("3217465")
    assert str(ZETA2 * u) == "6274135"
    v = parse_permutation("68235741")
    assert str(ZETA1 * v) == "68357421"


def test_composition_order():
    # (u * v)(i) = u(v(i)): right factor acts first
    u = Permutation((2, 1, 3))
    v = Permutation((1, 3, 2))
    assert (u * v).word == (2, 3, 1)
    assert (v * u).word == (3, 1, 2)


def test_swap_positions_vs_values():
    u = parse_permutation("68235741")
    assert u.swap_positions(1, 6) == parse_permutation("78235641")
    assert u.swap_values(6, 7) == parse_permutation("78235641")
    assert u.swap_values(2, 3) == parse_permutation("68325741")


def test_inverse_and_position():
    u = parse_permutation("3217465")
    assert (u * u.inverse()).is_identity()
    for v in range(1, 8):
        assert u(u.position(v)) == v


def test_length_via_simple_reflections():
    # multiplying by an adjacent transposition on the right changes length by 1
    for u in all_permutations(5):
        for i in range(1, 5):
            w = u.swap_positions(i, i + 1)
            assert abs(w.length - u.length) == 1
            assert (w.length == u.length + 1) == (not u.has_descent(i))


def test_cycle_statistics():
    assert ZETA1.support() == frozenset({2, 3, 4, 5, 7})
    assert ZETA1.num_cycles() == 1
    assert het(ZETA1) == 3
    assert ZETA2.support() == frozenset({1, 3, 4, 6, 7})
    assert ZETA2.num_cycles() == 2
    assert het(ZETA2) == 2
    assert identity(5).num_cycles() == 0
    assert het(identity(5)) == 0


def test_cycles_canonical_form():
    assert from_cycles([(3, 6), (1, 7, 4)], 7).cycles() == ((1, 7, 4), (3, 6))


def test_from_cycles_refuses_a_bad_entry():
    with pytest.raises(ValueError, match="^bad cycle entry 8$"):
        from_cycles([(1, 8)], 7)  # outside 1..n
    with pytest.raises(ValueError, match="^bad cycle entry 2$"):
        from_cycles([(1, 2), (2, 3)], 3)  # in two cycles


def test_flatten():
    assert flatten((3, 6, 1, 6, 8, 3, 1)) == (2, 3, 1, 3, 4, 2, 1)
    assert flatten(()) == ()


def test_flatten_cycles_shape_equivalence():
    eta = from_cycles([(1, 2, 4, 5, 3)], 5)
    assert flatten_cycles(ZETA1) == eta
    assert flatten_cycles(eta) == eta
    assert flatten_cycles(identity(4)) == identity(1)


def test_code_roundtrip_examples():
    w = Permutation((2, 1, 4, 3))
    assert w.code() == (1, 0, 1, 0)
    assert from_code((1, 0, 1, 0)) == w
    assert from_code((), 3) == identity(3)


def test_from_code_refuses_a_negative_entry():
    # -1 would pop from the end of the values left, as if it were a large code
    want = r"^code \(0, -1, 0\) has a negative entry$"
    with pytest.raises(ValueError, match=want):
        from_code((0, -1, 0))


def test_from_code_refuses_an_ambient_too_small():
    with pytest.raises(ValueError, match=r"^code \(0, 2\) needs n >= 4$"):
        from_code((0, 2), 3)


def test_permutations_sort_lexicographically():
    # the order of sorted(poly_product(...).items()), as perfbench sorts them
    words = ("231", "123", "312", "132", "213")
    got = sorted(map(parse_permutation, words))
    assert [str(w) for w in got] == ["123", "132", "213", "231", "312"]
    product = poly_product(parse_permutation("132"), (1,), 2)
    assert [str(w) for w, _c in sorted(product.items())] == ["1423", "231"]


@pytest.mark.parametrize("i", [-1, 0, 3, 4])
def test_has_descent_refuses_positions_outside_1_to_n_minus_1(i):
    want = rf"^descent position must be in 1\.\.2, got {i}$"
    with pytest.raises(ValueError, match=want):
        identity(3).has_descent(i)


@pytest.mark.parametrize("i", [-1, 0, 4])
def test_indices_outside_1_to_n_are_refused(i):
    # index 0 read the last entry, as if the word wrapped around
    u = identity(3)
    for call, what in (
        (lambda: u(i), "position"),
        (lambda: u.position(i), "value"),
        (lambda: u.swap_positions(i, 2), "position"),
        (lambda: u.swap_positions(2, i), "position"),
    ):
        with pytest.raises(ValueError, match=rf"^{what} must be in 1\.\.3, got {i}$"):
            call()


@given(st.permutations(list(range(1, 7))))
def test_code_roundtrip(word):
    u = Permutation(word)
    assert from_code(u.code(), u.n) == u
    assert sum(u.code()) == u.length


@given(st.permutations(list(range(1, 7))), st.permutations(list(range(1, 7))))
def test_length_subadditive(a, b):
    u, v = Permutation(a), Permutation(b)
    assert (u * v).length <= u.length + v.length


def test_grassmannian_codec():
    assert str(grassmannian((3, 1), 3, 7)) == "1362457"
    assert str(grassmannian((1,), 4, 7)) == "1235467"
    assert grassmannian((), 2, 4) == identity(4)
    assert grassmannian_shape(grassmannian((3, 1), 3, 7), 3) == (3, 1)
    # the descent is at k only
    w = grassmannian((2, 2, 1), 3, 6)
    assert w.descents() == (3,)
    assert w.length == 5


def test_grassmannian_validation():
    with pytest.raises(ValueError):
        grassmannian((5,), 2, 6)  # first part exceeds n - k
    with pytest.raises(ValueError):
        grassmannian((1, 1, 1), 2, 6)  # more parts than k
    with pytest.raises(ValueError):
        grassmannian_shape(Permutation((2, 1, 4, 3)), 1)


def test_grassmannian_all_shapes_roundtrip():
    n, k = 6, 3
    seen = set()
    for size in range(10):
        for lam in partitions(size, max_part=n - k, max_parts=k):
            w = grassmannian(lam, k, n)
            assert grassmannian_shape(w, k) == lam
            assert w.length == size
            seen.add(w)
    # Grassmannian permutations are exactly those with descents within {k}
    expected = {
        u for u in all_permutations(n) if all(d == k for d in u.descents())
    }
    assert seen == expected


def test_partitions_and_hooks():
    assert list(partitions(4, max_parts=2)) == [(4,), (3, 1), (2, 2)]
    assert hook_partition(3, 4) == (4, 1, 1)
    assert hook_partition(1, 2) == (2,)
    assert is_hook((4, 1, 1)) and is_hook((2,)) and is_hook(())
    assert not is_hook((2, 2))
    assert fits_rectangle((3, 1), 2, 3)
    assert not fits_rectangle((3, 1), 1, 3)


def test_parse_permutation_formats():
    assert parse_permutation("68235741").word == (6, 8, 2, 3, 5, 7, 4, 1)
    assert parse_permutation("6,8,2,3,5,7,4,1").n == 8
    assert parse_permutation("(1,7,4)(3,6)", n=7) == ZETA2
    assert parse_permutation("132", n=5).word == (1, 3, 2, 4, 5)
    with pytest.raises(ValueError):
        parse_permutation("(1,2)")  # cycles need n
    with pytest.raises(ValueError):
        parse_permutation("1224")
    assert parse_permutation(" (1 2) (3,4) ", n=4).word == (2, 1, 4, 3)
    # a one-line word that does not read as integers is named whole
    for text in ("1,,2", "12a", "1,2,x"):
        with pytest.raises(ValueError, match=f"^cannot parse {re.escape(repr(text))}"):
            parse_permutation(text)
    # text the cycles leave over is named, not skipped
    for text, leftover in (("(1,2)junk", "junk"), ("(1,2", "(1,2"), ("()", "()")):
        with pytest.raises(ValueError, match=re.escape(repr(leftover))):
            parse_permutation(text, 3)


@pytest.mark.parametrize("n", [None, 3])
@pytest.mark.parametrize("text", ["", " "])
def test_parse_permutation_refuses_blank_text(text, n):
    want = f"^no permutation in {re.escape(repr(text))}$"
    with pytest.raises(ValueError, match=want):
        parse_permutation(text, n)


def test_special_elements():
    assert longest_element(4).word == (4, 3, 2, 1)
    assert longest_element(4).length == 6
    assert cyclic_shift(4).word == (2, 3, 4, 1)
    assert str(identity(3)) == "123"


def test_trim_extend():
    u = parse_permutation("132", n=6)
    assert u.n == 6
    assert str(u.trim()) == "132"
    assert identity(5).trim() == identity(1)
    with pytest.raises(ValueError):
        u.extend(4)


def test_str_large_n():
    w = identity(11).swap_positions(10, 11)
    assert str(w) == "1,2,3,4,5,6,7,8,9,11,10"
    assert parse_permutation(str(w)) == w


# -- the one k-range rule ------------------------------------------------------

U4 = Permutation((1, 4, 3, 2))
TOP4 = fm.QElement((0, 0, 0), U4)  # u is its own top: the empty interval
K_RULE = {
    "interval": lambda k: fm.interval(U4, U4, k),
    "chains": lambda k: fm.chains(U4, U4, k),
    "leq_k": lambda k: fm.leq_k(U4, U4, k),
    "up_covers": lambda k: up_covers(U4, k),
    "q_up_covers": lambda k: q_up_covers(TOP4, k),
    "q_interval": lambda k: fm.q_interval(U4, TOP4, k),
    "q_chains": lambda k: fm.q_chains(U4, TOP4, k),
    "q_leq": lambda k: q_leq(U4, TOP4, k),
    "act": lambda k: fm.act(fm.OperatorWord(4, ((1, 2),)), U4, k),
    "monk_multiply": lambda k: fm.monk_multiply(U4, k),
    "hook_multiply_chains": lambda k: fm.hook_multiply_chains(U4, 1, 1, k),
    "hook_multiply_minimal": lambda k: fm.hook_multiply_minimal(U4, 1, 1, k),
    "powersum_multiply": lambda k: fm.powersum_multiply(U4, 1, k),
    "schur_multiply": lambda k: fm.schur_multiply(U4, (1,), k),
    "q_monk_multiply": lambda k: fm.q_monk_multiply(U4, k),
    "q_hook_multiply": lambda k: fm.q_hook_multiply(U4, 1, 1, k),
    "q_powersum_multiply": lambda k: fm.q_powersum_multiply(U4, 1, k),
    "quantum_schur": lambda k: quantum_schur((1,), k, 4),
    "ll_reduce_product": lambda k: fm.ll_reduce_product(U4, (1,), k),
    "fgp_product": lambda k: fm.fgp_product(U4, (1,), k),
    "QLRQuery": lambda k: fm.QLRQuery(U4, U4, (0, 0, 0), (1,), k),
    "grassmannian_shape": lambda k: grassmannian_shape(U4, k),
}


@pytest.mark.parametrize("k", [0, 4])
@pytest.mark.parametrize("name", list(K_RULE))
def test_every_k_function_states_the_one_k_rule(name, k):
    with pytest.raises(ValueError, match=rf"^k must be in 1\.\.3, got {k}$"):
        K_RULE[name](k)


# -- the one shape rule --------------------------------------------------------

SHAPE_RULE = {
    "grassmannian": lambda lam: grassmannian(lam, 2, 4),
    "quantum_schur": lambda lam: quantum_schur(lam, 2, 4),
    "fgp_product": lambda lam: fm.fgp_product(U4, lam, 2),
    "QLRQuery": lambda lam: fm.QLRQuery(U4, U4, (0, 0, 0), lam, 2),
    "ll_reduce_product": lambda lam: fm.ll_reduce_product(U4, lam, 2),
}


@pytest.mark.parametrize("lam", [(3,), (1, 1, 1)])
@pytest.mark.parametrize("name", list(SHAPE_RULE))
def test_every_shape_function_states_the_one_shape_rule(name, lam):
    want = rf"^shape {re.escape(str(lam))} does not fit in the 2 x 2 rectangle$"
    with pytest.raises(ValueError, match=want):
        SHAPE_RULE[name](lam)


# the hook (b, 1^(a-1)) goes through the shape rule, and names its a and b
HOOK_RULE = {
    "hook_multiply_chains": fm.hook_multiply_chains,
    "hook_multiply_minimal": fm.hook_multiply_minimal,
    "q_hook_multiply": fm.q_hook_multiply,
}


@pytest.mark.parametrize(
    "a, b, shape",
    [
        (1, 3, "(3,)"),
        (3, 1, "(1, 1, 1)"),
        # a hook is tried cut to n rows, so a huge a is refused at once
        (10**6, 1, "(1, 1, 1, 1)"),
    ],
)
@pytest.mark.parametrize("name", list(HOOK_RULE))
def test_every_hook_function_states_the_one_shape_rule(name, a, b, shape):
    want = rf"^hook a={a}, b={b}: shape {re.escape(shape)} does not fit in the 2 x 2 rectangle$"
    with pytest.raises(ValueError, match=want):
        HOOK_RULE[name](U4, a, b, 2)


# every function taking a partition
PARTITION_RULE = SHAPE_RULE | {
    "_check_shape": lambda lam: _check_shape(lam, 2, 4),
    "schur_poly": lambda lam: schur_poly(lam, 2),
    "schur_multiply": lambda lam: fm.schur_multiply(U4, lam, 2),
    "poly_product": lambda lam: poly_product(U4, lam, 2),
}


@pytest.mark.parametrize("lam", [(1, 2), (2, -1), (1, 3), (0, 1), (1, 0, 1)])
@pytest.mark.parametrize("name", list(PARTITION_RULE))
def test_every_partition_function_states_the_one_partition_rule(name, lam):
    with pytest.raises(ValueError, match=rf"^not a partition: {re.escape(str(lam))}$"):
        PARTITION_RULE[name](lam)


def test_trailing_zeros_are_dropped():
    assert _check_shape((2, 0), 2, 4) == (2,)
    assert grassmannian((1, 0, 0), 2, 4) == grassmannian((1,), 2, 4)


def test_classical_routes_take_partitions_outside_the_rectangle():
    # s_lam is 0 in H*Fl_4 for lam wider than n - k = 2, and 0 for more than k parts
    assert not fm.schur_multiply(U4, (3,), 2)
    assert schur_poly((1, 1, 1), 2) == Poly()


# -- the one size rule ---------------------------------------------------------

U3 = Permutation((2, 1, 3))
SIZE_RULE = {
    "Permutation.__mul__": lambda: U4 * U3,
    "bruhat_leq": lambda: bruhat_leq(U4, U3),
    "leq_k": lambda: fm.leq_k(U4, U3, 1),
    "q_interval": lambda: fm.q_interval(U4, fm.QElement((0, 0), U3), 1),
    "QLRQuery": lambda: fm.QLRQuery(U4, U3, (0, 0, 0), (1,), 1),
    "o_shift_monomial": lambda: o_shift_monomial(U4, U3),
    "Expansion.__init__": lambda: fm.Expansion(4, [(fm.QElement((0, 0), U3), 1)]),
    "Expansion.__add__": lambda: fm.Expansion.unit(U4) + fm.Expansion.unit(U3),
    "Expansion.coefficient": lambda: fm.q_monk_multiply(U4, 2).coefficient(U3),
    "act": lambda: fm.act(fm.OperatorWord(4, ((1, 2),)), U3, 1),
    "equivalent_words": lambda: equivalent_words(
        fm.OperatorWord(4, ((1, 2),)), fm.OperatorWord(3, ((1, 2),))
    ),
}


@pytest.mark.parametrize("name", list(SIZE_RULE))
def test_every_two_size_function_states_the_one_size_rule(name):
    with pytest.raises(ValueError, match=r"^size mismatch: S_4 and S_3$"):
        SIZE_RULE[name]()
