import hashlib
import itertools
import random

import pytest

from flagmn.kbruhat import (
    _x_covers,
    bruhat_leq,
    chains,
    crossing,
    find_witness,
    interval,
    is_minimal,
    leq_k,
    lrank,
    peakless_chain_counts,
    peakless_count,
    peakless_height,
    up_covers,
)
from flagmn.perm import (
    Permutation,
    _swapped,
    all_permutations,
    flatten_cycles,
    from_cycles,
    identity,
    longest_element,
    parse_permutation,
)
from flagmn.qbruhat import QElement, q_interval, q_up_covers
from lemma_helpers import monk_difference, noncrossing_factorization

ZETA1 = from_cycles([(2, 3, 5, 7, 4)], 8)
ZETA2 = from_cycles([(1, 7, 4), (3, 6)], 7)


def brute_covers(u, k):
    out = set()
    for i in range(1, k + 1):
        for j in range(k + 1, u.n + 1):
            w = u.swap_positions(i, j)
            if w.length == u.length + 1:
                out.add((u(i), w))
    return out


def test_up_covers_match_degree_condition():
    for n in (3, 4, 5):
        for u in all_permutations(n):
            for k in range(1, n):
                assert set(up_covers(u, k)) == brute_covers(u, k)


def test_up_covers_s8_example():
    u = parse_permutation("68235741")
    got = {(lab, str(w)) for lab, w in up_covers(u, 5)}
    assert got == {
        (6, "78235641"),
        (5, "68237541"),
        (3, "68245731"),
    }


def test_cover_transposition():
    # u -> w = u t_56 is a 5-Bruhat cover, and no cover at k = 3
    u = parse_permutation("68235741")
    w = parse_permutation("68237541")
    assert (5, w) in up_covers(u, 5) and w == u.swap_positions(5, 6)
    assert w not in [v for _lab, v in up_covers(u, 3)]
    assert u not in [v for _lab, v in up_covers(u, 5)]
    assert u not in [v for _lab, v in up_covers(w, 5)]
    with pytest.raises(ValueError):
        up_covers(u, 8)


def brute_bruhat_leq(x, w):
    # transitive closure over all length-increasing transpositions
    if x == w:
        return True
    if x.length >= w.length:
        return False
    return any(
        brute_bruhat_leq(y, w)
        for y in {
            x.swap_positions(i, j)
            for i, j in itertools.combinations(range(1, x.n + 1), 2)
        }
        if y.length == x.length + 1
    )


def _x_terms(alpha, word, m, quantum):
    """{(alpha', word'): sign} read off ``_x_covers``; no cover comes twice."""
    out = {}
    for i, l, lifted, sign in _x_covers(alpha, word, m - 1, quantum):
        key = (lifted, _swapped(word, i, l))
        assert key not in out
        out[key] = sign
    return out


def test_x_covers_are_monk_at_m_minus_monk_at_m_minus_1():
    words = [u.word for n in range(2, 7) for u in all_permutations(n)]
    rng = random.Random("x-covers")
    words += [tuple(rng.sample(range(1, n + 1), n)) for n in (7, 8) for _ in range(60)]
    for word in words:
        n = len(word)
        for alpha in ((0,) * (n - 1), tuple(i % 3 for i in range(1, n))):
            for m, quantum in itertools.product(range(1, n + 1), (False, True)):
                want = monk_difference(alpha, word, m, quantum)
                assert _x_terms(alpha, word, m, quantum) == want, (word, alpha, m)


def test_bruhat_leq_matches_brute_force():
    for x in all_permutations(4):
        for w in all_permutations(4):
            assert bruhat_leq(x, w) == brute_bruhat_leq(x, w)


def brute_leq_k(u, w, k):
    if u == w:
        return True
    frontier = {u}
    while frontier:
        nxt = set()
        for x in frontier:
            for _lab, y in up_covers(x, k):
                if y == w:
                    return True
                if y.length < w.length:
                    nxt.add(y)
        frontier = nxt
    return False


def test_leq_k_matches_brute_force():
    perms = list(all_permutations(5))
    for u in perms:
        for w in perms:
            for k in (1, 2, 3, 4):
                assert leq_k(u, w, k) == brute_leq_k(u, w, k), (u, w, k)


def test_interval_is_the_brute_force_interval_s4():
    perms = list(all_permutations(4))
    for k in (1, 2, 3):
        below = {(x, y): brute_leq_k(x, y, k) for x in perms for y in perms}
        for u in perms:
            for w in perms:
                want = {x for x in perms if below[u, x] and below[x, w]}
                if want:
                    assert set(interval(u, w, k).elements) == want, (u, w, k)
                else:
                    with pytest.raises(ValueError):
                        interval(u, w, k)


FIG_LEFT_NODES = {
    "68235741",
    "68237541",
    "68245731",
    "68247531",
    "68345721",
    "68257431",
    "68347521",
    "68357421",
}

FIG_RIGHT_NODES = {
    "3217465",
    "3247165",
    "4217365",
    "3267145",
    "4237165",
    "6217345",
    "3276145",
    "4267135",
    "6237145",
    "4276135",
    "6247135",
    "6274135",
}


def test_interval_s8():
    u = parse_permutation("68235741")
    w = parse_permutation("68357421")
    poset = interval(u, w, 5)
    assert {str(x) for x in poset.elements} == FIG_LEFT_NODES
    assert len(poset.edges) == 10
    assert poset.edge_labels() == [2, 2, 2, 3, 3, 4, 4, 5, 5, 5]
    levels = poset.levels()
    assert [len(levels[r]) for r in sorted(levels)] == [1, 2, 2, 2, 1]


def test_interval_s7():
    u = parse_permutation("3217465")
    w = parse_permutation("6274135")
    poset = interval(u, w, 3)
    assert {str(x) for x in poset.elements} == FIG_RIGHT_NODES
    assert len(poset.edges) == 15
    assert poset.edge_labels() == [1, 1, 1, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 6, 6]


def test_interval_chains_and_peakless():
    u = parse_permutation("68235741")
    w = parse_permutation("68357421")
    all_chains = list(chains(u, w, 5))
    assert all(len(c) == 4 for c in all_chains)
    labels = {c.labels for c in all_chains}
    assert (5, 3, 2, 4) in labels
    counts = peakless_chain_counts(u, w, 5)
    assert counts == {3: 1}
    # the peakless chain is the one with labels 5, 3, 2, 4
    assert peakless_height((5, 3, 2, 4)) == 3
    # zeta2's interval has no peakless chain
    assert not peakless_chain_counts(
        parse_permutation("3217465"), parse_permutation("6274135"), 3
    )


def test_chains_come_depth_first_by_label_then_element():
    # both first steps of [1243, 3412]_2 are labelled 2; the one to 1342 is
    # walked out first, so the labels do not come sorted
    u, w = parse_permutation("1243"), parse_permutation("3412")
    got = [(c.labels, tuple(map(str, c.elements))) for c in chains(u, w, 2)]
    assert got == [
        ((2, 3, 1), ("1243", "1342", "1432", "3412")),
        ((2, 1, 2), ("1243", "1423", "2413", "3412")),
    ]


def test_peakless_height():
    assert peakless_height((6, 3, 1, 3)) == 3
    assert peakless_height((1, 2, 3)) == 1
    assert peakless_height((3, 2, 1)) == 3
    assert peakless_height((4,)) == 1
    assert peakless_height((2, 5, 3)) is None
    assert peakless_height((3, 1, 1)) is None
    assert peakless_height(()) is None


def test_interval_raises_when_incomparable():
    with pytest.raises(ValueError):
        interval(parse_permutation("21435"), parse_permutation("53421"), 2)
    # comparable at k=2 but not k=4
    u = parse_permutation("1432")
    with pytest.raises(ValueError):
        interval(u, parse_permutation("4132"), 3)


def test_lrank_and_minimality_examples():
    assert lrank(ZETA1) == 4
    assert is_minimal(ZETA1)
    assert lrank(ZETA2) == 5
    assert not is_minimal(ZETA2)
    assert len(ZETA2.support()) - ZETA2.num_cycles() == 3


def test_find_witness_validity():
    zetas = [ZETA1, ZETA2, from_cycles([(1, 3), (2, 4)], 4)]
    zetas += [zeta for n in range(2, 7) for zeta in all_permutations(n)]
    for zeta in zetas:
        u, k = find_witness(zeta)
        assert leq_k(u, zeta * u, k), f"zeta={zeta}"
    u, k = find_witness(identity(3))
    assert leq_k(u, u, k)


def test_lrank_is_witness_independent():
    # check every witness of every zeta in S_4 gives the same rank jump
    for zeta in all_permutations(4):
        ranks = set()
        for u in all_permutations(4):
            for k in (1, 2, 3):
                if leq_k(u, zeta * u, k):
                    ranks.add((zeta * u).length - u.length)
        assert ranks == {lrank(zeta)}, f"zeta={zeta}"


def test_longest_element_is_minimal():
    # w0 is floor(n/2) disjoint transpositions; the witness is built, not
    # searched for, so n = 12 and n = 40 answer at once
    assert lrank(longest_element(12)) == 6
    assert is_minimal(longest_element(12))
    assert lrank(longest_element(40)) == 20
    assert is_minimal(longest_element(40))


def test_lrank_flattening_agrees():
    for zeta in (ZETA1, ZETA2):
        u, _k = find_witness(zeta)
        jump = (zeta * u).length - u.length
        assert lrank(zeta) == lrank(flatten_cycles(zeta)) == jump


def test_shape_equivalent_intervals():
    eta = from_cycles([(1, 2, 4, 5, 3)], 5)
    assert lrank(eta) == lrank(ZETA1) == 4
    assert is_minimal(eta)
    u1, k1 = find_witness(ZETA1)
    u2, k2 = find_witness(eta)
    c1 = peakless_chain_counts(u1, ZETA1 * u1, k1)
    c2 = peakless_chain_counts(u2, eta * u2, k2)
    assert c1 == c2 == {3: 1}


def test_peakless_counts_match_binomial_s4():
    # every minimal zeta in S_4, every witness: counts by height follow the binomial
    for zeta in all_permutations(4):
        if zeta.is_identity() or not is_minimal(zeta):
            continue
        u, k = find_witness(zeta)
        counts = peakless_chain_counts(u, zeta * u, k)
        expected = {
            a: peakless_count(zeta, a)
            for a in range(1, len(zeta.support()))
            if peakless_count(zeta, a)
        }
        assert counts == expected, f"zeta={zeta}"


def test_nonminimal_has_no_peakless_chain_s4():
    for zeta in all_permutations(4):
        if zeta.is_identity() or is_minimal(zeta):
            continue
        u, k = find_witness(zeta)
        assert not peakless_chain_counts(u, zeta * u, k), f"zeta={zeta}"


def test_crossing():
    assert crossing({1, 3}, {2, 4})
    assert not crossing({1, 4}, {2, 3})  # nested
    assert not crossing({1, 2}, {3, 4})  # disjoint hulls
    assert crossing({1, 4, 7}, {3, 6})
    assert not crossing({1, 6, 7}, {2, 3, 4, 5})


def four_point_crossing(a_supp, b_supp):
    """Some l1 < m1 < l2 < m2 with the l's in one set and the m's in the other."""
    for xs, ms in ((a_supp, b_supp), (b_supp, a_supp)):
        for x1, x2 in itertools.combinations(sorted(xs), 2):
            if any(x1 < m < x2 for m in ms) and any(m > x2 for m in ms):
                return True
    return False


def test_crossing_matches_four_point_definition():
    # every disjoint pair of subsets of 1..7: each value in A, in B or in neither
    for sides in itertools.product((0, 1, 2), repeat=7):
        a = {v for v, side in enumerate(sides, 1) if side == 1}
        b = {v for v, side in enumerate(sides, 1) if side == 2}
        assert crossing(a, b) == four_point_crossing(a, b), (a, b)


def test_noncrossing_factorization():
    assert noncrossing_factorization(ZETA2) == [ZETA2]
    zeta = from_cycles([(1, 2), (4, 5)], 5)
    factors = noncrossing_factorization(zeta)
    assert [f.cycles() for f in factors] == [((1, 2),), ((4, 5),)]
    assert noncrossing_factorization(identity(4)) == []
    # minimality is equivalent to minimality of every factor
    zeta = from_cycles([(1, 3), (2, 4), (5, 6)], 6)
    factors = noncrossing_factorization(zeta)
    assert len(factors) == 2  # (1,3)(2,4) cross, (5,6) apart


def test_poset_serializations():
    u = parse_permutation("1324")
    w = parse_permutation("1423")
    poset = interval(u, w, 2)
    dot = poset.to_dot()
    assert '"1324" -> "1423" [label="3"];' in dot
    data = poset.to_json()
    assert '"bottom": "1324"' in data


# -- poset digest ---------------------------------------------------------------


def _walked_top(rng, u, k, steps, quantum):
    """The end of a seeded random walk of ``steps`` covers up from u."""
    x = QElement((0,) * (u.n - 1), u) if quantum else u
    for _ in range(steps):
        ups = q_up_covers(x, k) if quantum else up_covers(x, k)
        if not ups:
            break
        x = rng.choice(ups)[1]
    return x


def tied_s10():
    """An S_10 interval whose two edges out of the bottom share (rank, lower)."""
    P = parse_permutation
    top = QElement((1, 2, 1, 1, 1, 0, 0, 0, 0), P("1,3,9,6,7,10,2,8,5,4"))
    return P("10,9,3,6,7,1,2,8,5,4"), top, 2


def digest_posets():
    """The posets of the figures, of seeded walks and of a tied S_10 case."""
    P = parse_permutation
    out = [
        (P("68235741"), P("68357421"), 5),
        (P("3217465"), P("6274135"), 3),
        (P("53421"), QElement((1, 2, 2, 1), P("12354")), 2),
        (P("41352"), QElement((0, 0, 1, 1), P("52134")), 3),
        (P("68231574"), QElement((0,) * 7, P("78256134")), 5),
        (P("68235741"), QElement((0, 0, 0, 0, 1, 1, 1), P("78251346")), 5),
    ]
    rng = random.Random("poset-digest")
    for t in range(60):
        n = rng.choice((6, 7, 8))
        u = Permutation(rng.sample(range(1, n + 1), n))
        k = rng.randint(1, n - 1)
        out.append((u, _walked_top(rng, u, k, rng.randint(1, 5), t % 2 == 1), k))
    out.append(tied_s10())
    for u, top, k in out:
        quantum = isinstance(top, QElement)
        yield q_interval(u, top, k) if quantum else interval(u, top, k)


# sha256 of to_dot(), to_json() and rank_of of every poset above, recorded
# before the classical and quantum intervals shared one walk
POSET_DIGEST = "5f7592105efb0c529a78d6e523fb5fee22d793d37627c57e45ab4b5e3291e1bd"


def test_poset_digest():
    digest = hashlib.sha256()
    for poset in digest_posets():
        ranks = sorted((str(x), r) for x, r in poset.rank_of.items())
        digest.update(f"{poset.to_dot()}\n{poset.to_json()}\n{ranks}\n".encode())
    assert digest.hexdigest() == POSET_DIGEST


def test_tied_edges_sort_by_printed_label():
    # "10" before "9", though 9 < 10 and its upper element prints first
    poset = q_interval(*tied_s10())
    out_of_bottom = [(lab, str(y)) for x, lab, y in poset.edges if x == poset.bottom]
    assert [lab for lab, _y in out_of_bottom] == [10, 9]
    assert out_of_bottom[1][1] < out_of_bottom[0][1]
