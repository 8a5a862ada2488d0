import hashlib
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagmn import operators
from flagmn.kbruhat import Chain, crossing
from flagmn.operators import (
    OperatorWord,
    _nonzero_outcomes,
    act,
    chain_word,
    classify,
    column_shift,
    equivalent_words,
    first_witness,
    flatten_word,
    has_crossing_components,
    is_column,
    is_forest_word,
    is_path_word,
    is_row,
    is_tree_word,
    is_zero_word,
    o_shift_word,
    parse_word,
    rc_decompose,
    relation_table,
    rho_word,
    row_shift,
    word_diagram,
    word_to_dot,
    yellow_window,
)
from flagmn.perm import (
    Permutation,
    all_permutations,
    cyclic_shift,
    longest_element,
    parse_permutation,
)
from flagmn.qbruhat import QElement, parse_qelement, q_chains, q_up_covers
from flagmn.qschubert import o_shift_element, w0_element
from flagmn.verification import (
    _FOREST_DRAWS,
    _SEED_FOREST,
    _random_forest_words,
    _structural_paths as _gate_paths,
)
from lemma_helpers import (
    chains_word_bijection,
    drop_position,
    drop_wall,
    insert_value,
    insert_wall_zero,
    iota_index,
    iota_word,
    is_minimal_word,
    tau_index,
    tau_word,
    w0_word,
    word_components,
    word_zeta,
)


def P(text):
    return parse_permutation(text)


def qe(text, n):
    return parse_qelement(text, n)


def W(text, n):
    return parse_word(text, n)


# the five words of the ten-element quantum interval [41352, q_{3,5} 52134]_3,
# as drawn in the chain figure (composition order: rightmost letter acts first)
FIG_WORDS = [
    W("v(4,1) v(1,2) v(3,4) v(4,5)", 5),
    W("v(4,1) v(3,4) v(1,2) v(4,5)", 5),
    W("v(4,1) v(3,4) v(4,5) v(1,2)", 5),
    W("v(4,5) v(5,1) v(3,5) v(1,2)", 5),
    W("v(4,5) v(5,1) v(1,2) v(3,5)", 5),
]
FIG_U = P("41352")
FIG_T_TEXT = "q^(0,0,1,1) 52134"
FIG_K = 3


# ---------------------------------------------------------------------------
# words as data


def test_str_and_parse_roundtrip():
    w = OperatorWord(5, ((4, 1), (1, 2), (3, 4), (4, 5)))
    assert str(w) == "v(4,1) v(1,2) v(3,4) v(4,5)"
    assert parse_word(str(w), 5) == w
    assert parse_word("v_{4,1} v_{1,2} v_{3,4} v_{4,5}", 5) == w
    assert len(w) == 4


def test_from_application_reverses_letters():
    w = OperatorWord.from_application(5, ((4, 5), (3, 4), (1, 2), (4, 1)))
    assert w == FIG_WORDS[0]
    assert w.application_order == ((4, 5), (3, 4), (1, 2), (4, 1))


def test_letter_classification():
    w = FIG_WORDS[0]
    assert w.quantum_letters() == ((4, 1),)
    assert not w.is_classical()
    assert W("v(1,2) v(2,3)", 3).is_classical()
    assert w.support() == {1, 2, 3, 4, 5}


def test_word_validation():
    with pytest.raises(ValueError):
        OperatorWord(3, ((1, 5),))
    with pytest.raises(ValueError):
        OperatorWord(3, ((2, 2),))
    with pytest.raises(ValueError):
        parse_word("garbage", 5)
    # a negative n is refused before any letter is read against it
    for letters in ((), ((1, 2),)):
        with pytest.raises(ValueError, match=re.escape("n must be >= 0, got -3")):
            OperatorWord(-3, letters)
    # the empty word flattens onto S_0
    assert flatten_word(OperatorWord(5, ())) == OperatorWord(0, ())
    assert parse_word("", 5) == OperatorWord(5, ())
    assert parse_word("v(2,3)v(1,2)", 3).letters == ((2, 3), (1, 2))
    # text the letters leave over is named, not skipped
    for text, leftover in (("v(1,2) w(2,3)", "w(2,3)"), ("v(1,2) 7", "7")):
        with pytest.raises(ValueError, match=re.escape(repr(leftover))):
            parse_word(text, 3)
    # a bracket must be closed by its own partner
    for text in ("v(1,2", "v{1,2)", "v_(1,2}"):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            parse_word(text, 3)
    assert parse_word("v(1,2) v{2,3} v_(1;3) v 2,1", 3).letters == (
        (1, 2), (2, 3), (1, 3), (2, 1)
    )


def test_zeta_and_minimality():
    w = FIG_WORDS[0]
    u, t = FIG_U, qe(FIG_T_TEXT, 5)
    assert word_zeta(w) == t.w * u.inverse()
    assert is_minimal_word(w)
    # a square is supported on two values but has two letters
    assert not is_minimal_word(OperatorWord(3, ((2, 3), (2, 3))))


# ---------------------------------------------------------------------------
# the action


def test_action_depends_on_the_wall():
    w = W("v(2,3)", 3)
    assert act(w, P("123"), 1) is None
    assert act(w, P("123"), 2) == qe("132", 3)


def test_two_letter_action():
    w = W("v(2,3) v(1,2)", 3)
    assert act(w, P("123"), 1) == qe("312", 3)
    assert act(w, P("123"), 2) is None


def test_single_quantum_letter():
    w = W("v(5,3)", 5)
    assert act(w, P("15432"), 3) == qe("q^(0,1,1,0) 13452", 5)
    assert act(w, P("15432"), 1) is None


def test_figure_word_action_stepwise():
    u = FIG_U
    stages = ["51342", "51432", "52431"]
    app = FIG_WORDS[0].application_order
    for cut, expect in zip(range(1, 4), stages):
        prefix = OperatorWord.from_application(5, app[:cut])
        assert act(prefix, u, FIG_K) == qe(expect, 5)
    for w in FIG_WORDS:
        assert act(w, u, FIG_K) == qe(FIG_T_TEXT, 5)


def test_action_accumulates_exponents():
    w = W("v(5,3)", 5)
    x = QElement((1, 0, 0, 0), P("15432"))
    assert act(w, x, 3) == qe("q^(1,1,1,0) 13452", 5)


def test_action_is_a_walk_up_the_quantum_covers():
    # independent reference: each letter (a, b) takes the cover labeled a
    # that swaps the values a and b, or gives zero when there is none
    letters = list(itertools.permutations(range(1, 5), 2))
    covers = {}

    def step(x, a, b, k):
        if (x, k) not in covers:
            covers[x, k] = q_up_covers(x, k)
        target = x.w.swap_values(a, b)
        return next(
            (y for lab, y in covers[x, k] if lab == a and y.w == target), None
        )

    cases = 0
    for size in (1, 2, 3):
        for app in itertools.product(letters, repeat=size):
            word = OperatorWord.from_application(4, app)
            for u in all_permutations(4):
                for k in (1, 2, 3):
                    x = QElement((0, 0, 0), u)
                    for a, b in app:
                        x = step(x, a, b, k)
                        if x is None:
                            break
                    assert act(word, u, k) == x, (str(word), str(u), k)
                    cases += 1
    assert cases == 135648


def test_nonzero_outcomes_are_the_k_ranges_of_a_cover_walk():
    # the kernel's lo <= k < hi range against the walk up q_up_covers of
    # test_action_is_a_walk_up_the_quantum_covers, run at each k separately
    letters = list(itertools.permutations(range(1, 5), 2))
    covers = {}

    def walk(app, u, k):
        x = QElement((0, 0, 0), u)
        for a, b in app:
            if (x, k) not in covers:
                covers[x, k] = q_up_covers(x, k)
            target = x.w.swap_values(a, b)
            x = next(
                (y for lab, y in covers[x, k] if lab == a and y.w == target),
                None,
            )
            if x is None:
                return None
        return x

    words = 0
    for size in (0, 1, 2, 3):
        for app in itertools.product(letters, repeat=size):
            word = OperatorWord.from_application(4, app)
            want = []
            for u in all_permutations(4):  # lexicographic, then k upward
                for k in (1, 2, 3):
                    x = walk(app, u, k)
                    if x is not None:
                        want.append((u.word, k, (x.alpha, x.w.word)))
            assert list(_nonzero_outcomes(word)) == want, str(word)
            first = (Permutation(want[0][0]), want[0][1]) if want else None
            assert first_witness(word) == first, str(word)
            if not app:  # the empty word acts at every k
                assert len(want) == 24 * 3
            words += 1
    assert words == 1 + 12 + 12**2 + 12**3


def _full_scan_outcomes(word):
    """The unpruned search: the kernel on every u in S_n, lexicographically.

    Kept as the reference the prefix-pruned ``_nonzero_outcomes`` must
    reproduce tuple for tuple.
    """
    app, n = word.application_order, word.n
    for u in itertools.permutations(range(1, n + 1)):
        out = operators._act_word(app, u, n)
        if out is not None:
            lo, hi, inc, image = out
            for k in range(lo, hi):
                yield u, k, (inc, image)


def _words_up_to_three_letters(n):
    letters = list(itertools.permutations(range(1, n + 1), 2))
    for size in range(4):
        for app in itertools.product(letters, repeat=size):
            yield OperatorWord.from_application(n, app)


def _seeded_words(rng, n, sizes, count):
    letters = list(itertools.permutations(range(1, n + 1), 2))
    return [
        OperatorWord(n, tuple(rng.choices(letters, k=rng.choice(sizes))))
        for _ in range(count)
    ]


def test_pruned_search_yields_the_full_scan_stream():
    rng = random.Random(2024)
    words = list(_words_up_to_three_letters(4))
    for n in (5, 6, 7):
        words += _seeded_words(rng, n, (4, 5, 6), 40 if n < 7 else 12)
    forests = set(_random_forest_words(_FOREST_DRAWS, _SEED_FOREST))
    words += [OperatorWord(n, letters) for n, letters in sorted(forests)]
    assert len(forests) == 2144
    for word in words:
        want = list(_full_scan_outcomes(word))
        assert list(_nonzero_outcomes(word)) == want, str(word)


def _check_prune_on(word):
    # no completion of a refused prefix acts; at length n - 1 the prune is
    # exact, since the one value left sits at position n
    n, app = word.n, word.application_order
    acting = {
        u
        for u in itertools.permutations(range(1, n + 1))
        if operators._act_word(app, u, n) is not None
    }
    refused = 0
    for p in range(n):
        for prefix in itertools.permutations(range(1, n + 1), p):
            live = operators._act_word(app, prefix, n) is not None
            extended = any(u[:p] == prefix for u in acting)
            if p == n - 1:
                assert live == extended, (str(word), prefix)
            elif not live:
                assert not extended, (str(word), prefix)
            refused += not live
    return refused


def test_prune_never_refuses_a_live_prefix():
    refused = sum(_check_prune_on(w) for w in _words_up_to_three_letters(4))
    rng = random.Random(7)
    sample = _seeded_words(rng, 5, (1, 2, 3, 4, 5), 150)
    refused += sum(_check_prune_on(w) for w in sample)
    assert refused > 0


def test_zero_word_search_is_pruned(monkeypatch):
    # the full scan runs the kernel on the 9!/2 = 181,440 u with 9 before 1;
    # the pruned search makes one kernel call per prefix it visits
    calls = []
    kernel = operators._act_word

    def count(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(operators, "_act_word", count)
    operators._flat_is_zero.cache_clear()
    word = W("v(1,5) v(2,6) v(3,7) v(4,8) v(9,1)", 9)
    assert is_zero_word(word)
    assert sum(len(prefix) == 9 for _, prefix, _ in calls) < 1000
    assert len(calls) < 1000


def test_action_validation():
    w = W("v(2,3)", 3)
    with pytest.raises(ValueError):
        act(w, P("1234"), 1)
    with pytest.raises(ValueError):
        act(w, P("123"), 0)
    with pytest.raises(ValueError):
        act(w, P("123"), 3)
    assert act(OperatorWord(3, ()), P("321"), 1) == qe("321", 3)


# ---------------------------------------------------------------------------
# zero words and equivalence


def test_squares_are_zero():
    assert is_zero_word(W("v(2,3) v(2,3)", 3))
    assert is_zero_word(W("v(3,2) v(3,2)", 3))


def test_crossing_words_are_zero():
    for a, b in itertools.permutations((1, 3)):
        for c, d in itertools.permutations((2, 4)):
            for letters in (((a, b), (c, d)), ((c, d), (a, b))):
                w = OperatorWord(4, letters)
                assert has_crossing_components(w)
                assert classify(w) == "crossing"
                assert is_zero_word(w)


def test_chain_zeroness_depends_on_orientation():
    assert is_zero_word(W("v(1,3) v(3,2)", 3))
    assert not is_zero_word(W("v(2,3) v(1,2)", 3))


# the two-letter catalogue as hand lists, the reference of operators._clause:
# the chains on S_3 and the disjoint words on S_4 with the nested-mixed test
ZERO_CHAINS = {
    ((2, 1), (1, 3)),
    ((3, 2), (2, 1)),
    ((1, 3), (3, 2)),
    ((1, 3), (2, 1)),
    ((2, 1), (3, 2)),
    ((3, 2), (1, 3)),
}
LIVE_CHAINS = {
    ((1, 2), (2, 3)),
    ((2, 3), (3, 1)),
    ((3, 1), (1, 2)),
    ((2, 3), (1, 2)),
    ((3, 1), (2, 3)),
    ((1, 2), (3, 1)),
}


def nested_mixed(l1, l2):
    # v(a,b) v(c,d) with a<d<c<b (quantum strictly inside classical) or
    # a>b>c>d (two quantum letters side by side), in either role
    for (a, b), (c, d) in ((l1, l2), (l2, l1)):
        if a < d < c < b or a > b > c > d:
            return True
    return False


def reference_clauses():
    clauses = {}
    for half in itertools.combinations(range(1, 5), 2):
        other = tuple(sorted(set(range(1, 5)) - set(half)))
        if half > other:
            continue
        for l1 in (half, half[::-1]):
            for l2 in (other, other[::-1]):
                for p in ((l1, l2), (l2, l1)):
                    if crossing(set(p[0]), set(p[1])):
                        clauses[p] = "crossing_pairs"
                    elif nested_mixed(*p):
                        clauses[p] = "mixed_nested_pairs"
                    else:
                        clauses[p] = "disjoint_free_pairs"
    letters3 = list(itertools.permutations(range(1, 4), 2))
    for l1, l2 in itertools.product(letters3, repeat=2):
        if l1 != l2 and len(set(l1) & set(l2)) == 1:
            if (l1, l2) in ZERO_CHAINS:
                clauses[l1, l2] = "zero_chain_triples"
            elif (l1, l2) in LIVE_CHAINS:
                clauses[l1, l2] = "live_chain_triples"
            elif l1[0] == l2[0] or l1[1] == l2[1]:
                clauses[l1, l2] = "shared_endpoint_pairs"
    for letter in ((1, 2), (2, 1)):
        clauses[letter, letter] = "squares"
        clauses[letter, letter[::-1]] = "near_inverse_pairs"
    return clauses


def test_clause_rule_puts_every_two_letter_word_where_the_hand_lists_do():
    reference = reference_clauses()
    # every two-letter word of S_4, flattened, is one of the 52 listed words
    letters = list(itertools.permutations(range(1, 5), 2))
    flat = {
        flatten_word(OperatorWord(4, word)).letters
        for word in itertools.product(letters, repeat=2)
    }
    assert flat == set(reference) and len(reference) == 52
    assert {word: operators._clause(*word) for word in reference} == reference


def test_relation_table_names_the_first_offending_word(monkeypatch):
    monkeypatch.setattr(operators, "equivalent_words", lambda v, w: True)
    monkeypatch.setattr(operators, "act", lambda word, u, k: None)
    table = relation_table()
    failures = {name: e["failure"] for name, e in table.items() if not e["ok"]}
    assert failures == {
        "live_chain_triples": "v(1,2) v(2,3) ~ v(1,2) v(3,1)",
        "near_inverse_pairs": "v(1,2) v(2,1)",
    }


def test_relation_table():
    table = relation_table()
    assert all(entry["ok"] and "failure" not in entry for entry in table.values())
    assert {name: entry["words"] for name, entry in table.items()} == {
        "crossing_pairs": 8,
        "mixed_nested_pairs": 4,
        "disjoint_free_pairs": 12,
        "zero_chain_triples": 6,
        "shared_endpoint_pairs": 12,
        "live_chain_triples": 6,
        "squares": 2,
        "near_inverse_pairs": 2,
    }


def test_near_inverse_identity():
    # v_ab v_ba multiplies by q_k exactly on the u with u(k), u(k+1) = b, a
    for a, b in itertools.permutations(range(1, 4), 2):
        w = OperatorWord(3, ((a, b), (b, a)))
        for u in all_permutations(3):
            for k in (1, 2):
                expect = None
                if (u(k), u(k + 1)) == (b, a):
                    alpha = [0, 0]
                    alpha[k - 1] = 1
                    expect = QElement(tuple(alpha), u)
                assert act(w, u, k) == expect


def test_equivalent_words():
    assert equivalent_words(W("v(1,2) v(3,4)", 4), W("v(3,4) v(1,2)", 4))
    # zero words are all equivalent
    assert equivalent_words(
        OperatorWord(4, ((1, 2), (1, 2))), OperatorWord(4, ((1, 3), (2, 4)))
    )
    assert not equivalent_words(W("v(2,3) v(1,2)", 3), W("v(1,2) v(2,3)", 3))
    # a zero word is not equivalent to one acting somewhere
    assert not equivalent_words(OperatorWord(4, ((1, 3), (2, 4))), W("v(1,2)", 4))
    assert first_witness(OperatorWord(4, ((1, 3), (2, 4)))) is None
    with pytest.raises(ValueError):
        equivalent_words(W("v(1,2)", 3), W("v(1,2)", 4))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(
            lambda p: p[0] != p[1]
        ),
        min_size=1,
        max_size=3,
    )
)
def test_zeroness_matches_brute_force(letters):
    word = OperatorWord(5, tuple(letters))
    brute = all(
        act(word, u, k) is None
        for u in all_permutations(5)
        for k in range(1, 5)
    )
    assert is_zero_word(word) == brute


# ---------------------------------------------------------------------------
# relabelings


def test_cyclic_shift_orbit():
    w = W("v(2,3)", 3)
    assert str(o_shift_word(w)) == "v(3,1)"
    assert str(o_shift_word(w, 2)) == "v(1,2)"
    assert o_shift_word(w, 3) == w


def test_w0_and_rho():
    assert str(w0_word(W("v(2,3)", 3))) == "v(1,2)"
    w = FIG_WORDS[0]
    assert w0_word(w0_word(w)) == w
    assert rho_word(rho_word(w)) == w
    assert rho_word(w).letters == tuple(reversed(w.letters))
    # w0 swaps within letters, so it preserves classical/quantum type
    assert len(w0_word(w).quantum_letters()) == len(w.quantum_letters())


def test_tau_iota_on_letters():
    assert str(tau_word(W("v(5,3)", 5), 2)) == "v(4,2)"
    assert str(tau_word(W("v(4,5) v(5,1) v(2,5)", 5), 3)) == "v(3,4) v(4,1) v(2,4)"
    assert str(iota_word(W("v(5,3)", 5), 4)) == "v(6,3)"
    assert str(iota_word(W("v(5,3)", 5), 3)) == "v(6,4)"
    assert iota_word(W("v(5,3)", 5), 3).n == 6
    with pytest.raises(ValueError):
        tau_word(W("v(5,3)", 5), 3)
    with pytest.raises(ValueError):
        iota_word(W("v(5,3)", 5), 7)


def test_flatten_word_is_iterated_tau():
    w = W("v(4,5) v(5,1) v(2,5)", 5)
    assert flatten_word(w) == tau_word(w, 3)
    assert flatten_word(w).n == 4


def test_index_relabelings():
    assert tau_index(3, 1) == 2
    assert tau_index(3, 5) == 3
    assert tau_index(3, 3) == 2
    assert iota_index(3, 2) == 4
    assert iota_index(3, 5) == 3


def test_permutation_surgery():
    assert drop_position(P("413652"), 3) == P("31542")
    assert insert_value(P("31542"), 3, 6) == P("316542")
    assert drop_wall((0, 1, 1, 0), 1) == (1, 1, 0)
    assert drop_wall((0, 1, 1, 0), 5) == (0, 1, 1)
    assert insert_wall_zero((0, 1, 1, 0), 1) == (0, 0, 1, 1, 0)
    assert insert_wall_zero((0, 1, 1, 0), 5) == (0, 1, 1, 0, 0)


def test_relabeling_preserves_action_on_deletion():
    # v(5,3) |>_3 15432 = q_2 q_3 13452; delete a value s missing from the
    # support and the relabeled word repeats the relabeled computation
    base = W("v(5,3)", 5)
    cases = [
        (1, "4321", 2, "q^(1,1,0) 2341"),
        (2, "1432", 3, "q^(0,1,1) 1234"),
        (4, "1432", 2, "q^(0,1,0) 1342"),
    ]
    u, k = P("15432"), 3
    x = act(base, u, k)
    for s, small_u, small_k, expect in cases:
        r = u.inverse()(s)
        assert drop_position(u, r) == P(small_u)
        assert tau_index(k, r) == small_k
        got = act(tau_word(base, s), P(small_u), small_k)
        assert got == qe(expect, 4)
        assert got == QElement(drop_wall(x.alpha, r), drop_position(x.w, r))


def test_relabeling_preserves_action_on_insertion():
    base = W("v(5,3)", 5)
    u, k = P("15432"), 3
    x = act(base, u, k)
    for r, s, big_u, expect in [
        (1, 4, "416532", "q^(0,0,1,1,0) 413562"),
        (5, 3, "165432", "q^(0,1,1,0,0) 145632"),
    ]:
        assert insert_value(u, r, s) == P(big_u)
        got = act(iota_word(base, s), P(big_u), iota_index(k, r))
        assert got == qe(expect, 6)
        assert got == QElement(
            insert_wall_zero(x.alpha, r), insert_value(x.w, r, s)
        )


def test_relabeling_random_sweep():
    rng = random.Random(61803)
    hits = 0
    for _ in range(120):
        u = Permutation(tuple(rng.sample(range(1, 7), 6)))
        k = rng.randint(1, 5)
        elements = [QElement((0,) * 5, u)]
        labels = []
        for _ in range(rng.randint(1, 3)):
            covers = q_up_covers(elements[-1], k)
            if not covers:
                break
            label, nxt = rng.choice(covers)
            labels.append(label)
            elements.append(nxt)
        if len(elements) == 1:
            continue
        word = chain_word(Chain(tuple(elements), tuple(labels)), 6)
        x = act(word, u, k)
        assert x == elements[-1]
        missing = sorted(set(range(1, 7)) - word.support())
        if not missing:
            continue
        hits += 1
        s = rng.choice(missing)
        r = u.inverse()(s)
        small_k = tau_index(k, r)
        assert 1 <= small_k <= 4
        assert act(tau_word(word, s), drop_position(u, r), small_k) == QElement(
            drop_wall(x.alpha, r), drop_position(x.w, r)
        )
        # and going back up: insert a fresh strand, which must enter at a
        # position weakly left or strictly right of every support strand
        positions = [u.inverse()(a) for a in word.support()]
        admissible = list(range(1, min(positions) + 1)) + list(
            range(max(positions) + 1, 8)
        )
        r2 = rng.choice(admissible)
        s2 = rng.randint(1, 7)
        assert act(
            iota_word(word, s2), insert_value(u, r2, s2), iota_index(k, r2)
        ) == QElement(insert_wall_zero(x.alpha, r2), insert_value(x.w, r2, s2))
    assert hits > 30


# ---------------------------------------------------------------------------
# the three symmetries transport actions


def test_symmetry_transport_on_figure_words():
    u, t, k = FIG_U, qe(FIG_T_TEXT, 5), FIG_K
    n = 5
    o = cyclic_shift(n)
    w0 = longest_element(n)
    for w in FIG_WORDS:
        x = act(w, u, k)
        assert x == t
        assert act(o_shift_word(w), o * u, k) == o_shift_element(u, x)
        assert act(w0_word(w), w0 * u * w0, n - k) == w0_element(x)
        assert act(rho_word(w), x.w * w0, n - k) == QElement(
            tuple(reversed(x.alpha)), u * w0
        )


def test_symmetry_transport_on_interval_chains():
    pairs = chains_word_bijection(FIG_U, qe(FIG_T_TEXT, 5), FIG_K)
    words = {str(w) for _, w in pairs}
    o_pairs = chains_word_bijection(P("52413"), qe("q^(1,1,2,1) 13245", 5), 3)
    assert {str(o_shift_word(w)) for _, w in pairs} == {
        str(w) for _, w in o_pairs
    }
    w0_pairs = chains_word_bijection(P("41352"), qe("q^(1,1,0,0) 23541", 5), 2)
    assert {str(w0_word(w)) for _, w in pairs} == {str(w) for _, w in w0_pairs}
    rho_pairs = chains_word_bijection(P("43125"), qe("q^(1,1,0,0) 25314", 5), 2)
    assert {str(rho_word(w)) for _, w in pairs} == {
        str(w) for _, w in rho_pairs
    }
    assert words == {str(w) for w in FIG_WORDS}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(
            lambda p: p[0] != p[1]
        ),
        min_size=1,
        max_size=2,
    ),
    st.permutations(list(range(1, 5))),
    st.integers(1, 3),
)
def test_symmetry_transport_random(letters, u_word, k):
    word = OperatorWord(4, tuple(letters))
    u = Permutation(tuple(u_word))
    x = act(word, u, k)
    if x is None:
        return
    n = 4
    o = cyclic_shift(n)
    w0 = longest_element(n)
    assert act(o_shift_word(word), o * u, k) == o_shift_element(u, x)
    assert act(w0_word(word), w0 * u * w0, n - k) == w0_element(x)
    assert act(rho_word(word), x.w * w0, n - k) == QElement(
        tuple(reversed(x.alpha)), u * w0
    )


# ---------------------------------------------------------------------------
# chains <-> words


def test_chain_word_bijection_on_figure_interval():
    pairs = chains_word_bijection(FIG_U, qe(FIG_T_TEXT, 5), FIG_K)
    assert len(pairs) == 5
    for chain, word in pairs:
        assert chain.labels == tuple(a for a, _ in word.application_order)
        assert is_minimal_word(word)
        assert is_forest_word(word)


def test_chain_word_bijection_rank_one():
    pairs = chains_word_bijection(P("123"), qe("132", 3), 2)
    assert len(pairs) == 1
    assert str(pairs[0][1]) == "v(2,3)"


def test_chain_word_bijection_classical_interval():
    pairs = chains_word_bijection(P("53421"), qe("q_{1,5} q_{2,4} 12354", 5), 2)
    words = [word for _, word in pairs]
    assert len(words) == len({str(w) for w in words})
    for word in words:
        assert is_minimal_word(word)
        assert is_forest_word(word)


def test_chain_word_bijection_incomparable():
    with pytest.raises(ValueError):
        chains_word_bijection(P("321"), qe("123", 3), 1)


# ---------------------------------------------------------------------------
# taxonomy


def test_classify_small_examples():
    assert classify(W("v(2,3)", 3)) == "path(single)"
    assert classify(W("v(3,2)", 3)) == "path(single)"
    assert classify(W("v(2,3) v(1,2)", 3)) == "path(row)"
    assert classify(W("v(1,2) v(2,3)", 3)) == "path(column)"
    assert classify(OperatorWord(3, ((2, 1), (1, 3)))) == "zero"
    assert classify(OperatorWord(4, ((1, 3), (2, 4)))) == "crossing"
    assert classify(OperatorWord(2, ((1, 2), (2, 1)))) == "other"
    assert classify(OperatorWord(3, ())) == "other"


def test_empty_word_is_the_identity_not_zero():
    assert not is_zero_word(OperatorWord(3, ()))
    assert act(OperatorWord(3, ()), P("213"), 1) == qe("213", 3)


@pytest.mark.parametrize(
    "text, patches, message",
    [
        # a path acting somewhere carries at most one quantum letter
        ("v(3,2) v(2,1)", {"is_row": True}, "nonzero path with two quantum letters"),
        # a path of two letters or more is never a row and a column at once
        ("v(2,3) v(1,2)", {"is_column": True}, "multi-letter path is both row and column"),
        # a nonzero path is a row or a column
        (
            "v(2,3) v(1,2)",
            {"is_row": False, "is_column": False, "is_zero_word": False},
            "nonzero path is neither row nor column",
        ),
    ],
)
def test_classify_reports_a_path_theorem_violation(monkeypatch, text, patches, message):
    word = W(text, 3)
    assert is_path_word(word)
    for name, value in patches.items():
        monkeypatch.setattr(operators, name, lambda w, value=value: value)
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}: "):
        classify(word)


def test_classify_figure_words():
    f12 = OperatorWord.from_application(
        9, ((5, 9), (6, 7), (7, 8), (9, 1), (1, 2), (2, 3), (3, 4))
    )
    assert classify(f12) == "row"
    assert row_shift(f12) == 5
    assert len(word_components(f12)) == 2
    f13 = OperatorWord.from_application(
        9, ((2, 3), (1, 2), (9, 1), (8, 9), (5, 6), (4, 5), (7, 4))
    )
    assert classify(f13) == "column"
    assert column_shift(f13) == 3


def test_classify_tree_and_forest():
    tree = W("v(2,5) v(5,7) v(3,5) v(5,6) v(1,3) v(3,4)", 7)
    assert classify(tree) == "tree"
    assert is_tree_word(tree)
    forest = OperatorWord.from_application(6, ((1, 2), (2, 3), (5, 6), (4, 5)))
    assert classify(forest) == "forest"
    assert act(forest, P("145236"), 3) == qe("356124", 6)


def test_quantum_path_figures():
    cases = [
        (((2, 3), (3, 4), (4, 5), (5, 1)), "path(row)", 4, ((1, 2),)),
        (((5, 1), (1, 2), (2, 3), (3, 4)), "path(row)", 1, ((4, 5),)),
        (((3, 4), (2, 3), (1, 2), (5, 1)), "path(column)", 1, ((4, 5),)),
        (((5, 1), (4, 5), (3, 4), (2, 3)), "path(column)", 4, ((1, 2),)),
    ]
    for app, label, shift, window in cases:
        w = OperatorWord.from_application(5, app)
        assert classify(w) == label
        got = row_shift(w) if label == "path(row)" else column_shift(w)
        assert got == shift
        assert yellow_window(w) == window


def test_classical_path_figures():
    row = OperatorWord.from_application(7, ((1, 3), (3, 4), (4, 5), (5, 7)))
    assert classify(row) == "path(row)"
    assert row_shift(row) == 0
    assert yellow_window(row) == ()
    col = OperatorWord.from_application(7, ((5, 7), (4, 5), (3, 4), (1, 3)))
    assert classify(col) == "path(column)"
    assert column_shift(col) == 0


def _structural_paths(top):
    for m in range(2, top + 1):
        for verts in itertools.permutations(range(1, top + 1), m):
            if verts[0] > verts[-1]:
                continue
            edges = list(zip(verts, verts[1:]))
            for orient in itertools.product((0, 1), repeat=len(edges)):
                oriented = tuple(
                    (x, y) if o == 0 else (y, x)
                    for (x, y), o in zip(edges, orient)
                )
                yield OperatorWord.from_application(top, oriented)
                yield OperatorWord.from_application(top, oriented[::-1])


def test_path_theorem_sweep():
    # every nonzero path-shaped word has at most one quantum letter, shifts
    # to exactly one of a classical row or column, and (when quantum) shows
    # a window where the shift can cut
    seen_nonzero = 0
    for word in _structural_paths(4):
        assert is_path_word(word)
        if is_zero_word(word):
            assert not is_row(word) and not is_column(word)
            continue
        seen_nonzero += 1
        assert len(word.quantum_letters()) <= 1
        if len(word) > 1:
            assert is_row(word) != is_column(word)
        if word.quantum_letters():
            assert yellow_window(word) != ()
    assert seen_nonzero > 50


def test_rows_and_columns_act_somewhere():
    for word in _structural_paths(4):
        if is_row(word) or is_column(word):
            assert not is_zero_word(word)


# sha256 of everything the taxonomy decides on the gate's path and forest
# words; a change in any one decision changes the digest
TAXONOMY_DIGEST = "12d3412f8348a90287f46953c7c6c3869103546dd90cc8f508f0f1895b6dc115"


def test_taxonomy_digest_on_gate_words():
    paths = [OperatorWord.from_application(5, app) for app in _gate_paths(5)]
    forests = sorted(set(_random_forest_words(_FOREST_DRAWS, _SEED_FOREST)))
    forests = [OperatorWord(n, letters) for n, letters in forests]
    assert (len(paths), len(forests)) == (3140, 2144)
    digest = hashlib.sha256()
    for word in paths + forests:
        line = [
            str(word),
            row_shift(word),
            column_shift(word),
            classify(word),
            is_forest_word(word),
            is_tree_word(word),
            has_crossing_components(word),
        ]
        digest.update(repr(line).encode())
    nonzero = 0
    for word in forests:
        witness = first_witness(word)
        if witness is not None:
            nonzero += 1
            row, col, shift = rc_decompose(word, *witness)
            digest.update(f"{word}|{row}|{col}|{shift}".encode())
    assert nonzero == 190
    assert digest.hexdigest() == TAXONOMY_DIGEST


def per_copy_row_shift(app, n):
    """The least r whose relabelled copy of ``app`` is a classical row.

    Each of the n cyclic shifts is built as a word of its own, and its
    components, chain links and crossings are found afresh.
    """
    for r in range(n):
        copy = o_shift_word(OperatorWord.from_application(n, app), r)
        comps = [c.application_order for c in word_components(copy)]
        if (
            copy.is_classical()
            and all(x[1] == y[0] for c in comps for x, y in zip(c, c[1:]))
            and not has_crossing_components(copy)
        ):
            return r
    return None


def test_shifts_match_the_per_copy_definition():
    # the gate's 3,140 path words, and every word of up to three letters in
    # S_4, which brings in several components and crossings
    letters = list(itertools.permutations(range(1, 5), 2))
    short = [
        OperatorWord(4, w)
        for m in (1, 2, 3)
        for w in itertools.product(letters, repeat=m)
    ]
    paths = [OperatorWord.from_application(5, app) for app in _gate_paths(5)]
    for word in paths + short:
        n = word.n
        assert row_shift(word) == per_copy_row_shift(word.application_order, n)
        assert column_shift(word) == per_copy_row_shift(word.letters, n)


def test_tree_times_gap_letter_is_zero():
    # appending one quantum letter v(b, a) whose target a falls in a support
    # gap kills every classical tree: the letter moves a across the wall
    # first, and the tree then needs a value it can no longer reach
    trees = []
    for s in itertools.combinations(range(1, 6), 2):
        trees.append(((s[0], s[1]),))
    for s in itertools.combinations(range(1, 6), 3):
        x, y, z = s
        for pair in (((x, y), (y, z)), ((x, y), (x, z)), ((x, z), (y, z))):
            trees.append(pair)
            trees.append(pair[::-1])
    checked = 0
    for letters in trees:
        supp = {v for letter in letters for v in letter}
        gaps = [a for a in range(min(supp), max(supp)) if a not in supp]
        for a in gaps:
            for b in range(a + 1, 7):
                word = OperatorWord(6, tuple(letters) + ((b, a),))
                assert is_zero_word(word)
                checked += 1
    assert checked > 20


def test_crossing_tree_composition_is_zero():
    rng = random.Random(24157817)

    def random_tree(values):
        verts = list(values)
        rng.shuffle(verts)
        letters = []
        for i in range(1, len(verts)):
            other = rng.choice(verts[:i])
            pair = (verts[i], other)
            letters.append(pair if rng.random() < 0.5 else pair[::-1])
        rng.shuffle(letters)
        return letters

    trials = 0
    while trials < 40:
        values = rng.sample(range(1, 7), rng.randint(4, 6))
        cut = rng.randint(2, len(values) - 2)
        a_supp, b_supp = set(values[:cut]), set(values[cut:])
        if not crossing(a_supp, b_supp):
            continue
        trials += 1
        word = OperatorWord(
            6, tuple(random_tree(a_supp)) + tuple(random_tree(b_supp))
        )
        assert has_crossing_components(word)
        assert is_zero_word(word)


# ---------------------------------------------------------------------------
# row-times-column decomposition


def test_rc_decompose_single_letter():
    word = W("v(2,3)", 3)
    R, C, r = rc_decompose(word, P("123"), 2)
    assert r == 0
    assert len(R) + len(C) == 1


def test_rc_decompose_raises_when_no_chain_splits(monkeypatch):
    word, u, k = W("v(2,3)", 3), P("123"), 2
    target = act(word, u, k)
    # every shifted composition now kills the shifted u, so each chain and cut
    # fails the action check and the search runs out
    monkeypatch.setattr(operators, "act", lambda *args: target)
    monkeypatch.setattr(operators, "_act_word", lambda *args: None)
    with pytest.raises(RuntimeError, match="contradicts the decomposition theorem$"):
        rc_decompose(word, u, k)


def test_rc_decompose_classical_tree():
    word = W("v(2,5) v(5,7) v(3,5) v(5,6) v(1,3) v(3,4)", 7)
    u, k = P("3251476"), 4
    R, C, r = rc_decompose(word, u, k)
    assert r == 0
    assert R.is_classical() and C.is_classical()
    assert is_row(R) and is_column(C)
    together = OperatorWord(7, R.letters + C.letters)
    assert act(together, u, k) == act(word, u, k)


def test_rc_decompose_quantum_interval():
    u, t, k = FIG_U, qe(FIG_T_TEXT, 5), FIG_K
    for word in FIG_WORDS:
        R, C, r = rc_decompose(word, u, k)
        together = OperatorWord(5, R.letters + C.letters)
        assert act(together, u, k) == t
        shifted = o_shift_word(together, r)
        assert shifted.is_classical()
        assert row_shift(R) is not None and column_shift(C) is not None


def test_rc_decompose_random_forests():
    rng = random.Random(39088169)

    def random_tree_on(values):
        verts = list(values)
        rng.shuffle(verts)
        letters = []
        for i in range(1, len(verts)):
            other = rng.choice(verts[:i])
            pair = (verts[i], other)
            letters.append(pair if rng.random() < 0.5 else pair[::-1])
        rng.shuffle(letters)
        return letters

    done = 0
    while done < 25:
        n = rng.choice((5, 6))
        # contiguous blocks never cross
        values = list(range(1, n + 1))
        cut = rng.randint(2, n - 2)
        blocks = [values[:cut], values[cut:]]
        if rng.random() < 0.5:
            blocks = [rng.sample(values, rng.randint(2, n))]
        letters = []
        for block in blocks:
            letters.extend(random_tree_on(block))
        word = OperatorWord(n, tuple(letters))
        if not is_forest_word(word):
            continue
        witness = next(
            (
                (u, k)
                for u in all_permutations(n)
                for k in range(1, n)
                if act(word, u, k) is not None
            ),
            None,
        )
        assert first_witness(word) == witness
        if witness is None:
            continue
        done += 1
        u, k = witness
        R, C, r = rc_decompose(word, u, k)
        together = OperatorWord(n, R.letters + C.letters)
        assert act(together, u, k) == act(word, u, k)
        assert o_shift_word(together, r).is_classical()


def test_rc_decompose_validation():
    with pytest.raises(ValueError):
        rc_decompose(OperatorWord(4, ((1, 3), (2, 4))), P("1234"), 2)
    with pytest.raises(ValueError):
        rc_decompose(W("v(2,3)", 3), P("123"), 1)


# ---------------------------------------------------------------------------
# rendering


def test_word_diagram():
    lines = word_diagram(FIG_WORDS[0]).splitlines()
    assert lines[0].endswith("v(4,1)  quantum")
    assert lines[-1] == "window: (2,3)"
    assert len(lines) == 5


def test_word_to_dot():
    dot = word_to_dot(FIG_WORDS[0])
    assert dot.startswith("graph word {")
    assert '4 -- 1 [label="4", color=red, style=dashed];' in dot
    assert '4 -- 5 [label="1", color=green, style=solid];' in dot
