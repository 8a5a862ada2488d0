import pytest

from flagmn.kbruhat import poset_chains, up_covers
from flagmn.perm import all_permutations, parse_permutation
from flagmn.qbruhat import (
    QElement,
    is_minimal_interval,
    parse_qelement,
    q_chains,
    q_ij,
    q_interval,
    q_leq,
    q_up_covers,
)
from lemma_helpers import brute_q_covers, brute_quantum_covers


def qe(text, n):
    return parse_qelement(text, n)


def test_q_ij():
    assert q_ij(2, 4, 5) == (0, 1, 1, 0)
    assert q_ij(1, 5, 5) == (1, 1, 1, 1)
    assert q_ij(3, 4, 8) == (0, 0, 1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        q_ij(4, 4, 5)


def test_qelement_basics():
    x = qe("q_{1,5}q_{2,4} 12354", 5)
    assert x.alpha == (1, 2, 2, 1)
    assert x.degree == 6
    assert x.rank == 13
    assert str(x) == "q^(1,2,2,1) 12354"
    assert qe("q^(1,2,2,1) 12354", 5) == x
    assert qe("q_1 q_2 q_2 q_3 q_3 q_4 12354", 5) == x
    y = qe("52134", 5)
    assert y.is_classical() and y.rank == 5
    assert str(y) == "52134"


def test_parse_qelement_rejects_bad_input():
    with pytest.raises(ValueError):
        qe("q^(1,0) 1234", 4)  # wrong number of walls
    with pytest.raises(ValueError):
        qe("q_7 1234", 4)
    with pytest.raises(ValueError):
        qe("q_2", 4)


def test_quantum_monk_s4():
    # S_{1432} * S_{s_2}: classical terms 3412, 2431; quantum q_2 1342, q_2 q_3 1234
    u = parse_permutation("1432")
    got = {(lab, str(x)) for lab, x in q_up_covers(QElement((0, 0, 0), u), 2)}
    assert got == {
        (1, "3412"),
        (1, "2431"),
        (4, "q^(0,1,0) 1342"),
        (4, "q^(0,1,1) 1234"),
    }


def test_quantum_cover_length_identity():
    # quantum covers satisfy length(u t_ij) = length(u) - 2(j - i) + 1
    for n in (3, 4, 5):
        for u in all_permutations(n):
            for k in range(1, n):
                for _lab, y in q_up_covers(QElement((0,) * (n - 1), u), k):
                    walls = [m for m, a in enumerate(y.alpha, 1) if a]
                    if walls:
                        i, j = walls[0], walls[-1] + 1
                        assert y.alpha == q_ij(i, j, n)
                        assert y.w.length == u.length - 2 * (j - i) + 1
                        assert u(i) > u(j)


def test_quantum_covers_match_brute_force():
    for n in (3, 4, 5):
        for u in all_permutations(n):
            for k in range(1, n):
                got = q_up_covers(QElement((0,) * (n - 1), u), k)
                want = {
                    (lab, QElement(q_ij(i, j, n), w))
                    for lab, (i, j), w in brute_quantum_covers(u, k)
                }
                assert {(lab, y) for lab, y in got if y.degree} == want


def test_rank_raises_by_one():
    for u in all_permutations(4):
        for k in (1, 2, 3):
            x = QElement((0, 0, 0), u)
            for _lab, y in q_up_covers(x, k):
                assert y.rank == x.rank + 1


def test_quantum_bruhat_graph_levels_above_1432():
    x = QElement((0, 0, 0), parse_permutation("1432"))
    level1 = {y for _l, y in q_up_covers(x, 2)}
    assert {str(y) for y in level1} == {
        "3412",
        "2431",
        "q^(0,1,0) 1342",
        "q^(0,1,1) 1234",
    }
    level2 = {z for y in level1 for _l, z in q_up_covers(y, 2)}
    assert {str(z) for z in level2} == {
        "3421",
        "q^(0,1,1) 2134",
        "q^(0,1,0) 2341",
        "q^(0,1,0) 1432",
        "q^(0,1,0) 3142",
        "q^(0,1,1) 1324",
    }


FIG_MIN_LEFT = {
    "53421",
    "54321",
    "q^(1,1,1,1) 13425",
    "q^(0,1,1,1) 51324",
    "q^(1,1,1,1) 14325",
    "q^(0,1,1,1) 52314",
    "q^(1,1,1,1) 15324",
    "q^(1,2,2,1) 12354",
}

FIG_MIN_RIGHT = {
    "41352",
    "51342",
    "42351",
    "41532",
    "51432",
    "52341",
    "42531",
    "52431",
    "q^(0,0,1,1) 42135",
    "q^(0,0,1,1) 52134",
}


def test_minimal_interval_s5_k2():
    u = parse_permutation("53421")
    t = qe("q_{1,5}q_{2,4} 12354", 5)
    poset = q_interval(u, t, 2)
    assert {str(x) for x in poset.elements} == FIG_MIN_LEFT
    assert is_minimal_interval(u, t, 2)


def test_minimal_interval_s5_k3():
    u = parse_permutation("41352")
    t = qe("q_{3,5} 52134", 5)
    poset = q_interval(u, t, 3)
    assert {str(x) for x in poset.elements} == FIG_MIN_RIGHT
    assert is_minimal_interval(u, t, 3)
    # interval ranks: bottom length 5, top rank 5 + 4
    assert poset.rank_of[t] == 4
    chains = list(poset_chains(poset))
    assert all(len(c) == 4 for c in chains)
    assert all(c.elements[0] == QElement((0, 0, 0, 0), u) for c in chains)


FIG_QMIN_CLASSICAL = {
    "68231574",
    "68235174",
    "78231564",
    "68251374",
    "78235164",
    "78251364",
    "68253174",
    "78236154",
    "78253164",
    "78256134",
}

FIG_QMIN_QUANTUM = {
    "68235741",
    "78235641",
    "68237541",
    "78236541",
    "q^(0,0,0,0,1,1,1) 68231547",
    "68257341",
    "78256341",
    "q^(0,0,0,0,1,1,1) 78231546",
    "q^(0,0,0,0,1,1,1) 68251347",
    "q^(0,0,0,0,1,1,1) 78251346",
}


def test_minimal_intervals_s8_k5():
    # two witness intervals for the same zeta = w u^{-1}, one classical and
    # one of quantum degree three; both are minimal of rank four
    u = parse_permutation("68231574")
    t = QElement((0,) * 7, parse_permutation("78256134"))
    poset = q_interval(u, t, 5)
    assert {str(x) for x in poset.elements} == FIG_QMIN_CLASSICAL
    assert is_minimal_interval(u, t, 5)
    assert poset.rank_of[t] == 4

    u2 = parse_permutation("68235741")
    t2 = qe("q_{5,8} 78251346", 8)
    poset2 = q_interval(u2, t2, 5)
    assert {str(x) for x in poset2.elements} == FIG_QMIN_QUANTUM
    assert is_minimal_interval(u2, t2, 5)
    assert poset2.rank_of[t2] == 4
    assert t.w * u.inverse() == t2.w * u2.inverse()


def test_q_interval_classical_restriction():
    # with a classical top, q_interval contains the classical interval plus
    # nothing of positive degree
    from flagmn.kbruhat import interval

    u = parse_permutation("68235741")
    w = parse_permutation("68357421")
    t = QElement((0,) * 7, w)
    qposet = q_interval(u, t, 5)
    poset = interval(u, w, 5)
    assert {str(x) for x in qposet.elements} == {str(x) for x in poset.elements}
    assert is_minimal_interval(u, t, 5)


def test_q_interval_at_a_classical_top_is_the_classical_interval():
    # every quantum cover raises the q-degree, so below a classical top the
    # quantum walk keeps only classical covers; the CLI needs no --quantum
    from flagmn.kbruhat import interval

    def printed(poset):
        return (
            sorted(str(x) for x in poset.elements),
            sorted((str(x), lab, str(y)) for x, lab, y in poset.edges),
        )

    perms = list(all_permutations(4))
    for u in perms:
        for w in perms:
            for k in (1, 2, 3):
                try:
                    want = printed(interval(u, w, k))
                except ValueError:
                    want = None
                try:
                    got = printed(q_interval(u, QElement((0, 0, 0), w), k))
                except ValueError:
                    got = None
                assert got == want, (u, w, k)


def test_walk_below_a_classical_top_makes_no_quantum_cover(monkeypatch, capsys):
    # below a classical top every quantum cover overshoots the cap, so the
    # walk never asks for one: the quantum cover kernel may as well be gone
    from flagmn import kbruhat
    from flagmn.cli import main

    def refuse(*_args):
        raise AssertionError("a quantum cover was generated")

    monkeypatch.setattr(kbruhat, "_quantum_swaps", refuse)
    perms = list(all_permutations(4))
    pairs = 0
    for u in perms:
        for w in perms:
            for k in (1, 2, 3):
                t = QElement((0, 0, 0), w)
                assert q_leq(u, t, k) == kbruhat.leq_k(u, w, k)
                if not kbruhat.leq_k(u, w, k):
                    continue
                pairs += 1
                poset = q_interval(u, t, k)
                assert len(list(q_chains(u, t, k))) == len(list(poset_chains(poset)))
                for cmd in ("interval", "chains"):
                    argv = [cmd, "--u", str(u), "--target", str(w), "--k", str(k)]
                    assert main(argv) == 0
                    capsys.readouterr()
    assert pairs > 100

def test_q_leq():
    u = parse_permutation("41352")
    assert q_leq(u, qe("q_{3,5} 52134", 5), 3)
    assert not q_leq(u, qe("q_{3,5} 52134", 5), 2)
    assert q_leq(u, QElement((0, 0, 0, 0), u), 3)
    assert not q_leq(u, qe("12345", 5), 3)


def test_q_leq_is_unpruned_reachability():
    # every t of q-degree <= 1 in S_3 and S_4, against a plain walk up the
    # position-scan covers that stops only at the largest rank such a t can
    # have
    for n in (3, 4):
        perms = list(all_permutations(n))
        alphas = [(0,) * (n - 1)] + [q_ij(i, i + 1, n) for i in range(1, n)]
        targets = [QElement(alpha, w) for alpha in alphas for w in perms]
        top_rank = max(t.rank for t in targets)
        for u in perms:
            for k in range(1, n):
                frontier = reached = {QElement((0,) * (n - 1), u)}
                while frontier:
                    frontier = {
                        y
                        for x in frontier
                        for _lab, y in brute_q_covers(x, k)
                        if y.rank <= top_rank
                    }
                    reached = reached | frontier
                for t in targets:
                    assert q_leq(u, t, k) == (t in reached), (u, t, k)


def test_is_minimal_interval_raises_when_incomparable():
    with pytest.raises(ValueError):
        is_minimal_interval(
            parse_permutation("41352"), qe("q_{3,5} 52134", 5), 2
        )


def test_q_chains_match_classical_chains_at_degree_zero():
    u = parse_permutation("1234")
    w = parse_permutation("1342")
    t = QElement((0, 0, 0), w)
    qlabels = sorted(c.labels for c in q_chains(u, t, 3))
    from flagmn.kbruhat import chains as kchains

    clabels = sorted(c.labels for c in kchains(u, w, 3))
    assert qlabels == clabels
    assert len(qlabels) > 0


def test_nonminimal_quantum_interval():
    # [1234, q_1 q_2 q_3 1234]: zeta = e but rank difference is 6, not 0
    u = parse_permutation("1234")
    t = qe("q^(1,1,1) 1234", 4)
    if q_leq(u, t, 2):
        assert not is_minimal_interval(u, t, 2)
