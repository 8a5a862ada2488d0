"""Reference helpers that only the lemma tests use.

Index relabelings of words and permutations (delete or insert a strand),
the w0 relabeling of words, the product of a word's letter transpositions
and its minimality, the chain/word bijection, the noncrossing factorization
of a permutation and the divided difference operator.  The package itself
never needs them, so they live here, next to the tests that check the
lemmas they state.  The quantum covers by a position scan, x_m as Monk
at m minus Monk at m - 1, and the descent exchange on Permutation objects
and at the largest wall are references for the kernels and the wall choice
of the package.
"""

from __future__ import annotations

from flagmn.kbruhat import Chain, _covers, crossing, up_covers
from flagmn.operators import OperatorWord, act, chain_word
from flagmn.perm import Permutation, _swapped, flatten, from_cycles, identity
from flagmn.qbruhat import QElement, q_chains, q_ij
from flagmn.qschubert import QLRQuery, varpi
from flagmn.schubert import Poly, _trim, schur_multiply


def tau_index(j: int, s: int) -> int:
    """Index relabeling after deleting s: entries above s drop by one."""
    return j if j < s else j - 1


def iota_index(j: int, s: int) -> int:
    """Index relabeling before inserting at s: entries at or above s move up."""
    return j if j < s else j + 1


def tau_word(word: OperatorWord, s: int) -> OperatorWord:
    """Delete the unused index s from the ambient; ValueError if s is used."""
    if not 1 <= s <= word.n:
        raise ValueError(f"s must be in 1..{word.n}, got {s}")
    if s in word.support():
        raise ValueError(f"{s} is in the support of {word}")
    return OperatorWord(
        word.n - 1,
        tuple((tau_index(a, s), tau_index(b, s)) for a, b in word.letters),
    )


def iota_word(word: OperatorWord, s: int) -> OperatorWord:
    """Open a gap at index s (1 <= s <= n+1); the letters move around it."""
    if not 1 <= s <= word.n + 1:
        raise ValueError(f"s must be in 1..{word.n + 1}, got {s}")
    return OperatorWord(
        word.n + 1,
        tuple((iota_index(a, s), iota_index(b, s)) for a, b in word.letters),
    )


def drop_position(u: Permutation, r: int) -> Permutation:
    """Delete position r from u and flatten the remaining values."""
    if not 1 <= r <= u.n:
        raise ValueError(f"position {r} out of range")
    return Permutation(flatten(u.word[: r - 1] + u.word[r:]))


def insert_value(u: Permutation, r: int, s: int) -> Permutation:
    """The member of S_{n+1} with value s at position r restricting to u."""
    if not 1 <= r <= u.n + 1 or not 1 <= s <= u.n + 1:
        raise ValueError(f"cannot insert value {s} at position {r} in {u}")
    bumped = tuple(v if v < s else v + 1 for v in u.word)
    return Permutation(bumped[: r - 1] + (s,) + bumped[r - 1 :])


def drop_wall(alpha: tuple[int, ...], r: int) -> tuple[int, ...]:
    """The exponent vector left when position r is deleted.

    Deleting an interior position merges walls r-1 and r, so entry r goes;
    deleting the last position removes the final wall.
    """
    i = min(r, len(alpha)) - 1
    return alpha[:i] + alpha[i + 1 :]


def insert_wall_zero(alpha: tuple[int, ...], r: int) -> tuple[int, ...]:
    """The exponent vector after opening a new position r: a zero wall appears."""
    return alpha[: r - 1] + (0,) + alpha[r - 1 :]


def w0_word(word: OperatorWord) -> OperatorWord:
    """Reverse the index line: v(a,b) -> v(n+1-b, n+1-a), kinds preserved."""
    n = word.n
    return OperatorWord(n, tuple((n + 1 - b, n + 1 - a) for a, b in word.letters))


def word_zeta(word: OperatorWord) -> Permutation:
    """The product of the letter transpositions (rightmost applied first)."""
    z = identity(word.n)
    for a, b in word.letters:
        z = z * identity(word.n).swap_values(a, b)
    return z


def is_minimal_word(word: OperatorWord) -> bool:
    """Whether the letter count is least possible for this zeta."""
    z = word_zeta(word)
    return len(word.letters) == len(z.support()) - z.num_cycles()


def chains_word_bijection(
    u: Permutation, t: QElement, k: int
) -> list[tuple[Chain, OperatorWord]]:
    """All (chain, word) pairs for [u, t]^q_k, with the bijection checked.

    Every chain's word must act u -> t, reproduce the chain labels as the
    first letter entries, and be distinct from the other chains' words; any
    failure raises AssertionError.  Incomparable endpoints raise ValueError.
    """
    out: list[tuple[Chain, OperatorWord]] = []
    for chain in q_chains(u, t, k):
        w = chain_word(chain, u.n)
        assert tuple(a for a, _ in w.application_order) == chain.labels, w
        assert act(w, u, k) == t, f"{w} does not map {u} to {t} at k = {k}"
        assert all(w != seen for _, seen in out), f"two chains share {w}"
        out.append((chain, w))
    return out


def noncrossing_factorization(zeta: Permutation) -> list[Permutation]:
    """Factor zeta into permutations with pairwise noncrossing connected supports.

    Cycles whose supports cross are grouped together; each group multiplies
    back into one factor.  Factors are ordered by minimum of support.
    """
    groups: list[list[tuple[int, ...]]] = []
    for cyc in zeta.cycles():
        joined = [g for g in groups if any(crossing(c, cyc) for c in g)]
        merged = [cyc] + [c for g in joined for c in g]
        groups = [g for g in groups if g not in joined] + [merged]
    factors = [from_cycles(g, zeta.n) for g in groups]
    return sorted(factors, key=lambda f: min(f.support()))


def divided_difference(p: Poly, i: int) -> Poly:
    """The operator (f - s_i f) / (x_i - x_{i+1}), acting monomial by monomial."""
    if i < 1:
        raise ValueError("variable index must be positive")
    out: dict[tuple[int, ...], int] = {}
    for exps, c in p.terms.items():
        e = list(exps) + [0] * (i + 1 - len(exps))
        a, b = e[i - 1], e[i]
        sign = 1 if a > b else -1
        for t in range(min(a, b), max(a, b)):
            e[i - 1], e[i] = t, a + b - 1 - t
            key = _trim(tuple(e))
            out[key] = out.get(key, 0) + sign * c
    return Poly(out)


def brute_quantum_covers(u: Permutation, k: int) -> list:
    """(u(i), (i, j), u t_ij) for each quantum k-cover, scanning i, then j.

    i <= k < j, u(i) > u(j), and every position strictly between i and j
    carries a value strictly between u(j) and u(i).
    """
    return [
        (u(i), (i, j), u.swap_positions(i, j))
        for i in range(1, k + 1)
        for j in range(k + 1, u.n + 1)
        if u(i) > u(j) and all(u(j) < u(l) < u(i) for l in range(i + 1, j))
    ]


def brute_q_covers(x: QElement, k: int) -> list:
    """The covers of q^alpha w in the order of ``q_up_covers``, rebuilt through
    the validating constructors, ``up_covers``, the scan above and q_ij."""
    n = x.w.n
    out = [
        (lab, QElement(x.alpha, Permutation(w.word))) for lab, w in up_covers(x.w, k)
    ]
    for lab, (i, j), w in brute_quantum_covers(x.w, k):
        alpha = tuple(a + b for a, b in zip(x.alpha, q_ij(i, j, n)))
        out.append((lab, QElement(alpha, Permutation(w.word))))
    return out


def monk_difference(alpha: tuple, word: tuple, m: int, quantum: bool) -> dict:
    """x_m times q^alpha word as {(alpha', word'): c}: Monk at k = m minus
    Monk at k = m - 1, each read off ``kbruhat._covers``; x_1 + ... + x_n
    acts as zero."""
    out: dict = {}
    for k, d in ((m, 1), (m - 1, -1)):
        if 1 <= k < len(word):
            for i, l, lifted in _covers(alpha, word, k, quantum):
                key = (lifted, _swapped(word, i, l))
                out[key] = out.get(key, 0) + d
    return {key: c for key, c in out.items() if c}


def exchange_walls(u: Permutation, w: Permutation, alpha: tuple, k: int) -> list:
    """Every wall where the descent exchange applies, by has_descent and varpi."""
    return [
        i
        for i in range(1, u.n)
        if varpi(alpha, i) == (2 if i == k else 1)
        and u.has_descent(i)
        and not w.has_descent(i)
    ]


def largest_wall_lr(query: QLRQuery) -> int:
    """``quantum_lr`` with the descent exchange taken at the largest
    qualifying wall instead of the smallest."""
    u, w, alpha, k = query.u, query.w, query.alpha, query.k
    while any(alpha):
        walls = exchange_walls(u, w, alpha, k)
        if not walls:
            return 0
        i = walls[-1]
        u, w = u.swap_positions(i, i + 1), w.swap_positions(i, i + 1)
        alpha = alpha[: i - 1] + (alpha[i - 1] - 1,) + alpha[i:]
    return schur_multiply(u, query.lam, k).coefficient(w)
