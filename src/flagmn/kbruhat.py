"""The k-Bruhat order on S_n: covers, intervals, chains, and minimality.

For a fixed k, a cover u -> w multiplies u on the right by a transposition
t_ij with i <= k < j, u(i) < u(j), and no position l strictly between i and j
carrying a value strictly between u(i) and u(j).  These are exactly the terms
of the degree-one product rule, and the edge u -> w is labeled by the value
u(i) that moves right.

An interval [u, w]_k is graded by length.  A chain is *peakless of height a*
when its label sequence strictly decreases to a unique minimum at step a and
strictly increases afterwards.

A permutation zeta is *minimal* when lrank(zeta) = #support(zeta) - (number
of nontrivial cycles), where lrank(zeta) = length(zeta u) - length(u) for any
witness pair u <=_k zeta u.  Minimality and lrank depend only on the shape of
zeta, and ``find_witness`` builds a witness from zeta's values, with no search.

Both orders run on kernels kept here, on one-line (alpha, word) tuples:
``_covers`` states the rule above and the quantum rule of ``qbruhat`` in
one scan, and ``_x_covers`` lists the covers of both kinds through one
position, the terms of x_m.  ``_walk`` goes up from a bottom through
``_covers``, and its top picks the ring: below a classical top every quantum
cover overshoots, so none is made.  ``interval`` here and ``q_interval`` and
``q_leq`` in ``qbruhat`` all read their answer off it, each passing
``_interval`` a builder for its elements.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from typing import Hashable, Iterable, Iterator, Sequence

from .perm import (
    Permutation,
    _check_k,
    _check_size,
    _swapped,
    het,
    identity,
)

__all__ = [
    "up_covers",
    "bruhat_leq",
    "leq_k",
    "LabeledPoset",
    "interval",
    "Chain",
    "chains",
    "peakless_height",
    "peakless_chain_counts",
    "find_witness",
    "lrank",
    "is_minimal",
    "peakless_count",
    "crossing",
]


def _covers(alpha: tuple[int, ...], word: tuple[int, ...], k: int, quantum: bool):
    """[(i, l, alpha')] for every cover q^alpha word -> q^alpha' word t_il.

    Both cover rules, stated once, in one scan right of each i < k (see the
    module docstrings here and in ``qbruhat``): a value above word[i] and
    below every value above it seen so far makes a classical cover, and a
    value below every value seen so far, before any value above word[i], a
    quantum one.  Classical covers come first and keep alpha itself;
    ``quantum`` switches the quantum covers on.
    """
    n = len(word)
    classical, raised = [], []
    for i in range(k):
        a = word[i]
        above = below = n + 1  # the smallest values above and below a so far
        for l in range(i + 1, n):
            v = word[l]
            if v > a:
                if v < above:
                    if l >= k:
                        classical.append((i, l, alpha))
                    above = v
                below = 0  # a value above a blocks every further quantum swap
            elif quantum and v < below:
                if l >= k:
                    raised.append((i, l, _raised(alpha, i, l)))
                below = v
    return classical + raised


def _x_covers(alpha: tuple[int, ...], word: tuple[int, ...], p: int, quantum: bool):
    """[(i, l, alpha', sign)] for every cover q^alpha word -> q^alpha' word t_il
    moving the 0-based position p, with sign 1 when i = p and -1 when l = p.

    By the quantum Monk rule (Fomin-Gelfand-Postnikov) these are the terms of
    x_{p+1}: of Monk at k = p + 1 minus Monk at k = p only the swaps through
    p survive.  The rightward scan is ``_covers``'s at i = p, and the
    leftward scan mirrors it.
    """
    n, a = len(word), word[p]
    out = []
    above = below = n + 1  # the smallest values above and below a seen so far
    for l in range(p + 1, n):
        v = word[l]
        if v > a:
            if v < above:
                out.append((p, l, alpha, 1))
                above = v
            below = 0  # a value above a blocks every further quantum swap
        elif quantum and v < below:
            out.append((p, l, _raised(alpha, p, l), 1))
            below = v
    below = above = 0  # the largest values below and above a seen so far
    for i in range(p - 1, -1, -1):
        v = word[i]
        if v < a:
            if v > below:
                out.append((i, p, alpha, -1))
                below = v
            above = n + 1  # a value below a blocks every further quantum swap
        elif quantum and v > above:
            out.append((i, p, _raised(alpha, i, p), -1))
            above = v
    return out


def _raised(alpha: tuple[int, ...], i: int, l: int) -> tuple[int, ...]:
    """alpha times q_{i+1,l+1}: one more q on each of the walls i+1..l."""
    out = list(alpha)
    out[i:l] = [a + 1 for a in alpha[i:l]]
    return tuple(out)


def up_covers(u: Permutation, k: int) -> list[tuple[int, Permutation]]:
    """All covers u -> w in the k-Bruhat order, as (label, w) pairs.

    The label is the value u(i) moving from the left block to the right.

    >>> [(lab, str(w)) for lab, w in up_covers(Permutation((1, 3, 2, 4)), 2)]
    [(1, '2314'), (3, '1423')]
    """
    word = u.word
    _check_k(len(word), k)
    return [
        (word[i], Permutation._trusted(_swapped(word, i, l)))
        for i, l, _alpha in _covers((), word, k, False)
    ]


def bruhat_leq(x: Permutation, w: Permutation) -> bool:
    """Strong Bruhat order via sorted-prefix dominance.

    x <= w iff for every i the sorted tuple of x(1..i) is entrywise at most
    the sorted tuple of w(1..i).  Nothing else in the package calls it, as
    ``leq_k`` has a closed form of its own.  It stays on purpose: it is public
    API, and the ``perfbench`` tracer rebinds it, so ``--trace 1`` needs it.
    """
    _check_size(x.n, w.n)
    xs: list[int] = []
    ws: list[int] = []
    for a, b in zip(x.word, w.word):
        bisect.insort(xs, a)
        bisect.insort(ws, b)
        if any(p > q for p, q in zip(xs, ws)):
            return False
    return True


def leq_k(u: Permutation, w: Permutation, k: int) -> bool:
    """Whether u <= w in the k-Bruhat order.

    Bergeron-Sottile's criterion (Duke 1998, Thm A): u <=_k w iff
    u(a) <= w(a) for every a <= k and u(b) >= w(b) for every b > k, and
    every pair a < b with u(a) < u(b) and w(a) > w(b) has a <= k < b.

    >>> u, w = Permutation((1, 3, 2, 4)), Permutation((1, 4, 2, 3))
    >>> leq_k(u, w, 2), leq_k(u, w, 1)
    (True, False)
    """
    _check_size(u.n, w.n)
    _check_k(u.n, k)
    x, y = u.word, w.word
    if any(p > q for p, q in zip(x[:k], y[:k])) or any(
        p < q for p, q in zip(x[k:], y[k:])
    ):
        return False
    # a pair that u orders and w inverts must straddle k: none within a block
    return not any(
        xs[a] < xs[b] and ys[a] > ys[b]
        for xs, ys in ((x[:k], y[:k]), (x[k:], y[k:]))
        for a, b in itertools.combinations(range(len(xs)), 2)
    )


# -- labeled graded posets ---------------------------------------------------


class LabeledPoset:
    """A graded interval with labeled cover edges.

    Elements are any hashable objects with a sensible str(); edges are
    (lower, label, upper) triples with rank(upper) = rank(lower) + 1.
    """

    __slots__ = ("bottom", "top", "elements", "edges", "rank_of")

    def __init__(self, bottom, top, elements: tuple, edges: tuple, rank_of: dict):
        self.bottom, self.top, self.elements = bottom, top, elements
        self.edges, self.rank_of = edges, rank_of

    def _fields(self) -> tuple:
        return (self.bottom, self.top, self.elements, self.edges, self.rank_of)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LabeledPoset) and self._fields() == other._fields()

    def __repr__(self) -> str:
        bottom, top, elements, edges, rank_of = self._fields()
        return f"LabeledPoset({bottom=}, {top=}, {elements=}, {edges=}, {rank_of=})"

    def __len__(self) -> int:
        return len(self.elements)

    def levels(self) -> dict[int, list]:
        out: dict[int, list] = {}
        for x in self.elements:
            out.setdefault(self.rank_of[x], []).append(x)
        return out

    def edge_labels(self) -> list:
        return sorted(lab for _x, lab, _y in self.edges)

    def to_dot(self) -> str:
        lines = ["digraph interval {", "  rankdir=BT;"]
        for x in self.elements:
            lines.append(f'  "{x}";')
        for x, lab, y in self.edges:
            lines.append(f'  "{x}" -> "{y}" [label="{lab}"];')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> str:
        import json
        return json.dumps(
            {
                "bottom": str(self.bottom),
                "top": str(self.top),
                "elements": [
                    {"element": str(x), "rank": self.rank_of[x]}
                    for x in self.elements
                ],
                "edges": [
                    {"from": str(x), "label": str(lab), "to": str(y)}
                    for x, lab, y in self.edges
                ],
            },
            indent=2,
        )


def _walk(bottom: tuple, top: tuple, steps: int, k: int) -> list[dict]:
    """The covers out of everything within ``steps`` levels above bottom.

    bottom and top are (alpha, word) pairs.  Returns one dict per level,
    0..steps, mapping each element reached there to its [(label, upper)]
    covers; the last level is not expanded.  A cover whose alpha exceeds
    top's on some wall can never come back below top, so it is dropped; a
    classical cover keeps its alpha, which already lies below top's, and
    below a classical top no quantum cover is generated at all.
    """
    cap = top[0]
    quantum = any(cap)
    levels = [{bottom: []}]
    for _ in range(steps):
        nxt: dict = {}
        for (alpha, word), ups in levels[-1].items():
            for i, l, lifted in _covers(alpha, word, k, quantum):
                if lifted is alpha or all(map(operator.le, lifted, cap)):
                    y = (lifted, _swapped(word, i, l))
                    ups.append((word[i], y))
                    nxt.setdefault(y, [])
        levels.append(nxt)
    return levels


def _interval(lo: tuple, hi: tuple, steps: int, k: int, element) -> LabeledPoset | None:
    """[lo, hi] as a labeled poset, from a walk of ``steps`` levels.

    lo and hi are (alpha, word) pairs, and ``element(alpha, w)`` builds the
    poset's element q^alpha w; only the elements on a saturated chain from
    lo to hi are built.  None when the walk does not reach hi.
    """
    levels = _walk(lo, hi, steps, k)
    if hi not in levels[-1]:
        return None
    # sweep back from hi, keeping the elements that have a kept cover
    kept = [{hi}]
    for level in reversed(levels[:-1]):
        above = kept[-1]
        kept.append(
            {x for x, ups in level.items() if any(y in above for _l, y in ups)}
        )
    kept.reverse()
    obj = {}
    rank_of = {}
    for r, keys in enumerate(kept):
        for key in keys:
            obj[key] = element(key[0], Permutation._trusted(key[1]))
            rank_of[obj[key]] = r
    elements = tuple(sorted(rank_of, key=lambda x: (rank_of[x], str(x))))
    edges = tuple(
        sorted(
            (
                (obj[x], lab, obj[y])
                for r, keys in enumerate(kept[:-1])
                for x in keys
                for lab, y in levels[r][x]
                if y in kept[r + 1]
            ),
            key=lambda e: (rank_of[e[0]], str(e[0]), str(e[1])),
        )
    )
    return LabeledPoset(obj[lo], obj[hi], elements, edges, rank_of)


def interval(u: Permutation, w: Permutation, k: int) -> LabeledPoset:
    """The interval [u, w]_k as a labeled graded poset.

    Raises ValueError when u is not below w in the k-Bruhat order.
    """
    if not leq_k(u, w, k):  # fails fast, before the walk fills every level
        raise ValueError(f"{u} is not below {w} in the {k}-Bruhat order")
    zero = (0,) * (u.n - 1)
    return _interval(
        (zero, u.word), (zero, w.word), w.length - u.length, k, lambda _a, x: x
    )


class Chain:
    """A saturated chain: elements[0] -> ... -> elements[-1], labels[i] on step i."""

    __slots__ = ("elements", "labels")

    def __init__(self, elements: tuple, labels: tuple):
        self.elements, self.labels = elements, labels

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, Chain) and self.elements == other.elements
        return same and self.labels == other.labels

    def __hash__(self) -> int:
        return hash((self.elements, self.labels))

    def __repr__(self) -> str:
        return f"Chain(elements={self.elements!r}, labels={self.labels!r})"

    def __len__(self) -> int:
        return len(self.labels)


def chains(u: Permutation, w: Permutation, k: int) -> Iterator[Chain]:
    """All saturated chains of [u, w]_k, in ``poset_chains`` order; the
    interval is built, and bad arguments refused, at the call."""
    return poset_chains(interval(u, w, k))


def poset_chains(poset: LabeledPoset) -> Iterator[Chain]:
    """All saturated chains from bottom to top, depth first, taking each
    element's covers by (label, str(cover)): not label-sorted, since
    [1243, 3412]_2 yields (2, 3, 1) via 1342 before (2, 1, 2) via 1423."""
    adj: dict[Hashable, list[tuple[Hashable, Hashable]]] = {}
    for x, lab, y in poset.edges:
        adj.setdefault(x, []).append((lab, y))
    for pairs in adj.values():
        pairs.sort(key=lambda p: (p[0], str(p[1])))

    def walk(x, elems, labs):
        if x == poset.top:
            yield Chain(tuple(elems), tuple(labs))
            return
        for lab, y in adj.get(x, ()):
            yield from walk(y, elems + [y], labs + [lab])

    yield from walk(poset.bottom, [poset.bottom], [])


def peakless_height(labels: Sequence[int]) -> int | None:
    """The height of a peakless label sequence, or None if it has a peak.

    Peakless of height a: strictly decreasing through the a-th label, which is
    the unique minimum, then strictly increasing.

    >>> peakless_height((6, 3, 1, 3))
    3
    >>> peakless_height((2, 5, 3)) is None
    True
    """
    if not labels:
        return None
    a = min(range(len(labels)), key=lambda i: labels[i])
    if labels.count(labels[a]) != 1:
        return None
    down = all(labels[i] > labels[i + 1] for i in range(a))
    up = all(labels[i] < labels[i + 1] for i in range(a, len(labels) - 1))
    return a + 1 if down and up else None


def peakless_chain_counts(
    u: Permutation, w: Permutation, k: int
) -> dict[int, int]:
    """Number of peakless chains of [u, w]_k by height."""
    counts: dict[int, int] = {}
    for chain in chains(u, w, k):
        height = peakless_height(chain.labels)
        if height is not None:
            counts[height] = counts.get(height, 0) + 1
    return counts


# -- minimality ---------------------------------------------------------------


def find_witness(zeta: Permutation) -> tuple[Permutation, int]:
    """A witness (u, k) with u <=_k zeta u, built from zeta's values.

    u lists the values zeta raises, then those it lowers, each decreasing,
    then its fixed points increasing; k counts the raised values.  ``leq_k``
    accepts it: values rise on the left block and not on the right, and u
    orders inside a block only two fixed points, or a lowered v before a
    larger fixed point x, which zeta u keeps in order: zeta(v) < v < x.

    >>> u, k = find_witness(Permutation((3, 1, 2, 4)))
    >>> str(u), k
    ('1324', 1)
    """
    if zeta.is_identity():
        return identity(max(zeta.n, 2)), 1
    down = range(zeta.n, 0, -1)
    raised = [v for v in down if zeta(v) > v]
    lowered = [v for v in down if zeta(v) < v]
    fixed = [v for v in range(1, zeta.n + 1) if zeta(v) == v]
    return Permutation._trusted(tuple(raised + lowered + fixed)), len(raised)


def lrank(zeta: Permutation) -> int:
    """length(zeta u) - length(u) for a witness u <=_k zeta u.

    Independent of the witness; depends only on the flattened shape.
    """
    if zeta.is_identity():
        return 0
    u, _k = find_witness(zeta)
    return (zeta * u).length - u.length


def is_minimal(zeta: Permutation) -> bool:
    """Whether lrank(zeta) equals #support - #cycles, its smallest possible value."""
    return lrank(zeta) == len(zeta.support()) - zeta.num_cycles()


def peakless_count(zeta: Permutation, a: int) -> int:
    """Peakless chains of height a in [u, zeta u]_k for minimal zeta and any witness.

    Equal to C(s - 1, het - a) with s the number of nontrivial cycles of zeta;
    zero when a is out of range.
    """
    return _peakless_binomial(zeta.num_cycles(), het(zeta), a)


def _peakless_binomial(s: int, h: int, a: int) -> int:
    # C(s - 1, h - a), or 0 outside 0 <= h - a <= s - 1
    if s == 0 or not 0 <= h - a <= s - 1:
        return 0
    return math.comb(s - 1, h - a)


# -- crossing supports ---------------------------------------------------------


def crossing(a_supp: Iterable[int], b_supp: Iterable[int]) -> bool:
    """Whether two disjoint supports interleave: l1 < m1 < l2 < m2 across the two sets.

    Read around the circle 1..n, the sets change places twice when each is
    one arc and more often when they interleave, so a cyclic relabelling,
    which turns the circle, keeps the answer.

    >>> crossing({1, 3}, {2, 4})
    True
    >>> crossing({1, 4}, {2, 3})
    False
    """
    marked = sorted([(v, 0) for v in a_supp] + [(v, 1) for v in b_supp])
    sides = [side for _v, side in marked]
    return sum(map(operator.ne, sides, sides[1:] + sides[:1])) > 2
