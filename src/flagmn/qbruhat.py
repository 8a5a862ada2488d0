"""The quantum k-Bruhat order on S_n[q] = {q^alpha u}.

Covers come in two kinds, both raising the rank
rank(q^alpha u) = 2 deg(alpha) + length(u) by one:

- classical: u -> u t_ij with i <= k < j, u(i) < u(j), and no value between
  u(i) and u(j) at a position between i and j (alpha unchanged);
- quantum: u -> q_{i,j} u t_ij with i <= k < j, u(i) > u(j), and every
  position strictly between i and j carrying a value strictly between u(j)
  and u(i); here q_{i,j} = q_i q_{i+1} ... q_{j-1}.

Both edges are labeled by the value u(i) at the left swap position.

Exponent vectors alpha live on the walls 1..n-1 and are stored as tuples of
length n-1.  An interval [u, q^alpha w]_k^q is *minimal* when its rank
difference equals #supp(w u^{-1}) - s(w u^{-1}).

Both cover rules run as kernels in ``kbruhat``, and ``q_interval`` and
``q_leq`` read their answer off the same walk that builds the classical
``interval`` there; the classical interval is its alpha = 0 slice.
"""

from __future__ import annotations

import re
from typing import Iterator

from .kbruhat import (
    Chain,
    LabeledPoset,
    _interval,
    _quantum_swaps,
    _raised,
    _walk,
    poset_chains,
    up_covers,
)
from .perm import Permutation, _check_k, _check_size, _swapped, parse_permutation

__all__ = [
    "QElement",
    "q_ij",
    "q_up_covers",
    "q_interval",
    "q_leq",
    "q_chains",
    "is_minimal_interval",
    "parse_qelement",
]


def q_ij(i: int, j: int, n: int) -> tuple[int, ...]:
    """Exponent tuple of q_{i,j} = q_i q_{i+1} ... q_{j-1} on the walls of S_n.

    >>> q_ij(2, 4, 5)
    (0, 1, 1, 0)
    """
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j}) in S_{n}")
    return tuple(1 if i <= wall < j else 0 for wall in range(1, n))


class QElement:
    """q^alpha w, an element of S_n[q].

    >>> x = QElement((0, 1, 1, 0, 0, 0, 0), parse_permutation("68235741"))
    >>> x.rank
    22
    >>> str(QElement((0, 0, 0), parse_permutation("1432")))
    '1432'
    """

    __slots__ = ("alpha", "w", "_hash")

    def __init__(self, alpha: tuple[int, ...], w: Permutation):
        alpha = tuple(alpha)
        if len(alpha) != w.n - 1:
            raise ValueError(
                f"alpha has {len(alpha)} walls, expected {w.n - 1}"
            )
        if any(a < 0 for a in alpha):
            raise ValueError(f"negative exponent in {alpha!r}")
        self.alpha = alpha
        self.w = w
        self._hash = hash((alpha, w.word))

    @classmethod
    def _trusted(cls, alpha: tuple[int, ...], w: Permutation) -> "QElement":
        """q^alpha w from a tuple already known to fit w, without the checks."""
        self = object.__new__(cls)
        self.alpha, self.w, self._hash = alpha, w, hash((alpha, w.word))
        return self

    @property
    def rank(self) -> int:
        return 2 * sum(self.alpha) + self.w.length

    @property
    def degree(self) -> int:
        return sum(self.alpha)

    def is_classical(self) -> bool:
        return not any(self.alpha)

    def sort_key(self):
        return (self.degree, self.alpha, self.w.word)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QElement)
            and self.alpha == other.alpha
            and self.w == other.w
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self.is_classical():
            return str(self.w)
        exps = ",".join(str(a) for a in self.alpha)
        return f"q^({exps}) {self.w}"

    def __repr__(self) -> str:
        return f"QElement({self.alpha!r}, {self.w!r})"


def q_up_covers(x: QElement, k: int) -> list[tuple[int, QElement]]:
    """All covers of x in the quantum k-Bruhat order, as (label, element) pairs.

    >>> x = QElement((0, 0, 0), Permutation((1, 4, 3, 2)))
    >>> [(lab, str(y)) for lab, y in q_up_covers(x, 2)]
    [(1, '3412'), (1, '2431'), (4, 'q^(0,1,0) 1342'), (4, 'q^(0,1,1) 1234')]
    """
    out = [(lab, QElement._trusted(x.alpha, w)) for lab, w in up_covers(x.w, k)]
    word = x.w.word
    for i, l in _quantum_swaps(word, k):
        w = Permutation._trusted(_swapped(word, i, l))
        out.append((word[i], QElement._trusted(_raised(x.alpha, i, l), w)))
    return out


def _ends(u: Permutation, t: QElement, k: int) -> tuple[tuple, tuple]:
    """The (alpha, word) ends of a walk from u up to t, once u, t and k fit."""
    _check_size(u.n, t.w.n)
    _check_k(u.n, k)
    return ((0,) * (u.n - 1), u.word), (t.alpha, t.w.word)


def q_interval(u: Permutation, t: QElement, k: int) -> LabeledPoset:
    """The interval [u, t]_k^q as a labeled graded poset.

    Raises ValueError when u is not below t.
    """
    poset = _interval(*_ends(u, t, k), t.rank - u.length, k, QElement._trusted)
    if poset is None:
        raise ValueError(f"{u} is not below {t} in the quantum {k}-Bruhat order")
    return poset


def q_leq(u: Permutation, t: QElement, k: int) -> bool:
    """Whether u <= t in the quantum k-Bruhat order."""
    bottom, top = _ends(u, t, k)
    return top in _walk(bottom, top, t.rank - u.length, k)[-1]


def q_chains(u: Permutation, t: QElement, k: int) -> Iterator[Chain]:
    """All saturated chains of [u, t]_k^q, in ``poset_chains`` order; the
    interval is built, and bad arguments refused, at the call."""
    return poset_chains(q_interval(u, t, k))


def is_minimal_interval(u: Permutation, t: QElement, k: int) -> bool:
    """Whether rank(t) - rank(u) equals #supp(w u^{-1}) - s(w u^{-1}).

    Raises ValueError when u is not below t in the quantum k-Bruhat order.
    """
    if not q_leq(u, t, k):
        raise ValueError(
            f"{u} is not below {t} in the quantum {k}-Bruhat order"
        )
    zeta = t.w * u.inverse()
    want = len(zeta.support()) - zeta.num_cycles()
    return t.rank - u.length == want


_Q_TOKEN = re.compile(
    r"q\^\(\s*([0-9,\s-]+?)\s*\)|q_\{(\d+),\s*(\d+)\}|q_(\d+)|q(\d)"
)


def parse_qelement(text: str, n: int) -> QElement:
    """Parse 'q^(0,1,1) 1234', 'q_{2,4} 1234', 'q_2 q_3 1234' or plain '1234'.

    A one-line permutation part must lie in S_n itself: it is not extended.

    >>> str(parse_qelement("q_{3,5}52134", 5))
    'q^(0,0,1,1) 52134'
    """
    rest = text.strip()
    alpha = [0] * (n - 1)
    while True:
        m = _Q_TOKEN.match(rest)
        if not m:
            break
        if m.group(1) is not None:
            exps = [int(x) for x in m.group(1).replace(",", " ").split()]
            if len(exps) != n - 1:
                raise ValueError(
                    f"q^(...) needs {n - 1} exponents, got {len(exps)}"
                )
            alpha = [a + b for a, b in zip(alpha, exps)]
        elif m.group(2) is not None:
            for wall, e in enumerate(q_ij(int(m.group(2)), int(m.group(3)), n), 1):
                alpha[wall - 1] += e
        else:
            wall = int(m.group(4) if m.group(4) is not None else m.group(5))
            if not 1 <= wall <= n - 1:
                raise ValueError(f"wall {wall} out of range for S_{n}")
            alpha[wall - 1] += 1
        rest = rest[m.end():].lstrip(" *")
    if not rest:
        raise ValueError(f"no permutation part in {text!r}")
    w = parse_permutation(rest, n if rest.startswith("(") else None)
    _check_size(n, w.n)
    return QElement(tuple(alpha), w)
