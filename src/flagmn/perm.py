"""Permutations in one-line notation, and the small combinatorics built on them.

Conventions used throughout the package:

- A permutation u of {1, ..., n} is stored as the tuple (u(1), ..., u(n)),
  1-indexed everywhere.
- Composition is (u * v)(i) = u(v(i)), so the right factor acts first.
- ``u.swap_positions(i, j)`` is u with positions i, j exchanged, i.e. u * t_ij;
  ``u.swap_values(a, b)`` exchanges the values a, b, i.e. t_ab * u.
- ``length`` is the number of inversions, the rank function of the weak and
  strong Bruhat orders alike.
- Partitions are weakly decreasing tuples of positive integers (no trailing
  zeros); the hook with a rows and arm b is (b, 1, ..., 1).

Permutations print as a digit string when n <= 9 ("68235741") and
comma-separated otherwise.
"""

from __future__ import annotations

import itertools
import operator
import re
from typing import Iterable, Iterator

__all__ = [
    "Permutation",
    "identity",
    "longest_element",
    "cyclic_shift",
    "from_cycles",
    "from_code",
    "parse_permutation",
    "flatten",
    "flatten_cycles",
    "het",
    "hook_partition",
    "is_hook",
    "partitions",
    "fits_rectangle",
    "grassmannian",
    "grassmannian_shape",
    "all_permutations",
]


class _Record:
    """A plain value object: its ``__slots__`` are its fields.

    Equality is type-strict and compares the fields, hashing hashes them (so
    a record with a dict field is unhashable), and the repr is the keyword
    call ``Name(field=..., ...)`` in slot order.  A subclass that adds no
    slots keeps its parent's fields.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:
            cls._field_names = cls.__slots__
            # one field comes back bare, several as a tuple
            cls._fields = staticmethod(operator.attrgetter(*cls.__slots__))

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._field_names)
        return f"{type(self).__name__}({body})"


class Permutation:
    """An element of some finite symmetric group S_n.

    >>> u = Permutation((3, 2, 1, 7, 4, 6, 5))
    >>> u(1), u(4)
    (3, 7)
    >>> u.length
    7
    >>> str(u)
    '3217465'
    """

    __slots__ = ("word", "_hash")

    def __init__(self, word: Iterable[int]):
        word = tuple(word)
        n = len(word)
        if sorted(word) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {word!r}")
        self.word = word
        self._hash = hash(word)

    @classmethod
    def _trusted(cls, word: tuple[int, ...]) -> "Permutation":
        """Wrap a tuple already known to be a permutation, without the check."""
        self = object.__new__(cls)
        self.word, self._hash = word, hash(word)
        return self

    # -- basic protocol ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        return self.word[_index(i, self.n, "position")]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Permutation") -> bool:
        # lexicographic on one-line words; perfbench/workloads.py sorts the
        # Permutation keys of poly_product results with it
        return self.word < other.word

    def __repr__(self) -> str:
        return f"Permutation({self.word!r})"

    def __str__(self) -> str:
        if self.n <= 9:
            return "".join(str(v) for v in self.word)
        return ",".join(str(v) for v in self.word)

    # -- group structure ---------------------------------------------------

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition, right factor first: (u * v)(i) = u(v(i)).

        >>> zeta = from_cycles([(1, 7, 4), (3, 6)], 7)
        >>> u = Permutation((3, 2, 1, 7, 4, 6, 5))
        >>> str(zeta * u)
        '6274135'
        """
        _check_size(self.n, other.n)
        w = self.word
        return Permutation._trusted(tuple(w[v - 1] for v in other.word))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.word):
            inv[v - 1] = i + 1
        return Permutation._trusted(tuple(inv))

    def position(self, value: int) -> int:
        """The position holding ``value``: u(position(v)) = v."""
        _index(value, self.n, "value")
        return self.word.index(value) + 1

    def swap_positions(self, i: int, j: int) -> "Permutation":
        i, j = _index(i, self.n, "position"), _index(j, self.n, "position")
        return Permutation._trusted(_swapped(self.word, i, j))

    def swap_values(self, a: int, b: int) -> "Permutation":
        return Permutation(
            tuple(b if v == a else a if v == b else v for v in self.word)
        )

    # -- statistics ----------------------------------------------------------

    @property
    def length(self) -> int:
        """Number of inversions #{i < j : u(i) > u(j)}."""
        w = self.word
        return sum(
            1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j]
        )

    def has_descent(self, i: int) -> bool:
        """True when u(i) > u(i+1), for 1 <= i <= n-1."""
        j = _index(i, self.n - 1, "descent position")
        return self.word[j] > self.word[j + 1]

    def descents(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n) if self.has_descent(i))

    def code(self) -> tuple[int, ...]:
        """Lehmer code: c_i = #{j > i : u(j) < u(i)}.

        >>> Permutation((2, 1, 4, 3)).code()
        (1, 0, 1, 0)
        """
        w = self.word
        return tuple(
            sum(1 for j in range(i + 1, len(w)) if w[j] < w[i])
            for i in range(len(w))
        )

    def support(self) -> frozenset[int]:
        """Values moved: {i : u(i) != i}."""
        return frozenset(i + 1 for i, v in enumerate(self.word) if v != i + 1)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its minimum, sorted by minimum.

        >>> from_cycles([(2, 3, 5, 7, 4)], 8).cycles()
        ((2, 3, 5, 7, 4),)
        """
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen or self(start) == start:
                continue
            cyc = [start]
            seen.add(start)
            v = self(start)
            while v != start:
                cyc.append(v)
                seen.add(v)
                v = self(v)
            out.append(tuple(cyc))
        return tuple(sorted(out))

    def num_cycles(self) -> int:
        """Number of nontrivial cycles."""
        return len(self.cycles())

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.word))

    # -- resizing ------------------------------------------------------------

    def extend(self, n: int) -> "Permutation":
        """The same permutation inside S_n (fixing n' < i <= n)."""
        if n < self.n:
            raise ValueError("extend() cannot shrink; use trim()")
        if n == self.n:
            return self
        return Permutation(self.word + tuple(range(self.n + 1, n + 1)))

    def trim(self) -> "Permutation":
        """Drop trailing fixed points (keeping at least one letter)."""
        w = self.word
        m = len(w)
        while m > 1 and w[m - 1] == m:
            m -= 1
        return self if m == len(w) else Permutation(w[:m])


def _index(i: int, n: int, what: str) -> int:
    """The 0-based index of a 1-based ``what`` i, which must lie in 1..n."""
    if not 1 <= i <= n:
        raise ValueError(f"{what} must be in 1..{n}, got {i}")
    return i - 1


def _check_k(n: int, k: int) -> None:
    """The k-range rule of every k-Bruhat function on S_n: 1 <= k <= n - 1."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in 1..{n - 1}, got {k}")


def _check_size(m: int, n: int) -> None:
    """The size rule of every function taking two arguments that share S_n."""
    if m != n:
        raise ValueError(f"size mismatch: S_{m} and S_{n}")


def _check_partition(lam: tuple[int, ...]) -> tuple[int, ...]:
    """The partition rule: weakly decreasing, no part negative; drops the zeros."""
    if any(v < 0 for v in lam) or any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"not a partition: {lam!r}")
    return tuple(v for v in lam if v)


def _check_shape(lam: tuple[int, ...], k: int, n: int) -> tuple[int, ...]:
    """The shape rule at k on S_n: lam is a partition inside k x (n - k)."""
    _check_k(n, k)
    lam = _check_partition(lam)
    if not fits_rectangle(lam, k, n - k):
        raise ValueError(f"shape {lam} does not fit in the {k} x {n - k} rectangle")
    return lam


def _check_hook(a: int, b: int, k: int, n: int) -> tuple[int, ...]:
    """The shape rule for the hook (b, 1^(a-1)); returns the hook."""
    _check_k(n, k)
    # cut to n rows, the hook is refused exactly when the whole one is, and a
    # huge a is refused without building its a rows
    cut = hook_partition(min(a, n), b)
    try:
        return _check_shape(cut, k, n)
    except ValueError as err:
        raise ValueError(f"hook a={a}, b={b}: {err}") from None


def _swapped(word: tuple[int, ...], i: int, l: int) -> tuple[int, ...]:
    """``word`` with the 0-based positions i and l exchanged."""
    w = list(word)
    w[i], w[l] = w[l], w[i]
    return tuple(w)


def identity(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


def longest_element(n: int) -> Permutation:
    """w_0 in S_n, i.e. i -> n + 1 - i."""
    return Permutation(range(n, 0, -1))


def cyclic_shift(n: int) -> Permutation:
    """The n-cycle (1, 2, ..., n) mapping i to i + 1 (and n to 1)."""
    return from_cycles([tuple(range(1, n + 1))], n)


def from_cycles(cycles: Iterable[Iterable[int]], n: int) -> Permutation:
    """Build a permutation of S_n from disjoint cycles.

    >>> str(from_cycles([(1, 7, 4), (3, 6)], 7))
    '7261534'
    """
    w = list(range(1, n + 1))
    seen: set[int] = set()
    for cyc in cycles:
        cyc = tuple(cyc)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if a in seen or not 1 <= a <= n:
                raise ValueError(f"bad cycle entry {a}")
            seen.add(a)
            w[a - 1] = b
    return Permutation(w)


def from_code(code: Iterable[int], n: int | None = None) -> Permutation:
    """Inverse of :meth:`Permutation.code`.

    Any tuple of nonnegative integers is the code of a unique permutation
    once the ambient n is at least max(i + c_i).

    >>> str(from_code((1, 0, 1, 0)))
    '2143'
    """
    code = tuple(code)
    if any(c < 0 for c in code):
        raise ValueError(f"code {code!r} has a negative entry")
    need = max((i + 1 + c for i, c in enumerate(code) if c > 0), default=1)
    if n is None:
        n = max(need, len(code))
    if n < need:
        raise ValueError(f"code {code!r} needs n >= {need}")
    avail = list(range(1, n + 1))
    w = []
    for i in range(n):
        c = code[i] if i < len(code) else 0
        w.append(avail.pop(c))
    return Permutation(w)


_CYCLE_RE = re.compile(r"\(\s*([0-9,\s]+?)\s*\)")


def parse_permutation(text: str, n: int | None = None) -> Permutation:
    """Parse '68235741', '6,8,2,3,5,7,4,1' or cycles '(2,3,5,7,4)' (needs n).

    >>> parse_permutation("(1,7,4)(3,6)", n=7) == from_cycles([(1, 7, 4), (3, 6)], 7)
    True
    """
    given, text = text, text.strip()
    if not text:
        raise ValueError(f"no permutation in {given!r}")
    if text.startswith("("):
        if n is None:
            raise ValueError("cycle notation needs an explicit n")
        leftover = _CYCLE_RE.sub(" ", text).split()
        if leftover:
            raise ValueError(f"cannot parse {' '.join(leftover)!r} in cycles {text!r}")
        cycles = [
            tuple(int(x) for x in m.group(1).replace(",", " ").split())
            for m in _CYCLE_RE.finditer(text)
        ]
        return from_cycles(cycles, n)
    try:
        word = tuple(map(int, text.split(",") if "," in text else text))
    except ValueError:
        raise ValueError(f"cannot parse {given!r} as a permutation") from None
    u = Permutation(word)
    return u if n is None else u.extend(n)


# -- shape of a permutation ----------------------------------------------------


def flatten(values: Iterable[int]) -> tuple[int, ...]:
    """Replace each entry by its rank among the distinct entries (from 1).

    >>> flatten((3, 6, 1, 6, 8, 3, 1))
    (2, 3, 1, 3, 4, 2, 1)
    """
    values = tuple(values)
    rank = {v: i + 1 for i, v in enumerate(sorted(set(values)))}
    return tuple(rank[v] for v in values)


def flatten_cycles(zeta: Permutation) -> Permutation:
    """The shape of zeta: restrict to its support and relabel order-preservingly.

    >>> str(flatten_cycles(from_cycles([(2, 3, 5, 7, 4)], 8)))
    '24153'
    """
    supp = sorted(zeta.support())
    if not supp:
        return identity(1)
    rank = {v: i + 1 for i, v in enumerate(supp)}
    return Permutation(tuple(rank[zeta(v)] for v in supp))


def het(zeta: Permutation) -> int:
    """#{i : i < zeta(i)}, the number of rising values.

    >>> het(from_cycles([(2, 3, 5, 7, 4)], 8))
    3
    """
    return sum(1 for i, v in enumerate(zeta.word) if v > i + 1)


# -- partitions ------------------------------------------------------------


def hook_partition(a: int, b: int) -> tuple[int, ...]:
    """The hook with a rows and first row b: (b, 1^(a-1)).

    >>> hook_partition(3, 4)
    (4, 1, 1)
    """
    if a < 1 or b < 1:
        raise ValueError(f"hook needs a >= 1 and b >= 1, got a={a}, b={b}")
    return (b,) + (1,) * (a - 1)


def is_hook(lam: tuple[int, ...]) -> bool:
    return len(lam) <= 1 or all(part == 1 for part in lam[1:])


def partitions(
    total: int, max_part: int | None = None, max_parts: int | None = None
) -> Iterator[tuple[int, ...]]:
    """All partitions of ``total``, largest part first, lexicographically decreasing.

    >>> list(partitions(4, max_parts=2))
    [(4,), (3, 1), (2, 2)]
    """
    if max_part is None:
        max_part = total
    if max_parts is None:
        max_parts = total
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in partitions(total - first, first, max_parts - 1):
            yield (first,) + rest


def fits_rectangle(lam: tuple[int, ...], rows: int, cols: int) -> bool:
    """Whether lam fits in the rows x cols rectangle."""
    return len(lam) <= rows and (not lam or lam[0] <= cols)


def grassmannian(lam: tuple[int, ...], k: int, n: int) -> Permutation:
    """The unique permutation with descent set within {k} and shape lam.

    Explicitly w(k + 1 - i) = lam_i + (k + 1 - i) for i <= k (lam padded by
    zeros), with the remaining values in increasing order after position k.

    >>> str(grassmannian((3, 1, 0), 3, 7))
    '1362457'
    >>> str(grassmannian((1,), 4, 7))
    '1235467'
    """
    lam = _check_shape(lam, k, n)
    padded = lam + (0,) * (k - len(lam))
    first = [padded[k - j] + j for j in range(1, k + 1)]
    rest = sorted(set(range(1, n + 1)) - set(first))
    return Permutation(first + rest)


def grassmannian_shape(w: Permutation, k: int) -> tuple[int, ...]:
    """Inverse of :func:`grassmannian`: the partition of a k-Grassmannian permutation.

    >>> grassmannian_shape(grassmannian((3, 1), 3, 7), 3)
    (3, 1)
    """
    _check_k(w.n, k)
    bad = [d for d in w.descents() if d != k]
    if bad:
        raise ValueError(f"{w} has descents {bad} away from {k}")
    lam = tuple(w(k + 1 - i) - (k + 1 - i) for i in range(1, k + 1))
    return tuple(v for v in lam if v != 0)


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic one-line order."""
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation(word)
