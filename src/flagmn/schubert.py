"""Schubert polynomials and products in the cohomology of the flag manifold.

The classical and the quantum products share one engine, written once here.
It runs on one-line (alpha, word) tuples through the cover kernels
``kbruhat._covers`` and ``kbruhat._x_covers`` and builds objects only for
the terms it returns; the classical ring never walks a quantum edge, so its
alpha stays 0.  The
minimal-interval rule walks only minimal prefixes, and the Schur loop over
monomials shares the x_m steps of common prefixes.  The minimal-interval
rule is checked by routes that do not use it: ``hook_multiply_chains`` sums
peakless chains of height a and length a + b - 1 for the hook (b, 1^(a-1)),
``poly_product`` multiplies polynomials honestly and expands the result in
the Schubert basis, and ``qschubert`` has ``fgp_product`` and
``ll_reduce_product``.

Schubert polynomials are computed by the transition recursion: with r the
last descent of w and s the last position past r with w(s) < w(r), setting
v = w t_rs gives

    S_w = x_r S_v + sum of S_{v t_ir} over the covers v -> v t_ir with i < r.

Everything is exact integer arithmetic on sparse exponent dictionaries;
exponent keys are tuples with trailing zeros stripped.

``Expansion`` is a formal ZZ-linear combination of basis classes q^alpha w;
classical results simply carry alpha = 0.  By Monk's rule and its quantum
form (Fomin-Gelfand-Postnikov), x_m in the quotient presentation of H*Fl_n
adds the covers swapping position m with a later one and subtracts those
swapping it with an earlier one; ``schur_multiply`` multiplies by general
Schur polynomials through these x_m steps.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable

from .kbruhat import _covers, _peakless_binomial, _x_covers
from .perm import (
    Permutation,
    _Record,
    _check_hook,
    _check_k,
    _check_partition,
    _check_size,
    _swapped,
    from_code,
    grassmannian,
)
from .qbruhat import QElement

__all__ = [
    "Poly",
    "schubert_poly",
    "schur_poly",
    "expand_in_schubert",
    "Expansion",
    "monk_multiply",
    "x_times",
    "schur_multiply",
    "hook_multiply_chains",
    "hook_multiply_minimal",
    "powersum_multiply",
    "poly_product",
]


def _trim(exps: tuple[int, ...]) -> tuple[int, ...]:
    m = len(exps)
    while m and exps[m - 1] == 0:
        m -= 1
    return exps[:m]


def _padded_sum(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    return tuple(x + y for x, y in zip(a, b + (0,) * (len(a) - len(b))))


def _names(v: str, exps: tuple[int, ...]) -> list[str]:
    """The printed factors of the monomial v^exps, such as x1 and x2^3."""
    return [f"{v}{i}^{e}" if e > 1 else f"{v}{i}" for i, e in enumerate(exps, 1) if e]


class _SparsePoly(_Record):
    """Sparse integer polynomial: a dict from exponent keys to nonzero coefficients.

    A subclass fixes its key rules: ``_trim_key`` strips a key's trailing
    zeros, ``_mul_keys`` multiplies two keys, ``_ONE`` is the key of 1 and
    ``_key_names`` lists the variables a key prints as.  Equality is
    type-strict, so polynomials of different subclasses never compare equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        out: dict = {}
        for key, c in (terms or {}).items():
            key = self._trim_key(key)  # keys equal up to trailing zeros add up
            out[key] = out.get(key, 0) + c
        self.terms = {key: c for key, c in out.items() if c}

    @classmethod
    def _trusted(cls, terms: dict):
        """A polynomial from keys already trimmed, without trimming them again."""
        self = object.__new__(cls)
        self.terms = {key: c for key, c in terms.items() if c}
        return self

    @classmethod
    def one(cls):
        return cls({cls._ONE: 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return self._trusted(out)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._trusted({key: c * other for key, c in self.terms.items()})
        mul = self._mul_keys
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = mul(k1, k2)  # trimmed keys multiply to a trimmed key
                out[key] = out.get(key, 0) + c1 * c2
        return self._trusted(out)

    __rmul__ = __mul__

    def monomials(self) -> list:
        return sorted(self.terms.items())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, c in self.monomials():
            body = "*".join(self._key_names(key))
            if not body:
                parts.append(f"{c:+d}")
            elif c in (1, -1):
                parts.append(f"{c:+d}"[0] + body)  # +x1, not +1*x1
            else:
                parts.append(f"{c:+d}*{body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.terms!r})"


class Poly(_SparsePoly):
    """Sparse integer polynomial in x_1, x_2, ... with tuple exponent keys."""

    __slots__ = ()
    _trim_key = staticmethod(_trim)
    _mul_keys = staticmethod(_padded_sum)
    _ONE = ()
    _key_names = staticmethod(lambda exps: _names("x", exps))

    @classmethod
    def x(cls, i: int) -> "Poly":
        return cls({(0,) * (i - 1) + (1,): 1})

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def coefficient(self, exps: tuple[int, ...]) -> int:
        return self.terms.get(_trim(tuple(exps)), 0)


@lru_cache(maxsize=None)
def _schubert_cached(word: tuple[int, ...]) -> Poly:
    w = Permutation(word)
    des = w.descents()
    if not des:
        return Poly.one()
    r = des[-1]
    s = max(j for j in range(r + 1, w.n + 1) if w(j) < w(r))
    v = w.swap_positions(r, s)
    p = _schubert_cached(v.trim().word) * Poly.x(r)
    # the transition terms: the (r-1)-Bruhat covers of v moving position r
    for i, l, _alpha in _covers((), v.word, r - 1, False):
        if l == r - 1:
            p = p + _schubert_cached(v.swap_positions(i + 1, r).trim().word)
    return p


def schubert_poly(w: Permutation) -> Poly:
    """The Schubert polynomial of w (stable under extending w by fixed points)."""
    return _schubert_cached(w.trim().word)


def schur_poly(lam: tuple[int, ...], k: int) -> Poly:
    """s_lambda(x_1, ..., x_k), via the Grassmannian Schubert polynomial.

    k = 0 is allowed (s_() = 1, every other s_lambda = 0); a negative k is not.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    lam = _check_partition(lam)
    if not lam:
        return Poly.one()
    if len(lam) > k:
        return Poly()
    return schubert_poly(grassmannian(lam, k, k + lam[0]))


@lru_cache(maxsize=1024)
def _code_perm(code: tuple[int, ...]) -> Permutation:
    """The trimmed permutation whose code is ``code``."""
    return from_code(code).trim()


def expand_in_schubert(p: Poly) -> dict[Permutation, int]:
    """Write p as an integer combination of Schubert polynomials.

    Repeatedly strips the lexicographically smallest monomial x^c, which can
    only be the leading monomial x^code(w) of the Schubert polynomial with
    code c.  The remainder is one plain dict, updated in place at each
    pivot.  Permutation keys are trimmed.
    """
    rem = dict(p.terms)
    out: dict[Permutation, int] = {}
    for _ in range(1_000_000):
        if not rem:
            return out
        mono = min(rem)
        coeff = rem[mono]
        w = _code_perm(mono)
        out[w] = coeff
        for e, c in schubert_poly(w).terms.items():
            left = rem.get(e, 0) - coeff * c
            if left:
                rem[e] = left
            else:
                del rem[e]
        if mono in rem:
            raise RuntimeError(f"pivot monomial {mono} not eliminated")
    raise RuntimeError("expansion did not terminate")


# -- expansions in the Schubert basis ------------------------------------------


class Expansion(_Record):
    """A formal ZZ-linear combination of classes q^alpha w over a fixed S_n."""

    __slots__ = ("n", "terms")

    def __init__(
        self,
        n: int,
        terms: dict[QElement, int] | Iterable[tuple[QElement, int]] | None = None,
    ):
        self.n = n
        acc: dict[QElement, int] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, dict) else terms
            for x, c in items:
                _check_size(n, x.w.n)
                if c:
                    acc[x] = acc.get(x, 0) + c
        self.terms = {x: c for x, c in acc.items() if c}

    @classmethod
    def unit(cls, u: Permutation) -> "Expansion":
        return cls(u.n, {QElement((0,) * (u.n - 1), u): 1})

    def items(self) -> list[tuple[QElement, int]]:
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def coefficient(self, x: QElement | Permutation) -> int:
        if isinstance(x, Permutation):
            x = QElement((0,) * (x.n - 1), x)
        _check_size(self.n, x.w.n)
        return self.terms.get(x, 0)

    def classical_terms(self) -> dict[Permutation, int]:
        return {x.w: c for x, c in self.terms.items() if x.is_classical()}

    def is_classical(self) -> bool:
        return all(x.is_classical() for x in self.terms)

    def __add__(self, other: "Expansion") -> "Expansion":
        _check_size(self.n, other.n)
        out = dict(self.terms)
        for x, c in other.terms.items():
            out[x] = out.get(x, 0) + c
        return Expansion(self.n, out)

    def __sub__(self, other: "Expansion") -> "Expansion":
        return self + other.scale(-1)

    def scale(self, c: int) -> "Expansion":
        return Expansion(self.n, {x: c * v for x, v in self.terms.items()})

    __mul__ = __rmul__ = scale

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def text(self) -> str:
        if not self.terms:
            return "0"
        return "\n".join(f"{c:+d} {x}" for x, c in self.items())

    __str__ = text

    def __repr__(self) -> str:
        return f"Expansion({self.n}, {dict(self.items())!r})"


# -- one product engine for both rings -----------------------------------------
#
# A class q^alpha w is the tuple pair (alpha, w.word); ``quantum`` switches
# the quantum edges on.


def _check_powersum_args(u: Permutation, r: int, k: int) -> None:
    _check_k(u.n, k)
    if r < 1:
        raise ValueError(f"power sum degree must be positive, got {r}")


def _expansion(n: int, terms: dict) -> Expansion:
    """The Expansion of {(alpha, word): c} over S_n, built without the checks
    and the re-summing of ``Expansion(...)``: the engine's keys are distinct
    and fit S_n, and a zero c is dropped."""
    exp = object.__new__(Expansion)
    exp.n = n
    exp.terms = {
        QElement._trusted(alpha, Permutation._trusted(word)): c
        for (alpha, word), c in terms.items()
        if c
    }
    return exp


def _x_step(terms: dict, m: int, quantum: bool) -> dict:
    """x_m times {(alpha, word): c}: the signed covers that move position m."""
    out: dict = {}
    for (alpha, word), c in terms.items():
        for i, l, lifted, sign in _x_covers(alpha, word, m - 1, quantum):
            key = (lifted, _swapped(word, i, l))
            out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def _apply_x(exp: Expansion, m: int, quantum: bool) -> Expansion:
    n = exp.n
    if not 1 <= m <= n:
        raise ValueError(f"x_{m} is not a variable of H*Fl_{n}")
    terms = {(x.alpha, x.w.word): c for x, c in exp.terms.items()}
    return _expansion(n, _x_step(terms, m, quantum))


def _operator_terms(start: tuple[int, ...], monomials, quantum: bool) -> dict:
    """{(alpha, word): c} of S_start times the sum of c x^e q^f over
    ((e, f), c), one x_m step per letter; some c may be 0.

    Monomials that start alike (x_1^2 x_2 and x_1^2 x_3) share the steps of
    their common prefix through a memo kept for this call only.
    """
    memo = {(): {((0,) * (len(start) - 1), start): 1}}
    out: dict = {}
    for (xe, qe), c in monomials:
        letters = tuple(m for m, e in enumerate(xe, start=1) for _ in range(e))
        for j, m in enumerate(letters):
            if letters[: j + 1] not in memo:
                memo[letters[: j + 1]] = _x_step(memo[letters[:j]], m, quantum)
        for (alpha, word), d in memo[letters].items():
            key = (_padded_sum(alpha, qe) if qe else alpha, word)
            out[key] = out.get(key, 0) + c * d
    return out


def _schur_monomials(lam: tuple[int, ...], k: int) -> tuple:
    """s_lambda(x_1, ..., x_k) as the monomials ``_operator_terms`` takes."""
    return tuple(((e, ()), c) for e, c in schur_poly(lam, k).monomials())


def _minimal_rule(u: Permutation, k: int, r: int, quantum: bool, coeff) -> Expansion:
    """Sum coeff(het, s) q^alpha w over the minimal intervals [u, q^alpha w] of rank r.

    A cover w -> w t_il either merges the cycles of sigma = u^{-1} w through
    positions i and l or splits their common cycle, so n - #cycles(sigma)
    moves by one.  A rank-r interval is minimal (#supp - s = r, with s the
    nontrivial cycles of zeta = w u^{-1}) iff all r steps merged: the walk
    keeps merges only, and every top it reaches is minimal.
    """
    n = u.n
    start = u.word
    pos = {v: p for p, v in enumerate(start)}  # sigma(p) = pos[word[p]]
    frontier = {((0,) * (n - 1), start)}
    for _ in range(r):
        up = set()
        for alpha, word in frontier:
            for i, l, lifted in _covers(alpha, word, k, quantum):
                p = pos[word[i]]
                while p != i and p != l:
                    p = pos[word[p]]
                if p == i:  # l is off the cycle through i: a merge
                    up.add((lifted, _swapped(word, i, l)))
        frontier = up
    terms = {}
    for alpha, word in frontier:
        moved = sum(map(operator.ne, start, word))
        rising = sum(map(operator.lt, start, word))  # het(zeta)
        c = coeff(rising, moved - r)
        if c:
            terms[alpha, word] = c
    return _expansion(n, terms)


def _hook_coefficient(a: int):
    return lambda rising, cycles: _peakless_binomial(cycles, rising, a)


def _powersum_coefficient(rising: int, cycles: int) -> int:
    return (-1) ** (rising + 1) if cycles == 1 else 0


# -- classical products ---------------------------------------------------------


def monk_multiply(u: Permutation, k: int) -> Expansion:
    """S_u times S_{(k, k+1)} = x_1 + ... + x_k: the k-Bruhat covers of u."""
    _check_k(u.n, k)
    zero, word = (0,) * (u.n - 1), u.word
    covers = _covers(zero, word, k, False)
    return _expansion(u.n, {(zero, _swapped(word, i, l)): 1 for i, l, _a in covers})


def x_times(exp: Expansion, m: int) -> Expansion:
    """Multiplication by x_m in H*Fl_n: the signed covers that move position m."""
    return _apply_x(exp, m, False)


def schur_multiply(u: Permutation, lam: tuple[int, ...], k: int) -> Expansion:
    """S_u times s_lambda(x_1, ..., x_k) in H*Fl_n, by iterated x_m-operators."""
    _check_k(u.n, k)
    return _expansion(u.n, _operator_terms(u.word, _schur_monomials(lam, k), False))


def hook_multiply_chains(u: Permutation, a: int, b: int, k: int) -> Expansion:
    """S_u times s_{(b, 1^(a-1))}(x_1..x_k), summing peakless chains of height a."""
    _check_hook(a, b, k, u.n)
    r = a + b - 1
    zero = (0,) * (u.n - 1)
    counts: dict[tuple, int] = {}

    def dfs(word: tuple[int, ...], last: int, t: int) -> None:
        if t == r:
            counts[zero, word] = counts.get((zero, word), 0) + 1
            return
        for i, l, _a in _covers(zero, word, k, False):
            lab = word[i]
            if (lab < last) if t < a else (lab > last):
                dfs(_swapped(word, i, l), lab, t + 1)

    dfs(u.word, u.n + 1, 0)  # every label lies below n + 1, so step 1 is free
    return _expansion(u.n, counts)


def hook_multiply_minimal(u: Permutation, a: int, b: int, k: int) -> Expansion:
    """S_u times s_{(b, 1^(a-1))}(x_1..x_k), via minimal permutations.

    The coefficient of S_w is C(s - 1, het - a) for zeta = w u^{-1} minimal
    with #supp - #cycles = a + b - 1.
    """
    _check_hook(a, b, k, u.n)
    return _minimal_rule(u, k, a + b - 1, False, _hook_coefficient(a))


def powersum_multiply(u: Permutation, r: int, k: int) -> Expansion:
    """S_u times p_r(x_1..x_k): signed sum over minimal cycles of rank r."""
    _check_powersum_args(u, r, k)
    return _minimal_rule(u, k, r, False, _powersum_coefficient)


def poly_product(
    u: Permutation, lam: tuple[int, ...], k: int
) -> dict[Permutation, int]:
    """S_u(x) * s_lambda(x_1..x_k) in the full polynomial ring.

    Returns the expansion over the Schubert basis with trimmed permutation
    keys; restricting to keys in S_n recovers the quotient-ring product.
    """
    return expand_in_schubert(schubert_poly(u) * schur_poly(lam, k))
