"""Products of Schubert classes in the quantum cohomology of the flag manifold.

The quantum products run on the engine they share with the classical ones
(see ``schubert``), with its quantum edges switched on:

- ``q_monk_multiply`` / ``q_x_times``: the degree-one products, which
  determine the ring structure; ``q_monk_multiply`` takes an ``Expansion``
  or a ``Permutation`` u, which stands for S_u;
- ``q_hook_multiply`` / ``q_powersum_multiply``: closed combinatorial rules
  summing over minimal intervals of the quantum k-Bruhat order.

Two routes that do not use the minimal-interval rule check them.
``fgp_product`` is an oracle that multiplies honestly in ZZ[q][x] after
quantizing the Schur polynomial through quantum elementary polynomials
E^j_i; it applies the quantum Monk rule through the shared x_m operator,
the signed covers through position m.  ``quantum_lr`` computes a single
coefficient N^{w,alpha}_{u,v(lam,k)} by the descent-exchange reduction:
while alpha is nonzero, find a wall i where u descends, w ascends, and the
second difference of alpha is 1 (2 when i = k); swapping positions i, i+1
in both u and w and stripping e_i from alpha preserves the coefficient
exactly, so the classical coefficient reached at alpha = 0 is the answer.
When no wall qualifies the coefficient is zero.  ``ll_reduce_product`` runs
that reduction, on one-line words, on every candidate term of a whole
product.  It walks the quantum covers only to list those candidates, and
multiplies each classical base it lands on once, with the classical x_m
operator.

Cyclic-shift bookkeeping lives here as well: the Laurent monomial
q^{o(u,w)} = q_{w^{-1}(n), u^{-1}(n)}, kept as a signed exponent tuple,
measures how exponent vectors move when every value is shifted by the
n-cycle (1 2 ... n), and
``o_shift_element`` / ``w0_element`` / ``rho_element`` are the induced maps
on S_n[q] that carry an interval [u, q^alpha w]_k^q onto its three partners.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .kbruhat import _covers
from .perm import (
    Permutation,
    _check_hook,
    _check_k,
    _check_shape,
    _check_size,
    _swapped,
    cyclic_shift,
    longest_element,
)
from .qbruhat import QElement, q_ij, q_up_covers
from .schubert import (
    Expansion,
    Poly,
    _SparsePoly,
    _apply_x,
    _check_powersum_args,
    _expansion,
    _hook_coefficient,
    _minimal_rule,
    _names,
    _operator_sum,
    _operator_terms,
    _padded_sum,
    _powersum_coefficient,
    _schur_monomials,
    _trim,
    schur_multiply,
    schur_poly,
)

__all__ = [
    "varpi",
    "sg",
    "QLRQuery",
    "ll_reduce_step",
    "quantum_lr",
    "ll_reduce_product",
    "o_shift_monomial",
    "o_shift_element",
    "w0_element",
    "rho_element",
    "q_monk_multiply",
    "q_x_times",
    "q_schur_multiply",
    "q_hook_multiply",
    "q_powersum_multiply",
    "QPoly",
    "quantum_elementary",
    "quantize",
    "quantum_schur",
    "fgp_product",
]


def varpi(alpha: tuple[int, ...], i: int) -> int:
    """The second difference -alpha_{i-1} + 2 alpha_i - alpha_{i+1}.

    Out-of-range neighbours count as zero.

    >>> varpi((1, 2, 2, 3, 2), 2)
    1
    >>> varpi((1, 2, 2, 3, 2), 4)
    2
    """
    if not 1 <= i <= len(alpha):
        raise ValueError(f"wall {i} out of range for {len(alpha) + 1} letters")
    left = alpha[i - 2] if i >= 2 else 0
    right = alpha[i] if i < len(alpha) else 0
    return -left + 2 * alpha[i - 1] - right


def sg(u: Permutation, i: int) -> int:
    """1 when u has a descent at i, else 0."""
    return 1 if u.has_descent(i) else 0


@dataclass(frozen=True)
class QLRQuery:
    """A coefficient query: which multiple of S_w does S_u * s^q_lam(x_1..x_k) contain?

    ``alpha`` is the exponent vector of the q-monomial attached to w.
    """

    u: Permutation
    w: Permutation
    alpha: tuple[int, ...]
    lam: tuple[int, ...]
    k: int

    def __post_init__(self):
        n = self.u.n
        _check_size(n, self.w.n)
        object.__setattr__(self, "alpha", QElement(self.alpha, self.w).alpha)
        object.__setattr__(self, "lam", _check_shape(self.lam, self.k, n))

    @classmethod
    def _trusted(cls, u, w, alpha, lam, k) -> "QLRQuery":
        """A query from parts already known to fit together, without the checks."""
        self = object.__new__(cls)
        self.__dict__.update(u=u, w=w, alpha=alpha, lam=lam, k=k)
        return self


def _exchange(u: tuple, w: tuple, alpha: tuple, k: int):
    """The descent exchange on one-line words, stated once.

    Finds the smallest wall i with sg_i(u) = 1, sg_i(w) = 0 and
    varpi_i(alpha) = 1 (= 2 when i = k) and returns
    (i, (u s_i, w s_i, alpha - e_i)), or None when no wall qualifies.  Any
    qualifying wall yields the same coefficient.  The test sg_i(w) = 0 is
    needed for arbitrary queries: the terms a product reaches pass it anyway,
    but without it u = 231, w = 132, alpha = (1, 1), lam = (1), k = 1
    reduces to 1, where the coefficient is 0.
    """
    for i in range(1, len(u)):
        want = 2 if i == k else 1
        if u[i - 1] > u[i] and w[i - 1] < w[i] and varpi(alpha, i) == want:
            # varpi_i(alpha) > 0 forces alpha_i > 0, so the step stays valid
            lowered = alpha[: i - 1] + (alpha[i - 1] - 1,) + alpha[i:]
            return i, (_swapped(u, i - 1, i), _swapped(w, i - 1, i), lowered)
    return None


def _reduced(u: tuple, w: tuple, alpha: tuple, k: int) -> tuple | None:
    """The words (u', w') the exchange reaches at alpha = 0, or None when a
    step fails with alpha still nonzero and so certifies a zero."""
    while any(alpha):
        step = _exchange(u, w, alpha, k)
        if step is None:
            return None
        u, w, alpha = step[1]
    return u, w


def ll_reduce_step(query: QLRQuery) -> tuple[int, QLRQuery] | None:
    """One descent exchange (see ``_exchange``) as (i, reduced query), or
    None when the coefficient is zero."""
    if not any(query.alpha):
        raise ValueError("reduction needs a nonzero exponent vector")
    step = _exchange(query.u.word, query.w.word, query.alpha, query.k)
    if step is None:
        return None
    i, (u, w, alpha) = step
    u, w = map(Permutation._trusted, (u, w))
    return i, QLRQuery._trusted(u, w, alpha, query.lam, query.k)


def quantum_lr(query: QLRQuery) -> int:
    """The numerical part N^{w,alpha}_{u,v(lam,k)} of a quantum LR coefficient.

    Reduces to a classical coefficient wall by wall; a failed reduction with
    alpha still nonzero certifies that the coefficient vanishes.
    """
    words = _reduced(query.u.word, query.w.word, query.alpha, query.k)
    if words is None:
        return 0
    u, w = map(Permutation._trusted, words)
    return schur_multiply(u, query.lam, query.k).coefficient(w)


def ll_reduce_product(u: Permutation, lam: tuple[int, ...], k: int) -> Expansion:
    """S_u * s^q_lam(x_1..x_k) by the descent exchange, term by term.

    By Postnikov's quantum Pieri rule every term lies at the top of a walk
    of |lam| steps up the quantum k-Bruhat order from u, so those tops are
    the candidates; the hook rule is not consulted.  Each candidate reduces
    to a coefficient of a classical product S_u' * s_lam, and each distinct
    u' is multiplied once per call; all of it runs on one-line words.
    """
    n = u.n
    lam = _check_shape(lam, k, n)
    zero = (0,) * (n - 1)
    frontier = {(zero, u.word)}
    for _ in range(sum(lam)):
        frontier = {
            (lifted, _swapped(word, i, l))
            for alpha, word in frontier
            for i, l, lifted in _covers(alpha, word, k, True)
        }
    monomials = _schur_monomials(lam, k)
    products: dict[tuple, dict] = {}
    terms = {}
    for alpha, word in frontier:
        words = _reduced(u.word, word, alpha, k)
        if words is None:
            continue
        base, w = words
        if base not in products:
            products[base] = _operator_terms(base, monomials, False)
        terms[alpha, word] = products[base].get((zero, w), 0)
    return _expansion(n, terms)


# -- cyclic-shift bookkeeping ---------------------------------------------------


def o_shift_monomial(u: Permutation, w: Permutation) -> tuple[int, ...]:
    """The signed exponents of q^{o(u,w)} = q_{w^{-1}(n), u^{-1}(n)}.

    q_{i,j} = q_{j,i}^{-1} when i > j, and q_{i,i} = 1.  Additive:
    o(u,w) = o(u,v) + o(v,w) for any u, v, w in S_n.
    """
    n = u.n
    _check_size(n, w.n)
    i, j = w.position(n), u.position(n)
    if i == j:
        return (0,) * (n - 1)
    sign = 1 if i < j else -1
    return tuple(sign * e for e in q_ij(min(i, j), max(i, j), n))


def o_shift_element(u: Permutation, x: QElement) -> QElement:
    """Where the cyclic shift sends q^gamma y inside [u, q^alpha w]_k^q.

    A shift that leaves S_n[q] has a negative exponent, which QElement refuses.
    """
    alpha = tuple(map(sum, zip(x.alpha, o_shift_monomial(u, x.w))))
    return QElement(alpha, cyclic_shift(u.n) * x.w)


def w0_element(x: QElement) -> QElement:
    """q^gamma y -> q^{w0(gamma)} w0 y w0 (exponents reversed)."""
    w0 = longest_element(x.w.n)
    return QElement(tuple(reversed(x.alpha)), w0 * x.w * w0)


def rho_element(alpha: tuple[int, ...], x: QElement) -> QElement:
    """q^gamma y -> q^{w0(alpha - gamma)} y w0, the order-reversing partner.

    ``alpha`` is the exponent vector at the top of the ambient interval; an x
    not below it gives a negative exponent, which QElement refuses.
    """
    w0 = longest_element(x.w.n)
    gamma = tuple(reversed(tuple(a - g for a, g in zip(alpha, x.alpha))))
    return QElement(gamma, x.w * w0)


# -- the quantum product --------------------------------------------------------


def q_monk_multiply(exp: Expansion | Permutation, k: int) -> Expansion:
    """The quantum product by S_{(k,k+1)}, extended ZZ[q]-linearly; a
    Permutation u stands for S_u."""
    if isinstance(exp, Permutation):
        exp = Expansion.unit(exp)
    _check_k(exp.n, k)
    covers = [(y, c) for x, c in exp.terms.items() for _lab, y in q_up_covers(x, k)]
    return Expansion(exp.n, covers)


def q_x_times(exp: Expansion, m: int) -> Expansion:
    """Multiplication by x_m in qH*Fl_n: the signed covers that move position m,
    quantum covers included."""
    return _apply_x(exp, m, True)


def q_hook_multiply(u: Permutation, a: int, b: int, k: int) -> Expansion:
    """S_u * s^q_{(b, 1^(a-1))}(x_1..x_k), summed over minimal intervals.

    The coefficient of q^alpha S_w is C(s - 1, het - a) computed from
    zeta = w u^{-1}, for every minimal interval [u, q^alpha w]_k^q of rank
    a + b - 1.
    """
    _check_hook(a, b, k, u.n)
    return _minimal_rule(u, k, a + b - 1, True, _hook_coefficient(a))


def q_powersum_multiply(u: Permutation, r: int, k: int) -> Expansion:
    """S_u * p^q_r(x_1..x_k): signed sum over minimal single-cycle intervals."""
    _check_powersum_args(u, r, k)
    return _minimal_rule(u, k, r, True, _powersum_coefficient)


# -- the quantization oracle ----------------------------------------------------


class QPoly(_SparsePoly):
    """Sparse integer polynomial in x's and q's; keys are (x, q) exponent pairs."""

    __slots__ = ()
    _ONE = ((), ())
    _key_names = staticmethod(lambda key: _names("q", key[1]) + _names("x", key[0]))

    @staticmethod
    def _trim_key(key):
        return _trim(key[0]), _trim(key[1])

    @staticmethod
    def _mul_keys(a, b):
        return _padded_sum(a[0], b[0]), _padded_sum(a[1], b[1])

    @classmethod
    def from_poly(cls, p: Poly) -> "QPoly":
        return cls({(xe, ()): c for xe, c in p.terms.items()})

    @classmethod
    def x(cls, i: int) -> "QPoly":
        return cls({((0,) * (i - 1) + (1,), ()): 1})

    @classmethod
    def q(cls, i: int) -> "QPoly":
        return cls({((), (0,) * (i - 1) + (1,)): 1})

    def classical_part(self) -> Poly:
        """The polynomial obtained by setting every q_i to zero."""
        return Poly({xe: c for (xe, qe), c in self.terms.items() if not qe})


@lru_cache(maxsize=None)
def quantum_elementary(i: int, j: int) -> QPoly:
    """The quantum elementary polynomial E^j_i in x_1..x_j and q_1..q_{j-1}.

    E^j_i = E^{j-1}_i + x_j E^{j-1}_{i-1} + q_{j-1} E^{j-2}_{i-2}, with
    E^j_0 = 1 and E^j_i = 0 outside 0 <= i <= j.  Setting q = 0 recovers
    e_i(x_1, ..., x_j).

    >>> str(quantum_elementary(2, 2))
    '+q1 +x1*x2'
    """
    if i == 0:
        return QPoly.one()
    if i < 0 or i > j:
        return QPoly()
    out = quantum_elementary(i, j - 1) + QPoly.x(j) * quantum_elementary(
        i - 1, j - 1
    )
    if j >= 2:
        out = out + QPoly.q(j - 1) * quantum_elementary(i - 2, j - 2)
    return out


@lru_cache(maxsize=None)
def _elementary_poly(i: int, j: int) -> Poly:
    """e_i(x_1, ..., x_j) as a classical polynomial."""
    out: dict[tuple[int, ...], int] = {}
    for subset in itertools.combinations(range(j), i):
        e = [0] * j
        for m in subset:
            e[m] = 1
        out[tuple(e)] = 1
    return Poly(out)


# The largest n the change of basis reaches.  Building and inverting its degree
# blocks over ZZ takes about 0.003 s at n = 5, 0.07 s at n = 6 (blocks up to
# 101 x 101) and 2.4 s at n = 7 (up to 573 x 573, 28 MB peak RSS for the whole
# process), on 2 cores with Python 3.11; n = 8 has blocks of 3836 x 3836.
FGP_MAX_N = 7
FGP_REFUSED_BLOCK = 3836  # the largest degree block of S_{FGP_MAX_N + 1}


def _invert_unimodular(rows: list[dict[int, int]]) -> list[dict[int, int]]:
    """Invert over ZZ, in place, the square matrix whose sparse rows map column
    to entry.

    Gauss-Jordan with a +-1 pivot in each column, taken from the sparsest
    candidate row to keep the fill-in down; a column without one raises.  Row b
    of the result maps m to the entry (b, m) of the inverse.
    """
    dim = len(rows)
    for m, row in enumerate(rows):
        row[dim + m] = 1
    for col in range(dim):
        units = (r for r in range(col, dim) if rows[r].get(col) in (1, -1))
        piv = min(units, key=lambda r: len(rows[r]), default=None)
        if piv is None:
            raise RuntimeError("elementary-monomial basis is not unimodular")
        rows[col], rows[piv] = rows[piv], rows[col]
        if rows[col][col] == -1:
            rows[col] = {b: -v for b, v in rows[col].items()}
        pivot = rows[col]
        for r, row in enumerate(rows):
            f = row.get(col)
            if f and r != col:
                for b, v in pivot.items():
                    w = row.get(b, 0) - f * v
                    if w:
                        row[b] = w
                    else:
                        del row[b]
    return [{b - dim: v for b, v in row.items() if b >= dim} for row in rows]


@lru_cache(maxsize=None)
def _standard_solver(n: int):
    """Change of basis from staircase monomials to elementary-monomial products.

    Both the monomials x^a with a_j <= n - j and the products
    e_{i_1}(x_1) e_{i_2}(x_1,x_2) ... e_{i_{n-1}}(x_1..x_{n-1}) with
    0 <= i_j <= j are homogeneous ZZ-bases of the same rank-n! lattice, so the
    change of basis splits into one unimodular block per degree.  Returns
    ``index``, mapping each staircase monomial to (its degree d, its row in
    block d), and ``blocks``, where blocks[d] holds the degree-d tuples
    (i_1, ..., i_{n-1}) and the integer inverse of block d.
    """
    by_degree: dict[int, list[tuple[int, ...]]] = {}
    for tup in itertools.product(*(range(j + 1) for j in range(1, n))):
        by_degree.setdefault(sum(tup), []).append(tup)
    index: dict[tuple[int, ...], tuple[int, int]] = {}
    blocks = []
    for d, basis in sorted(by_degree.items()):
        # read backwards, the tuples of degree d are its staircase exponents
        row = {_trim(tup[::-1]): m for m, tup in enumerate(basis)}
        index.update((xe, (d, m)) for xe, m in row.items())
        a: list[dict[int, int]] = [{} for _ in basis]
        for b, tup in enumerate(basis):
            p = Poly.one()
            for j, i_j in enumerate(tup, start=1):
                if i_j:
                    p = p * _elementary_poly(i_j, j)
            for xe, c in p.terms.items():
                a[row[xe]][b] = c
        blocks.append((basis, _invert_unimodular(a)))
    return index, blocks


def _expand_in_standard_basis(p: Poly, n: int) -> dict[tuple[int, ...], int]:
    index, blocks = _standard_solver(n)
    by_degree: dict[int, dict[int, int]] = {}
    for xe, c in p.terms.items():
        if xe not in index:
            raise ValueError(
                f"monomial {xe} lies outside the span of elementary-monomial "
                f"products for n={n} (degree too high in some variable)"
            )
        d, m = index[xe]
        by_degree.setdefault(d, {})[m] = c
    out: dict[tuple[int, ...], int] = {}
    for d, vec in sorted(by_degree.items()):
        basis, inverse = blocks[d]
        for tup, row in zip(basis, inverse):
            c = sum(row.get(m, 0) * v for m, v in vec.items())
            if c:
                out[tup] = c
    return out


@lru_cache(maxsize=None)
def _quantum_basis_element(tup: tuple[int, ...]) -> QPoly:
    out = QPoly.one()
    for j, i_j in enumerate(tup, start=1):
        if i_j:
            out = out * quantum_elementary(i_j, j)
    return out


def quantize(p: Poly, n: int) -> QPoly:
    """The quantization of p: expand in elementary-monomial products and
    replace each e_{i_j}(x_1..x_j) by E^j_{i_j}.

    Degree-one polynomials are fixed, and setting q = 0 returns p.  Raises
    ValueError for n > FGP_MAX_N, where the change of basis is out of reach.
    """
    if n > FGP_MAX_N:
        raise ValueError(
            f"the FGP quantization oracle stops at S_{FGP_MAX_N}: S_{n} needs "
            "an exact inversion of a degree block of "
            f"{FGP_REFUSED_BLOCK} x {FGP_REFUSED_BLOCK} or more; "
            "ll_reduce_product (--basis ll-reduce) has no such limit"
        )
    out = QPoly()
    for tup, c in _expand_in_standard_basis(p, n).items():
        out = out + _quantum_basis_element(tup) * c
    return out


@lru_cache(maxsize=None)
def quantum_schur(lam: tuple[int, ...], k: int, n: int) -> QPoly:
    """The quantum Schur polynomial s^q_lam(x_1..x_k) for lam inside R_{k,n-k}."""
    return quantize(schur_poly(_check_shape(lam, k, n), k), n)


def q_schur_multiply(u: Permutation, lam: tuple[int, ...], k: int) -> Expansion:
    """S_u * s^q_lam(x_1..x_k) through iterated x_m-operators (the FGP route)."""
    monomials = quantum_schur(tuple(lam), k, u.n).monomials()
    return _operator_sum(u, monomials, True)


# the name the CLI, the checks and the benchmark give the FGP route
fgp_product = q_schur_multiply
