"""Products of Schubert classes in the quantum cohomology of the flag manifold.

The quantum products run on the engine they share with the classical ones
(see ``schubert``), with its quantum edges switched on:

- ``q_monk_multiply`` / ``q_x_times``: the degree-one products, which
  determine the ring structure; ``q_monk_multiply`` takes an ``Expansion``
  or a ``Permutation`` u, which stands for S_u;
- ``q_hook_multiply`` / ``q_powersum_multiply``: closed combinatorial rules
  summing over minimal intervals of the quantum k-Bruhat order.

Two routes that do not use the minimal-interval rule check them.
``fgp_product``, the one name of the FGP route (the CLI's ``fgp-oracle``),
is an oracle that multiplies honestly in ZZ[q][x]: it builds the quantum
Schur polynomial as a column-flagged determinant of quantum elementary
polynomials E^j_i, at any n, and applies the quantum Monk rule through the
shared x_m operator, the signed covers through position m.  ``quantize``
states the Fomin-Gelfand-Postnikov quantization itself, through a change of
basis that stops at S_7, and is the reference the determinant is tested
against.  ``quantum_lr`` computes a single coefficient
N^{w,alpha}_{u,v(lam,k)} by the descent-exchange reduction: while alpha is
nonzero, find a wall i where u descends, w ascends, and the second
difference of alpha is 1 (2 when i = k); swapping positions i, i+1 in both u
and w and stripping e_i from alpha preserves the coefficient exactly, so the
classical coefficient reached at alpha = 0 is the answer.  When no
wall qualifies the coefficient is zero.  ``ll_reduce_product`` runs that
reduction on every candidate term of a whole product, and walks the quantum
covers only to list those candidates.  Both take each coefficient from one
function on one-line words, which multiplies the classical base it lands on
with the classical x_m operator through a bounded memo shared across calls,
since many u reduce to the same base.

``product_routes`` is the one table of the product routes, hook, power
sum and Schur, classical and quantum, with each route's ``--basis`` name.
The CLI and the release gate look every route up in it.

Cyclic-shift bookkeeping lives here as well: the Laurent monomial
q^{o(u,w)} = q_{w^{-1}(n), u^{-1}(n)}, kept as a signed exponent tuple,
measures how exponent vectors move when every value is shifted by the
n-cycle (1 2 ... n), and
``o_shift_element`` / ``w0_element`` / ``rho_element`` are the induced maps
on S_n[q] that carry an interval [u, q^alpha w]_k^q onto its three partners.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import schubert
from .kbruhat import _covers
from .perm import (
    Permutation,
    _Record,
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
    _on_hook,
    _operator_terms,
    _padded_sum,
    _powersum_coefficient,
    _schur_monomials,
    _trim,
    schur_poly,
)

__all__ = [
    "varpi",
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
    "q_hook_multiply",
    "q_powersum_multiply",
    "QPoly",
    "quantum_elementary",
    "quantize",
    "quantum_schur",
    "fgp_product",
    "product_routes",
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


class QLRQuery(_Record):
    """A coefficient query: which multiple of S_w does S_u * s^q_lam(x_1..x_k) contain?

    ``alpha`` is the exponent vector of the q-monomial attached to w.
    """

    __slots__ = ("u", "w", "alpha", "lam", "k")

    def __init__(self, u: Permutation, w: Permutation, alpha, lam, k: int):
        _check_size(u.n, w.n)
        self.u, self.w, self.alpha = u, w, QElement(alpha, w).alpha
        self.lam, self.k = _check_shape(lam, k, u.n), k


def _exchange(u: tuple, w: tuple, alpha: tuple, k: int):
    """The descent exchange on one-line words, stated once.

    Finds the smallest wall i where u has a descent, w has none and
    varpi_i(alpha) = 1 (= 2 when i = k) and returns
    (i, (u s_i, w s_i, alpha - e_i)), or None when no wall qualifies.  Any
    qualifying wall yields the same coefficient.  The test on w's descent is
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
    return i, QLRQuery(u, w, alpha, query.lam, query.k)


def quantum_lr(query: QLRQuery) -> int:
    """The numerical part N^{w,alpha}_{u,v(lam,k)} of a quantum LR coefficient.

    Reduces to a classical coefficient wall by wall through ``_coefficient``,
    which ``ll_reduce_product`` shares with its memo; a failed reduction with
    alpha still nonzero certifies that the coefficient vanishes.
    """
    monomials = _schur_monomials(query.lam, query.k)
    return _coefficient(query.u.word, query.w.word, query.alpha, query.k, monomials)


@lru_cache(maxsize=4096)
def _classical_terms(base: tuple[int, ...], monomials: tuple) -> dict:
    """The nonzero {w: c} of S_base times the classical monomials, by the
    Monk x_m operator.

    The memo is shared by every ``_coefficient`` call, so callers read the
    dict and never mutate it.
    """
    terms = _operator_terms(base, monomials, False)
    return {w: c for (_alpha, w), c in terms.items() if c}


def _coefficient(u: tuple, w: tuple, alpha: tuple, k: int, monomials: tuple) -> int:
    """The coefficient of q^alpha S_w in S_u * s^q_lam, s_lam given by its
    classical monomials: the exchange runs to alpha = 0, where the memo holds
    the answer, or fails with alpha nonzero and so certifies a zero."""
    while any(alpha):
        step = _exchange(u, w, alpha, k)
        if step is None:
            return 0
        u, w, alpha = step[1]
    return _classical_terms(u, monomials).get(w, 0)


def ll_reduce_product(u: Permutation, lam: tuple[int, ...], k: int) -> Expansion:
    """S_u * s^q_lam(x_1..x_k) by the descent exchange, term by term.

    By Postnikov's quantum Pieri rule every term lies at the top of a walk
    of |lam| steps up the quantum k-Bruhat order from u, so those tops are
    the candidates; the hook rule is not consulted.  Each candidate reduces
    to a coefficient of a classical product S_u' * s_lam, and the classical
    products are memoized across calls (``_classical_terms``); all of it
    runs on one-line words.
    """
    n = u.n
    lam = _check_shape(lam, k, n)
    frontier = {((0,) * (n - 1), u.word)}
    for _ in range(sum(lam)):
        frontier = {
            (lifted, _swapped(word, i, l))
            for alpha, word in frontier
            for i, l, lifted in _covers(alpha, word, k, True)
        }
    monomials = _schur_monomials(lam, k)
    terms = {
        (alpha, word): _coefficient(u.word, word, alpha, k, monomials)
        for alpha, word in frontier
    }
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
    """e_i(x_1, ..., x_j), the Schur polynomial of the column (1^i)."""
    return schur_poly((1,) * i, j)


# The largest n the change of basis of ``quantize`` reaches; ``quantum_schur``
# and the FGP products need no change of basis and have no such bound.
# Building and peeling its products takes about 0.005 s at n = 5, 0.06-0.1 s
# at n = 6 and 2-4 s at n = 7 (degree blocks up to 573 products, 19 MB peak
# RSS for the whole process), on 2 cores with Python 3.11; n = 8 has blocks of
# 3836 products.
FGP_MAX_N = 7
FGP_REFUSED_BLOCK = 3836  # the largest degree block of S_{FGP_MAX_N + 1}


@lru_cache(maxsize=None)
def _standard_solver(n: int):
    """Change of basis from staircase monomials to elementary-monomial products.

    Both the monomials x^a with a_j <= n - j and the products
    e_{i_1}(x_1) e_{i_2}(x_1,x_2) ... e_{i_{n-1}}(x_1..x_{n-1}) with
    0 <= i_j <= j are homogeneous ZZ-bases of the same rank-n! lattice.  In
    each degree, repeatedly peel off a product holding a monomial, its pivot,
    that no other product left holds; a degree that stalls raises.  Returns
    ((i_1, ..., i_{n-1}), pivot, sign) in peel order, so no later product holds
    an earlier pivot: the change of basis is triangular in that order, and
    unimodular, so each pivot's coefficient, the sign, is +-1.
    """
    by_degree: dict[int, list[tuple[int, ...]]] = {}
    for tup in itertools.product(*(range(j + 1) for j in range(1, n))):
        by_degree.setdefault(sum(tup), []).append(tup)
    order = []
    for d, basis in sorted(by_degree.items()):
        # read backwards, the tuples of degree d are its staircase exponents
        monomials = [_trim(tup[::-1]) for tup in basis]
        index = {xe: m for m, xe in enumerate(monomials)}
        # how many products left hold each monomial, and the xor of their
        # numbers: once the count is 1, the xor is the one holder left
        count = [0] * len(basis)
        holder = [0] * len(basis)
        products = []
        for b, tup in enumerate(basis):
            p = Poly.one()
            for j, i_j in enumerate(tup, start=1):
                if i_j:
                    p = p * _elementary_poly(i_j, j)
            products.append({index[xe]: c for xe, c in p.terms.items()})
            for m in products[b]:
                count[m] += 1
                holder[m] ^= b
        # the products ready to peel, each with a monomial only it still holds
        ready = {holder[m]: m for m, c in enumerate(count) if c == 1}
        for _ in basis:
            if not ready:
                raise RuntimeError(
                    f"the degree-{d} elementary-monomial products for n={n} "
                    "do not peel into a triangular basis"
                )
            b, m = ready.popitem()
            order.append((basis[b], monomials[m], products[b][m]))
            for m2 in products[b]:
                count[m2] -= 1
                holder[m2] ^= b
                if count[m2] == 1:
                    ready.setdefault(holder[m2], m2)
    return order


@lru_cache(maxsize=None)
def _quantum_basis_element(tup: tuple[int, ...]) -> QPoly:
    out = QPoly.one()
    for j, i_j in enumerate(tup, start=1):
        if i_j:
            out = out * quantum_elementary(i_j, j)
    return out


def quantize(p: Poly, n: int) -> QPoly:
    """The quantization of p: expand in elementary-monomial products and
    replace each e_{i_j}(x_1..x_j) by E^j_{i_j}, whose q-free part it is.

    The expansion is one back-substitution in the solver's peel order, which
    takes the q-free part of each quantized product off the remainder.
    Degree-one polynomials are fixed, and setting q = 0 returns p.  Raises
    ValueError for n > FGP_MAX_N, where the change of basis is out of reach.
    This is the definition of the quantization; ``quantum_schur`` computes
    its value on a Schur polynomial without the change of basis, at every n.
    """
    if n > FGP_MAX_N:
        raise ValueError(
            f"quantize's change of basis stops at S_{FGP_MAX_N}: S_{n} needs a "
            f"peel of degree blocks of {FGP_REFUSED_BLOCK} elementary-monomial "
            "products or more; quantum_schur and fgp_product (--basis fgp-oracle) "
            "have no such limit"
        )
    rem = dict(p.terms)
    out: dict[tuple, int] = {}
    for tup, pivot, sign in _standard_solver(n):
        c = rem.get(pivot, 0) * sign
        if not c:
            continue
        for key, v in _quantum_basis_element(tup).terms.items():
            out[key] = out.get(key, 0) + c * v
            if not key[1]:
                left = rem.get(key[0], 0) - c * v
                if left:
                    rem[key[0]] = left
                else:
                    del rem[key[0]]
    if rem:
        raise ValueError(
            f"monomial {next(iter(rem))} lies outside the span of "
            f"elementary-monomial products for n={n} (degree too high in some "
            "variable)"
        )
    return QPoly._trusted(out)


@lru_cache(maxsize=None)
def quantum_schur(lam: tuple[int, ...], k: int, n: int) -> QPoly:
    """The quantum Schur polynomial s^q_lam(x_1..x_k) for lam inside R_{k,n-k}.

    It is the column-flagged dual Jacobi-Trudi determinant
    det(E^{k+j}_{mu_i-i+j}), mu = lam', rows i and columns j counted from 0.
    The same determinant of e_{mu_i-i+j}(x_1..x_{k+j}) is s_lam(x_1..x_k).
    Each of its Laplace terms takes one factor per column, so from distinct
    e(x_1..x_{k+j}) with k + j <= n - 1: a standard elementary monomial.
    ``quantize`` is linear and sends such a monomial to the same product of
    E's, so no change of basis is needed.  Expanded along the columns, with
    the minor on each set of rows memoized for this call.

    >>> str(quantum_schur((2,), 1, 3))
    '-q1 +x1^2'
    """
    lam = _check_shape(lam, k, n)
    mu = [sum(part > j for part in lam) for j in range(max(lam, default=0))]
    minors = {0: QPoly.one()}  # a bitmask of rows -> their minor on the last columns

    def minor(rows: int) -> QPoly:
        if rows not in minors:
            j = len(mu) - rows.bit_count()
            out, sign = QPoly(), 1
            for i, mu_i in enumerate(mu):
                if rows >> i & 1:
                    entry = quantum_elementary(mu_i - i + j, k + j)
                    if entry:
                        out = out + entry * minor(rows & ~(1 << i)) * sign
                    sign = -sign
            minors[rows] = out
        return minors[rows]

    return minor((1 << len(mu)) - 1)


def fgp_product(u: Permutation, lam: tuple[int, ...], k: int) -> Expansion:
    """S_u * s^q_lam(x_1..x_k) through iterated x_m-operators (the FGP route)."""
    monomials = quantum_schur(tuple(lam), k, u.n).monomials()
    return _expansion(u.n, _operator_terms(u.word, monomials, True))


# -- the product routes ---------------------------------------------------------

_FGP = "the FGP quantization oracle"
_LL = "descent exchange on every quantum walk top of rank |lambda|"


def product_routes() -> dict:
    """{(kind, quantum): {basis: (route, what it computes)}} for every product.

    ``kind`` is "hook", "powersum" or "lambda", and route(u, *data, k)
    computes S_u times that class, with data (a, b), (r,) or (lam,).  The
    first basis of a pair is its default, and None marks a pair with one
    route.  The CLI's ``--basis`` and the release gate both look routes up
    here.  Each route is read off its defining module at every call, so a
    rebound name reaches every caller.
    """
    return {
        ("hook", False): {
            "chains": (schubert.hook_multiply_chains, "peakless chains"),
            "minimal": (schubert.hook_multiply_minimal, "minimal intervals"),
        },
        ("hook", True): {
            "hook-theorem": (q_hook_multiply, "the quantum hook rule"),
            "fgp-oracle": (_on_hook(fgp_product), _FGP),
            "ll-reduce": (_on_hook(ll_reduce_product), _LL),
        },
        ("powersum", False): {None: (schubert.powersum_multiply, "")},
        ("powersum", True): {None: (q_powersum_multiply, "")},
        ("lambda", False): {None: (schubert.schur_multiply, "")},
        ("lambda", True): {
            "fgp-oracle": (fgp_product, _FGP),
            "ll-reduce": (ll_reduce_product, _LL),
        },
    }
