"""Words in the left operators v(a,b) and their action on S_n[q].

A letter v(a,b), a != b, sends u to the cover (a,b)u of u in the quantum
k-Bruhat order when that cover exists and to zero otherwise; quantum letters
(a > b) pick up the monomial q_{i,j} of the positions swapped.  Words compose
letters, and everything downstream of the action -- zero-equivalence, the
two-letter relation catalogue, the path/row/column/tree/forest taxonomy, and
the row-times-column decomposition -- is decided semantically, by exhaustive
search over the symmetric group the size of the word's support, pruned on
one-line prefixes that no completion can make act.  One kernel, ``_act_word``,
states the letter-cover test: on a whole one-line word it gives the action,
and on a shorter prefix None means that no completion acts.  The relations
the letters satisfy are verified, never used as a rewriting system: the
catalogue is one rule that sorts every two-letter word into its clause, and
the hand-written lists of the catalogue live in the tests as its reference.
The relabelings here are the two the row/column taxonomy uses, the cyclic shift
and the reversal of the order of application; the taxonomy itself runs on
plain letter tuples.  ``chain_word`` reads a word off a saturated chain.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .kbruhat import Chain, crossing
from .perm import Permutation, _Record, _check_k, _check_size, all_permutations
from .qbruhat import QElement, q_chains

__all__ = [
    "OperatorWord",
    "parse_word",
    "act",
    "first_witness",
    "flatten_word",
    "is_zero_word",
    "equivalent_words",
    "o_shift_word",
    "rho_word",
    "word_components",
    "has_crossing_components",
    "is_tree_word",
    "is_forest_word",
    "is_path_word",
    "row_shift",
    "column_shift",
    "is_row",
    "is_column",
    "classify",
    "relation_table",
    "chain_word",
    "rc_decompose",
    "yellow_window",
    "word_diagram",
    "word_to_dot",
]


class OperatorWord(_Record):
    """A composition of left operators v(a,b) on S_n[q].

    ``letters`` is kept in composition order: ``letters[0]`` is the leftmost
    factor and acts *last*; the first letter applied is ``letters[-1]``.  So
    the word printed ``v(4,1) v(1,2) v(3,4) v(4,5)`` hits a permutation with
    v(4,5) first.  A letter (a, b) is classical when a < b and quantum when
    a > b; the kind is always derived from the pair, never stored, so index
    relabelings cannot desynchronize it.
    """

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        self.n, self.letters = n, tuple((a, b) for a, b in letters)
        for a, b in self.letters:
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"letter ({a},{b}) outside 1..{n}")
            if a == b:
                raise ValueError(f"degenerate letter ({a},{a})")

    @classmethod
    def from_application(
        cls, n: int, letters: Iterable[tuple[int, int]]
    ) -> "OperatorWord":
        """Build a word from letters listed in the order they are applied."""
        return cls(n, tuple(reversed(tuple(letters))))

    @property
    def application_order(self) -> tuple[tuple[int, int], ...]:
        """The letters in the order they act (first-applied first)."""
        return tuple(reversed(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(f"v({a},{b})" for a, b in self.letters)

    def support(self) -> frozenset[int]:
        return _support(self.letters)

    def quantum_letters(self) -> tuple[tuple[int, int], ...]:
        return tuple((a, b) for a, b in self.letters if a > b)

    def is_classical(self) -> bool:
        return all(a < b for a, b in self.letters)


# a letter v(a,b), v{a,b} or bare v a,b, with _ after v and ; for , allowed;
# an opening bracket must meet its own closing one
_LETTER_RE = re.compile(
    r"v\s*_?\s*(?:(\()|(\{))?\s*(\d+)\s*[,;]\s*(\d+)\s*(?(1)\))(?(2)\})"
)


def parse_word(text: str, n: int) -> OperatorWord:
    """Parse a word like "v(2,3) v(1,2)" (rightmost letter applied first).

    >>> parse_word("v(2,3) v(1,2)", 3).letters
    ((2, 3), (1, 2))
    """
    leftover = _LETTER_RE.sub(" ", text).split()
    if leftover:
        raise ValueError(f"cannot parse {' '.join(leftover)!r} in word {text!r}")
    letters = tuple((int(m[3]), int(m[4])) for m in _LETTER_RE.finditer(text))
    return OperatorWord(n, letters)


# ---------------------------------------------------------------------------
# the k-action


def _act_word(
    app: Sequence[tuple[int, int]], prefix: Sequence[int], n: int
) -> tuple[int, int, tuple[int, ...], tuple[int, ...]] | None:
    """The action on a one-line prefix at every k: None, or (lo, hi, inc, image).

    ``app`` lists the letters in application order.  Writing i, j for the
    positions of a, b, a letter acts only when i <= k < j and the swap is a
    cover: no value between a and b may sit strictly between i and j in the
    classical case a < b, and every such value must lie strictly between b
    and a in the quantum case a > b, which also adds q_{i,j}.  Only the test
    on k reads k, so the word acts exactly at lo <= k < hi, lo the largest i
    and hi the smallest j, with the same alpha increments ``inc`` and the
    same ``image`` at each such k.

    That is the action on a whole word of S_n.  On a prefix of p < n values
    None means that no completion acts, exactly so at p = n - 1; any other
    value only says that some completion may.  Letters name their values,
    so positions 1..p stay known after every letter (a, b).  An unplaced a
    counts as position p + 1 for lo, an unplaced b as n for hi: b placed
    with a not is refused there, and a placed with b not is tested on the
    placed values after a, b taking a's place.  Nothing is validated;
    ``act`` is the public entry.
    """
    p = len(prefix)
    # an unplaced b has j = 0: w[i : j - 1] then stops at position p, and
    # a, moved to w[j - 1], lands in the spare slot after it
    w = [*prefix, 0]
    pos = [0] * (n + 1)
    for i, v in enumerate(prefix, 1):
        pos[v] = i
    inc = [0] * (n - 1)
    lo, hi = 1, n
    for a, b in app:
        i = pos[a] or p + 1
        j = pos[b]
        if i > lo:
            lo = i
        if 0 < j < hi:
            hi = j
        if lo >= hi:
            return None
        if i > p:
            continue
        if a < b:
            for m in w[i : j - 1]:
                if a < m < b:
                    return None
        else:
            for m in w[i : j - 1]:
                if not b < m < a:
                    return None
            for wall in range(i - 1, j - 1):
                inc[wall] += 1
        w[i - 1], w[j - 1] = b, a
        pos[a], pos[b] = j, i
    return lo, hi, tuple(inc), tuple(w[:p])


def act(
    word: OperatorWord, u: Permutation | QElement, k: int
) -> QElement | None:
    """Apply the word to u, rightmost letter first; None means zero.

    Zero is absorbing and the q-parts of quantum letters accumulate onto
    whatever exponent u already carries.  The kernel gives the range
    lo <= k < hi where the word acts on u, and one outcome for all of it.
    """
    if isinstance(u, QElement):
        alpha, u = u.alpha, u.w
    else:
        alpha = (0,) * (u.n - 1)
    _check_size(word.n, u.n)
    _check_k(u.n, k)
    out = _act_word(word.application_order, u.word, u.n)
    if out is None or not out[0] <= k < out[1]:
        return None
    inc, image = out[2:]
    return QElement(
        tuple(e + d for e, d in zip(alpha, inc)), Permutation(image)
    )


# ---------------------------------------------------------------------------
# zero-equivalence and (u,k)-equivalence, decided semantically


def _nonzero_outcomes(word: OperatorWord) -> Iterator[tuple]:
    """(u, k, (inc, image)) for every nonzero kernel outcome of the word.

    u runs over S_n as one-line tuples in lexicographic order, then k upward
    through the kernel's range lo <= k < hi, the order of a full scan.  The
    search is exhaustive over S_n, depth first over one-line prefixes with
    one kernel call per prefix: a refused prefix is dropped with all its
    completions, and each whole u reached yields the kernel's outcome.
    """
    app, n = word.application_order, word.n

    def extend(prefix: list[int]) -> Iterator[tuple]:
        for v in range(1, n + 1):
            if v in prefix:
                continue
            prefix.append(v)
            out = _act_word(app, prefix, n)
            if out is not None:
                if len(prefix) < n:
                    yield from extend(prefix)
                else:
                    u = tuple(prefix)
                    lo, hi, inc, image = out
                    for k in range(lo, hi):
                        yield u, k, (inc, image)
            prefix.pop()

    return extend([])


def first_witness(word: OperatorWord) -> tuple[Permutation, int] | None:
    """The lexicographically first (u, k) the word acts nonzero on, if any.

    >>> u, k = first_witness(parse_word("v(2,3) v(1,2)", 3))
    >>> str(u), k
    ('123', 1)
    >>> first_witness(parse_word("v(1,3) v(2,4)", 4)) is None
    True
    """
    for u, k, _ in _nonzero_outcomes(word):
        return Permutation(u), k
    return None


def flatten_word(word: OperatorWord) -> OperatorWord:
    """Relabel the support onto 1..m, preserving relative order.

    The result acts on S_m where m is the support size; by shape-equivalence
    this loses nothing as far as being zero is concerned.
    """
    supp = sorted(word.support())
    relabel = {v: i + 1 for i, v in enumerate(supp)}
    return OperatorWord(
        len(supp), tuple((relabel[a], relabel[b]) for a, b in word.letters)
    )


@lru_cache(maxsize=None)
def _flat_is_zero(flat: OperatorWord) -> bool:
    return first_witness(flat) is None


def is_zero_word(word: OperatorWord) -> bool:
    """Whether the word kills every element at every k.

    Decided by exhaustive search over the flattened ambient S_m, m the
    support size, pruned on one-line prefixes that no completion can make
    act; every u left is tried at every k < m.  The empty word is the
    identity, not zero.
    """
    if not word.letters:
        return False
    return _flat_is_zero(flatten_word(word))


def equivalent_words(v: OperatorWord, w: OperatorWord) -> bool:
    """Equal actions at every u in S_n and every k (same ambient required).

    Plain permutations suffice as inputs: the action on q^alpha u differs
    from the action on u only by the fixed prefactor q^alpha.
    """
    _check_size(v.n, w.n)
    pairs = itertools.zip_longest(_nonzero_outcomes(v), _nonzero_outcomes(w))
    return all(x == y for x, y in pairs)


# ---------------------------------------------------------------------------
# relabelings: cyclic shift and reversal


def _shifted(
    letters: Iterable[tuple[int, int]], r: int, n: int
) -> tuple[tuple[int, int], ...]:
    """Relabel letters through the cyclic shift r times: v -> (v - 1 + r) % n + 1."""
    return tuple(((a - 1 + r) % n + 1, (b - 1 + r) % n + 1) for a, b in letters)


def o_shift_word(word: OperatorWord, power: int = 1) -> OperatorWord:
    """Relabel every letter through the cyclic shift, ``power`` times.

    The shift is the unique relabeling exchanging classical and quantum kinds
    exactly on the letters touching n.
    """
    return OperatorWord(word.n, _shifted(word.letters, power, word.n))


def rho_word(word: OperatorWord) -> OperatorWord:
    """Reverse the order of application; the letters themselves are unchanged."""
    return OperatorWord(word.n, tuple(reversed(word.letters)))


# ---------------------------------------------------------------------------
# the graph of a word and its taxonomy, on plain letter tuples


def _support(letters: Iterable[tuple[int, int]]) -> frozenset[int]:
    return frozenset(v for letter in letters for v in letter)


def _components(letters: Sequence[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Connected components of the letters' graph, as letter lists.

    Letters keep their relative order inside each component; components are
    sorted by smallest support value.
    """
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in letters:
        parent[find(a)] = find(b)
    buckets: dict[int, list[tuple[int, int]]] = {}
    for a, b in letters:
        buckets.setdefault(find(a), []).append((a, b))
    return sorted(buckets.values(), key=lambda ls: min(min(l) for l in ls))


def _components_cross(comps: Sequence[Sequence[tuple[int, int]]]) -> bool:
    return any(
        crossing(_support(c), _support(d))
        for c, d in itertools.combinations(comps, 2)
    )


def word_components(word: OperatorWord) -> tuple[OperatorWord, ...]:
    """Connected components of the word's graph, as subwords.

    Letters keep their relative order inside each component; components are
    sorted by smallest support value and keep the ambient n.
    """
    return tuple(OperatorWord(word.n, tuple(c)) for c in _components(word.letters))


def has_crossing_components(word: OperatorWord) -> bool:
    """Whether two connected components have crossing supports."""
    return _components_cross(_components(word.letters))


def is_tree_word(word: OperatorWord) -> bool:
    """Whether the multigraph is a tree: connected with #letters = #supp - 1."""
    return (
        len(_components(word.letters)) == 1
        and len(word.letters) == len(word.support()) - 1
    )


def is_forest_word(word: OperatorWord) -> bool:
    """Whether every component is a tree and supports pairwise do not cross.

    This is the graph shape only; whether the word also acts nonzero is a
    separate (semantic) question.
    """
    comps = _components(word.letters)
    if any(len(c) != len(_support(c)) - 1 for c in comps):
        return False
    return not _components_cross(comps)


def is_path_word(word: OperatorWord) -> bool:
    """Whether the graph is a simple path traversed compatibly.

    Consecutive letters (in application order) must share exactly one index
    and the first letter applied must contain an endpoint of the path.  Shape
    only; zero words can have this shape.
    """
    if not is_tree_word(word):
        return False
    degree = Counter(v for letter in word.letters for v in letter)
    if any(d > 2 for d in degree.values()):
        return False
    app = word.application_order
    for prev, nxt in zip(app, app[1:]):
        if len(set(prev) & set(nxt)) != 1:
            return False
    ends = {v for v, d in degree.items() if d == 1}
    return bool(set(app[0]) & ends)


def _chain_linked(app: Sequence[tuple[int, int]]) -> bool:
    # a chain in application order: (a1,a2),(a2,a3),...,(ar,br)
    return all(nxt[0] == prev[1] for prev, nxt in zip(app, app[1:]))


def _row_shifts(app: Sequence[tuple[int, int]], n: int) -> list[int]:
    """Every power r < n whose cyclic shift makes ``app`` a classical row.

    A cyclic shift keeps the components, their chain links and, read around
    the circle, their crossings; only which letters are classical depends on r.
    """
    comps = _components(app)
    if not all(map(_chain_linked, comps)) or _components_cross(comps):
        return []
    return [
        r for r in range(n) if all((a - 1 + r) % n < (b - 1 + r) % n for a, b in app)
    ]


def _row_shift(app: Sequence[tuple[int, int]], n: int) -> int | None:
    return next(iter(_row_shifts(app, n)), None)


def row_shift(word: OperatorWord) -> int | None:
    """The least cyclic-shift power making the word a classical row, if any.

    A classical row is a noncrossing union of chains (a1,a2),(a2,a3),... of
    classical letters; chains from different components may interleave, since
    such letters commute.
    """
    return _row_shift(word.application_order, word.n)


def column_shift(word: OperatorWord) -> int | None:
    """The least cyclic-shift power making the word a classical column, if any.

    A column is a row applied in the reverse order, so its application order
    is the word's composition order.
    """
    return _row_shift(word.letters, word.n)


def is_row(word: OperatorWord) -> bool:
    return row_shift(word) is not None


def is_column(word: OperatorWord) -> bool:
    return column_shift(word) is not None


def classify(word: OperatorWord) -> str:
    """Taxonomy of a word: where its graph and its action place it.

    One of "crossing", "zero", "path(single)", "path(row)", "path(column)",
    "row", "column", "tree", "forest", "other".  Crossing components are
    reported before zeroness (such words are also zero when the components
    are connected and minimal).  Rows and columns always act somewhere, so
    their zeroness is never searched; a path-shaped word that is neither
    is zero by the path theorem, while a nonzero path carrying two quantum
    letters, or shifting to a row and a column at once, would be a theorem
    violation and is reported loudly.
    """
    if not word.letters:
        return "other"
    if has_crossing_components(word):
        return "crossing"
    row, col = is_row(word), is_column(word)
    path = is_path_word(word)
    if row or col:
        if path:
            if len(word.quantum_letters()) > 1:
                raise RuntimeError(
                    f"nonzero path with two quantum letters: {word}"
                )
            if len(word.letters) == 1:
                return "path(single)"
            if row and col:
                raise RuntimeError(
                    f"multi-letter path is both row and column: {word}"
                )
            return "path(row)" if row else "path(column)"
        return "row" if row else "column"
    if is_zero_word(word):
        return "zero"
    if path:
        raise RuntimeError(f"nonzero path is neither row nor column: {word}")
    if is_tree_word(word):
        return "tree"
    if is_forest_word(word):
        return "forest"
    return "other"


# ---------------------------------------------------------------------------
# the two-letter relation catalogue

# clause -> (number of words, behaviour), in report order
_CLAUSES = {
    "crossing_pairs": (8, "zero"),
    "mixed_nested_pairs": (4, "zero"),
    "disjoint_free_pairs": (12, "commute"),
    "zero_chain_triples": (6, "zero"),
    "shared_endpoint_pairs": (12, "zero"),
    "live_chain_triples": (6, "distinct"),
    "squares": (2, "zero"),
    "near_inverse_pairs": (2, "q_1"),
}

# the letters of the cycle 1 -> 2 -> 3 -> 1
_CYCLE = {(1, 2), (2, 3), (3, 1)}


def _clause(l1: tuple[int, int], l2: tuple[int, int]) -> str:
    """The clause of the word v(l1) v(l2), whose letters cover exactly 1..m.

    Disjoint letters (m = 4) are crossing, mixed nested -- a quantum letter
    strictly inside a classical one, or two quantum letters side by side --
    or free; letters sharing one index (m = 3) are a live chain when both
    run along the cycle 1 -> 2 -> 3 -> 1, a zero chain when both run against
    it and a shared endpoint otherwise; on m = 2 a word is a square or a
    near-inverse pair.
    """
    m = len(set(l1) | set(l2))
    if m == 4:
        if crossing(l1, l2):
            return "crossing_pairs"
        for (a, b), (c, d) in ((l1, l2), (l2, l1)):
            if a < d < c < b or a > b > c > d:
                return "mixed_nested_pairs"
        return "disjoint_free_pairs"
    if m == 3:
        chains = ("zero_chain_triples", "shared_endpoint_pairs", "live_chain_triples")
        return chains[(l1 in _CYCLE) + (l2 in _CYCLE)]
    return "squares" if l1 == l2 else "near_inverse_pairs"


def _misbehaving(behaviour: str, words: list[OperatorWord]) -> list[str]:
    """The words (or pairs) of a clause that break its behaviour, as text."""
    if behaviour == "zero":
        return [str(w) for w in words if not is_zero_word(w)]
    if behaviour == "q_1":
        # v(a,b) v(b,a) multiplies u by q_1 exactly when (u(1), u(2)) is the
        # first-applied letter (b, a): one quantum and one classical step
        # across wall 1 cancel into a bare q_1
        return [
            str(w)
            for w in words
            for u in all_permutations(2)
            if act(w, u, 1)
            != (QElement((1,), u) if u.word == w.letters[-1] else None)
        ]
    bad = [str(w) for w in words if is_zero_word(w)]
    if behaviour == "commute":
        return bad + [str(w) for w in words if not equivalent_words(w, rho_word(w))]
    pairs = itertools.combinations(words, 2)
    return bad + [f"{v} ~ {w}" for v, w in pairs if equivalent_words(v, w)]


def relation_table() -> dict[str, dict[str, object]]:
    """Brute-force verification of the catalogue of two-letter relations.

    The catalogue is one rule, ``_clause``, over every two-letter word whose
    letters cover exactly 1..m: disjoint supports on S_4, one shared index
    on S_3 and a repeated support on S_2, 52 words in all, each enumerated
    once; the hand-written lists of the catalogue are its test reference.
    Each entry reports the number of words in its clause and whether that
    number and the clause's behaviour (zero, commuting, nonzero and pairwise
    inequivalent, or acting as q_1) held; a failing entry also names its
    first offending word under ``failure``.
    """
    words: dict[str, list[OperatorWord]] = {name: [] for name in _CLAUSES}
    for m in (4, 3, 2):
        letters = list(itertools.permutations(range(1, m + 1), 2))
        for l1, l2 in itertools.product(letters, repeat=2):
            if len(set(l1) | set(l2)) == m:
                words[_clause(l1, l2)].append(OperatorWord(m, (l1, l2)))
    report: dict[str, dict[str, object]] = {}
    for name, (count, behaviour) in _CLAUSES.items():
        got = len(words[name])
        bad = (
            _misbehaving(behaviour, words[name])
            if got == count
            else [f"{got} words, expected {count}"]
        )
        report[name] = {"words": got, "ok": not bad}
        if bad:
            report[name]["failure"] = bad[0]
    return report


# ---------------------------------------------------------------------------
# chains -> words


def chain_word(chain: Chain, n: int) -> OperatorWord:
    """The operator word read off a saturated chain, first cover applied first.

    A step w -> w' with w^{-1} w' the transposition of positions (s, t),
    s < t, contributes the letter (w(s), w(t)); its first entry is the label
    of the cover.
    """
    app: list[tuple[int, int]] = []
    for x, y in zip(chain.elements, chain.elements[1:]):
        wx = x.w if isinstance(x, QElement) else x
        wy = y.w if isinstance(y, QElement) else y
        s, t = sorted((wx.inverse() * wy).support())
        app.append((wx(s), wx(t)))
    return OperatorWord.from_application(n, app)


# ---------------------------------------------------------------------------
# row-times-column decomposition


def rc_decompose(
    word: OperatorWord, u: Permutation, k: int
) -> tuple[OperatorWord, OperatorWord, int]:
    """A row-times-column form of a forest word's action: (R, C, shift).

    C is applied first, R after it, and R C maps u to act(word, u, k); shift
    is a cyclic-shift power making every letter of R C classical while the
    shifted composition still acts nonzero on the shifted u.  The pair is
    found by searching the saturated chains of [u, act(word,u,k)]^q_k for one
    whose word splits as column prefix + row suffix; exhausting the chains
    without a hit would contradict the decomposition theorem and raises
    RuntimeError.
    """
    if not is_forest_word(word):
        raise ValueError(f"not a forest word: {word}")
    target = act(word, u, k)
    if target is None:
        raise ValueError(f"{word} kills {u} at k = {k}")
    n = word.n
    for chain in q_chains(u, target, k):
        app = chain_word(chain, n).application_order
        for cut in range(len(app) + 1):
            col, row = app[:cut], app[cut:]
            shared = set(_row_shifts(col[::-1], n)).intersection(_row_shifts(row, n))
            for r in sorted(shared):
                # the cyclic shift acts on u by values, as on the letters
                shifted_u = tuple((v - 1 + r) % n + 1 for v in u.word)
                out = _act_word(_shifted(app, r, n), shifted_u, n)
                if out is None or not out[0] <= k < out[1]:
                    continue
                R, C = (OperatorWord.from_application(n, ls) for ls in (row, col))
                return R, C, r
    raise RuntimeError(
        f"no row-times-column chain for {word} on {u} at k = {k}; "
        "this contradicts the decomposition theorem"
    )


# ---------------------------------------------------------------------------
# pictures


def yellow_window(word: OperatorWord) -> tuple[tuple[int, int], ...]:
    """Open unit segments inside every quantum span and no classical span.

    The span of v(a,b) is the interval from min(a,b) to max(a,b); a segment
    (i, i+1) belongs to the window when every quantum letter's span contains
    it and no classical letter's span does.  For a path with a quantum
    letter, a nonempty window is what permits the shift to a classical word.
    """
    spans = [(min(a, b), max(a, b), a > b) for a, b in word.letters]
    out = []
    for i in range(1, word.n):
        if all((lo <= i < hi) == quantum for lo, hi, quantum in spans):
            out.append((i, i + 1))
    return tuple(out)


def word_diagram(word: OperatorWord) -> str:
    """Plain-text picture: one line per letter, first-applied on the bottom."""
    lines = []
    app = word.application_order
    for idx in range(len(app), 0, -1):
        a, b = app[idx - 1]
        kind = "quantum" if a > b else "classical"
        lines.append(f"{idx:>3}  v({a},{b})  {kind}")
    window = yellow_window(word)
    if window and word.quantum_letters():
        lines.append(
            "window: " + " ".join(f"({i},{j})" for i, j in window)
        )
    return "\n".join(lines)


def word_to_dot(word: OperatorWord) -> str:
    """DOT multigraph: classical letters green solid, quantum red dashed.

    Edge labels give the application order (1 = applied first).
    """
    lines = ["graph word {", "  node [shape=circle];"]
    for v in sorted(word.support()):
        lines.append(f"  {v};")
    for idx, (a, b) in enumerate(word.application_order, start=1):
        style = (
            "color=green, style=solid"
            if a < b
            else "color=red, style=dashed"
        )
        lines.append(f'  {a} -- {b} [label="{idx}", {style}];')
    lines.append("}")
    return "\n".join(lines)
