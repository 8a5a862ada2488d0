"""Release-gate sweeps: every headline guarantee recomputed from scratch.

Each check is declared once, with ``@_check``, and is independent of the
others, so ``run_checks`` can execute any subset.  The gate runs serially in
one process: each sweep maps a pure worker over plain-tuple cases in input
order, so reports, first failures included, are byte-identical on every run.

The ``reproduce_text`` builders regenerate the worked examples that ship as
fixture files; ``fixture_text`` loads the bundled expectation they are
diffed against.  The fixtures are frozen reference data - checks compare
against them, never regenerate them.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from typing import Callable, Iterable, Iterator, Sequence

from .kbruhat import (
    find_witness,
    interval,
    is_minimal,
    peakless_chain_counts,
    peakless_count,
)
from .operators import (
    OperatorWord,
    act,
    equivalent_words,
    first_witness,
    is_column,
    is_forest_word,
    is_path_word,
    is_row,
    is_zero_word,
    o_shift_word,
    rc_decompose,
    relation_table,
    yellow_window,
)
from .perm import (
    Permutation,
    _Record,
    all_permutations,
    cyclic_shift,
    is_hook,
    longest_element,
    parse_permutation,
    partitions,
)
from .qbruhat import (
    QElement,
    is_minimal_interval,
    parse_qelement,
    q_ij,
    q_interval,
    q_up_covers,
)
from .qschubert import (
    QLRQuery,
    ll_reduce_step,
    o_shift_element,
    product_routes,
    q_monk_multiply,
    quantum_lr,
    rho_element,
    w0_element,
)
from .schubert import Expansion, _expansion, _on_hook, poly_product

__all__ = [
    "CheckResult",
    "CHECKS",
    "GROUPS",
    "REPRODUCIBLES",
    "fixture_text",
    "reproduce_text",
    "resolve_names",
    "run_checks",
]


class CheckResult(_Record):
    __slots__ = ("name", "ok", "detail", "seconds")

    def __init__(self, name: str, ok: bool, detail: str, seconds: float):
        self.name, self.ok, self.detail, self.seconds = name, ok, detail, seconds


CHECKS: dict[str, Callable[[], CheckResult]] = {}


def _check(name: str):
    """Register ``fn() -> (failure, detail)`` as the timed gate check ``name``.

    ``failure`` is None on a pass and otherwise names the first failing case;
    an exception raised by ``fn`` is reported as the failure, with its
    traceback on stderr.
    CHECKS keeps definition order, the order ``verify all`` runs in.
    """

    def register(fn: Callable[[], tuple[str | None, str]]):
        @functools.wraps(fn)
        def run() -> CheckResult:
            t0 = time.perf_counter()
            try:
                failure, detail = fn()
            except Exception as e:
                import traceback
                traceback.print_exc()  # a raising route fails this check only
                failure = f"raised {type(e).__name__}: {e}"
                detail = "did not complete"
            if failure is not None:
                detail += f"; first failure: {failure}"
            return CheckResult(name, failure is None, detail, time.perf_counter() - t0)

        CHECKS[name] = run
        return run

    return register


def _sweep(worker: Callable, cases: Iterable) -> tuple[int, str | None]:
    """Sum the checked counts; keep the first failure in input order.

    Each distinct case runs once, in first-seen order, and a repeated case
    counts as often as it was drawn; workers are pure functions of a case.
    """
    cases = list(cases)
    distinct = list(dict.fromkeys(cases))
    result_of = dict(zip(distinct, map(worker, distinct)))
    results = [result_of[case] for case in cases]
    failures = (failure for _, failure in results if failure is not None)
    return sum(c for c, _ in results), next(failures, None)


def _first_failure(case: str, *tests: tuple[str, bool]) -> str | None:
    """``"case: label"`` for the first ``(label, passed)`` test that failed."""
    return next((f"{case}: {label}" for label, passed in tests if not passed), None)


def _disagreement(label: str, got: Expansion, expected: Expansion) -> tuple[str, bool]:
    """The test ``got == expected``; its label names the first differing term."""
    if got == expected:
        return label, True
    return f"{label} at {(got - expected).items()[0][0]}", False


# -- fixtures -------------------------------------------------------------------


def fixture_text(name: str) -> str:
    if name not in REPRODUCIBLES:
        raise ValueError(
            f"unknown fixture {name!r}; choose from {sorted(REPRODUCIBLES)}"
        )
    from importlib import resources
    fname = name.replace("-", "_") + ".txt"
    return (resources.files("flagmn") / "fixtures" / fname).read_text()


def _matches_fixture(name: str, text: str) -> tuple[str, bool]:
    return "reproduce != the bundled fixture", text == fixture_text(name)


# -- worked examples (also the `reproduce` builders) ----------------------------
#
# Each ``_example`` helper computes its example once and returns the values its
# check tests, then the text that ``reproduce`` prints (see REPRODUCIBLES).

_Q_MONK_U = "1432"
_Q_MONK_K = 2


def _q_monk_example() -> tuple[Permutation, Expansion, str]:
    u = parse_permutation(_Q_MONK_U)
    exp = q_monk_multiply(u, _Q_MONK_K)
    head = f"S_{_Q_MONK_U} * S_s{_Q_MONK_K} in qH*Fl_{u.n}"
    return u, exp, head + "\n" + exp.text() + "\n"


@_check("q-monk")
def check_q_monk():
    u, exp, text = _q_monk_example()
    expected = {
        "3412": 1,
        "2431": 1,
        "q^(0,1,0) 1342": 1,
        "q^(0,1,1) 1234": 1,
    }
    terms = {str(x): c for x, c in exp.terms.items()}
    failure = _first_failure(
        f"u={u} k={_Q_MONK_K} class=s1",
        ("cover rule != the printed table", terms == expected),
        _disagreement(
            "cover rule != fgp-oracle",
            exp,
            product_routes()["lambda", True]["fgp-oracle"][0](u, (1,), _Q_MONK_K),
        ),
        _matches_fixture("q-monk", text),
    )
    return failure, "divisor product: cover rule = quantization oracle"


_MN_U = "68235741"
_MN_R = 4
_MN_K = 5


def _mn_example() -> tuple[Expansion, str]:
    exp = product_routes()["powersum", True][None][0](
        parse_permutation(_MN_U), _MN_R, _MN_K
    )
    head = f"S_{_MN_U} * p{_MN_R}(x_1..x_{_MN_K}) in qH*Fl_8"
    return exp, head + "\n" + exp.text() + "\n"


@_check("mn-example")
def check_mn_example():
    exp, text = _mn_example()
    failure = _first_failure(
        f"u={_MN_U} k={_MN_K} p{_MN_R}",
        (f"{len(exp)} terms, not 17", len(exp) == 17),
        _matches_fixture("mn-example", text),
    )
    detail = f"power sum in S_8[q]: {len(exp)} signed terms match the bundled table"
    return failure, detail


_QMIN_U = "68235741"
_QMIN_W = "78251346"
_QMIN_K = 5
_QMIN_ALPHA = q_ij(5, 8, 8)


def _q_minimal_example() -> tuple[dict[tuple[int, ...], int], str]:
    """The |lam| = 4 coefficients at (u, w, q_{5,8}), and the printed table."""
    u = parse_permutation(_QMIN_U)
    w = parse_permutation(_QMIN_W)
    lines = [
        f"N^(w,alpha)_(u,v(lam,{_QMIN_K})) for u = {u}, w = {w}, "
        f"alpha = {_fmt_vec(_QMIN_ALPHA)} in S_8[q]"
    ]
    query = QLRQuery(u, w, _QMIN_ALPHA, (2, 2), _QMIN_K)
    lines.append("reduction path:")
    while any(query.alpha):
        step = ll_reduce_step(query)
        if step is None:  # would mean a zero coefficient
            lines.append("  stuck: coefficient is zero")
            break
        i, query = step
        lines.append(
            f"  i={i}  u={query.u}  w={query.w}  alpha={_fmt_vec(query.alpha)}"
        )
    lines.append("numerical parts at |lam| = 4:")
    values = {}
    for lam in partitions(4):
        try:
            values[lam] = quantum_lr(QLRQuery(u, w, _QMIN_ALPHA, lam, _QMIN_K))
        except ValueError:
            values[lam] = 0  # shape has no Grassmannian class at this k
        lines.append(f"  {_fmt_vec(lam):<12} {values[lam]}")
    return values, "\n".join(lines) + "\n"


def _fmt_vec(v: Sequence[int]) -> str:
    return "(" + ",".join(str(a) for a in v) + ")"


@_check("q-minimal")
def check_q_minimal():
    values, text = _q_minimal_example()
    expected = {
        (4,): 0,
        (3, 1): 0,
        (2, 2): 1,
        (2, 1, 1): 1,
        (1, 1, 1, 1): 0,
    }
    failure = _first_failure(
        f"u={_QMIN_U} w={_QMIN_W} k={_QMIN_K}",
        (f"ll-reduce {values} != the printed table", values == expected),
        _matches_fixture("q-minimal", text),
    )
    return failure, "descent-exchange path and all |lam| = 4 coefficients as printed"


# -- oracle equivalences ----------------------------------------------------------


def _hooks(n: int) -> Iterator[tuple[int, int, int]]:
    """Every (k, a, b) whose hook (b, 1^(a-1)) fits the k x (n - k) box."""
    for k in range(1, n):
        for a in range(1, k + 1):
            for b in range(1, n - k + 1):
                yield k, a, b


def _poly_oracle(u: Permutation, lam: tuple[int, ...], k: int) -> Expansion:
    """``poly_product`` restricted to S_n, as an Expansion."""
    n, zero = u.n, (0,) * (u.n - 1)
    poly = poly_product(u, lam, k)
    terms = {(zero, w.extend(n).word): c for w, c in poly.items() if w.n <= n}
    return _expansion(n, terms)


def _oracle_worker(case: tuple) -> tuple[int, str | None]:
    word, k, a, b, quantum = case
    u = Permutation(word)
    # the hook rule, then the routes that check it, as (name, route(u, a, b,
    # k)); looked up per call, so a rebound route name takes effect
    routes = [(name, r) for name, (r, _) in product_routes()["hook", quantum].items()]
    if not quantum:
        routes.append(("poly-oracle", _on_hook(_poly_oracle)))
    (rule, multiply), *checks = routes
    got = multiply(u, a, b, k)
    return 1, _first_failure(
        f"u={u} k={k} hook={a},{b}",
        *(_disagreement(f"{rule} != {name}", got, r(u, a, b, k)) for name, r in checks),
    )


@_check("classical-oracles")
def check_classical_oracles():
    n = 5
    cases = ((u.word, *hook, False) for u in all_permutations(n) for hook in _hooks(n))
    checked, failure = _sweep(_oracle_worker, cases)
    return failure, (
        f"S_{n}: {checked} hook products, chain rule = minimal-interval rule"
        " = polynomial oracle"
    )


_SEED_QUANTUM = 20230814
_HOOK_S8 = ((6, 8, 2, 3, 5, 7, 4, 1), 4, 4, 4, True)  # the S_8 CLI probe hook-s8


def _quantum_oracle_cases() -> tuple[list, int]:
    cases = [(u.word, *hook, True) for u in all_permutations(4) for hook in _hooks(4)]
    exhaustive = len(cases)
    rng = random.Random(_SEED_QUANTUM)
    words5 = [p.word for p in all_permutations(5)]
    for _ in range(200):
        word = rng.choice(words5)
        k = rng.randrange(1, 5)
        a = rng.randint(1, k)
        b = rng.randint(1, 5 - k)
        cases.append((word, k, a, b, True))
    cases.append(_HOOK_S8)
    return list(dict.fromkeys(cases)), exhaustive  # 189 of the 200 draws differ


@_check("quantum-oracles")
def check_quantum_oracles():
    cases, exhaustive = _quantum_oracle_cases()
    _checked, failure = _sweep(_oracle_worker, cases)
    return failure, (
        f"{exhaustive} exhaustive S_4 + {len(cases) - exhaustive - 1} seeded S_5"
        " + 1 fixed S_8 hook products: theorem = quantization = coefficient recursion"
    )


# -- property sweeps --------------------------------------------------------------


def _peakless_worker(word: tuple[int, ...]) -> tuple[int, str | None]:
    zeta = Permutation(word)
    if not is_minimal(zeta):
        return 0, None
    u, k = find_witness(zeta)
    got = peakless_chain_counts(u, zeta * u, k)
    expect = {}
    for a in range(1, zeta.n + 1):
        c = peakless_count(zeta, a)
        if c:
            expect[a] = c
    return 1, _first_failure(
        f"zeta={zeta} u={u} k={k}",
        (f"chain census {got} != C(s-1, het-a) {expect}", got == expect),
    )


@_check("peakless-binomials")
def check_peakless_binomials():
    words = (z.word for z in all_permutations(6))
    minimal, failure = _sweep(_peakless_worker, words)
    detail = f"{minimal} minimal zeta in S_6: chain census matches C(s-1, het-a)"
    return failure, detail


@_check("degree-two-relations")
def check_degree_two_relations():
    table = relation_table()
    bad = [(name, e["failure"]) for name, e in table.items() if not e["ok"]]
    words = sum(entry["words"] for entry in table.values())
    failure = "relation clause {}: {}".format(*bad[0]) if bad else None
    return failure, f"{words} two-letter words across {len(table)} relation clauses"


def _structural_paths(top: int):
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
                yield oriented
                if len(oriented) > 1:  # a one-letter word is its own reversal
                    yield oriented[::-1]


def _path_worker(letters: tuple[tuple[int, int], ...]) -> tuple[int, str | None]:
    word = OperatorWord.from_application(5, letters)
    if not is_path_word(word):
        return 0, f"{word}: not a path word"
    row, col = is_row(word), is_column(word)
    if is_zero_word(word):
        return 0, _first_failure(
            str(word), ("zero, yet a row or column", not (row or col))
        )
    quantum = word.quantum_letters()
    return 1, _first_failure(
        str(word),
        ("more than one quantum letter", len(quantum) <= 1),
        ("neither row nor column", row or col),
        ("both row and column", len(word) == 1 or not (row and col)),
        ("empty yellow window", not quantum or yellow_window(word) != ()),
    )


@_check("quantum-paths")
def check_quantum_paths():
    cases = list(_structural_paths(5))
    nonzero, failure = _sweep(_path_worker, cases)
    return failure, (
        f"{len(cases)} path words on <= 5 strands, {nonzero} nonzero:"
        " <= 1 quantum letter, row xor column"
    )


_SEED_FOREST = 39088169
_FOREST_TARGET = 500
# most random orientations act as zero everywhere; 697 of the 3,500 draws
# (about 20%) carry a witness.  The draws hold 2,144 distinct words, and
# _sweep searches each of them once
_FOREST_DRAWS = 3500


def _random_forest_words(count: int, seed: int) -> list[tuple[int, tuple]]:
    rng = random.Random(seed)

    def random_tree_on(values: list[int]) -> list[tuple[int, int]]:
        verts = list(values)
        rng.shuffle(verts)
        letters = []
        for i in range(1, len(verts)):
            other = rng.choice(verts[:i])
            pair = (verts[i], other)
            letters.append(pair if rng.random() < 0.5 else pair[::-1])
        rng.shuffle(letters)
        return letters

    out: list[tuple[int, tuple]] = []
    while len(out) < count:
        n = rng.choice((5, 6))
        values = list(range(1, n + 1))
        cut = rng.randint(2, n - 2)
        blocks = [values[:cut], values[cut:]]
        if rng.random() < 0.5:
            blocks = [rng.sample(values, rng.randint(2, n))]
        letters: list[tuple[int, int]] = []
        for block in blocks:
            letters.extend(random_tree_on(block))
        word = OperatorWord(n, tuple(letters))
        if is_forest_word(word):
            out.append((n, word.letters))
    return out


def _forest_worker(case: tuple[int, tuple]) -> tuple[int, str | None]:
    n, letters = case
    word = OperatorWord(n, letters)
    witness = first_witness(word)
    if witness is None:
        return 0, None
    u, k = witness
    row, col, shift = rc_decompose(word, u, k)
    together = OperatorWord(n, row.letters + col.letters)
    return 1, _first_failure(
        f"{word} in S_{n}[q] on u={u} k={k}",
        (f"R = {row} is not a row", is_row(row)),
        (f"C = {col} is not a column", is_column(col)),
        ("R C acts differently", act(together, u, k) == act(word, u, k)),
        ("R C stays quantum", o_shift_word(together, shift).is_classical()),
        ("not equivalent to R C", n != 5 or equivalent_words(word, together)),
    )


@_check("forest-decomposition")
def check_forest_decomposition():
    cases = _random_forest_words(_FOREST_DRAWS, _SEED_FOREST)
    found, failure = _sweep(_forest_worker, cases)
    if failure is None and found < _FOREST_TARGET:
        failure = f"{found} nonzero words, fewer than {_FOREST_TARGET}"
    return failure, (
        f"{found} random nonzero forest words in S_5[q]/S_6[q] split into"
        " row x column"
    )


_SEED_INTERVALS = 2971215073
_INTERVAL_TARGET = 100


def _random_interval_cases(count: int, seed: int) -> list[tuple]:
    rng = random.Random(seed)
    words = [p.word for p in all_permutations(5)]
    cases: list[tuple] = []
    seen = set()
    while len(cases) < count:
        u = Permutation(rng.choice(words))
        k = rng.randrange(1, 5)
        x = QElement((0, 0, 0, 0), u)
        for _ in range(rng.randint(1, 4)):
            # swapping positions k, k+1 is always a cover, classical or
            # quantum, so the list is never empty and x ends above u
            x = rng.choice(q_up_covers(x, k))[1]
        key = (u.word, k, x.alpha, x.w.word)
        if key not in seen:
            seen.add(key)
            cases.append(key)
    return cases


def _interval_worker(case: tuple) -> tuple[int, str | None]:
    u_word, k, alpha, w_word = case
    u = Permutation(u_word)
    top = QElement(alpha, Permutation(w_word))
    n = u.n
    w0 = longest_element(n)
    src = q_interval(u, top, k)

    def transported_ok(bottom, new_top, new_k, send, reverse: bool) -> bool:
        try:  # a map that leaves the order fails here, not as a crash
            image = {z: send(z) for z in src.elements}
            tgt = q_interval(bottom, new_top, new_k)
        except ValueError:
            return False
        if set(tgt.elements) != set(image.values()):
            return False
        height = src.rank_of[top]
        for z in src.elements:
            want = height - src.rank_of[z] if reverse else src.rank_of[z]
            if tgt.rank_of[image[z]] != want:
                return False
        tgt_pairs = {(a, b) for a, _lab, b in tgt.edges}
        for a, _lab, b in src.edges:
            pair = (image[b], image[a]) if reverse else (image[a], image[b])
            if pair not in tgt_pairs:
                return False
        return True

    # (name, bottom, top, k, the map on elements, whether it reverses order)
    transports = (
        (
            "shift",
            cyclic_shift(n) * u,
            o_shift_element(u, top),
            k,
            lambda z: o_shift_element(u, z),
            False,
        ),
        ("w0", w0 * u * w0, w0_element(top), n - k, w0_element, False),
        (
            "complementation",
            top.w * w0,
            rho_element(top.alpha, QElement((0,) * (n - 1), u)),
            n - k,
            lambda z: rho_element(top.alpha, z),
            True,
        ),
    )
    return 1, _first_failure(
        f"u={u} k={k} top={top}",
        *((f"{name} transport fails", transported_ok(*t)) for name, *t in transports),
    )


@_check("interval-equivalences")
def check_interval_equivalences():
    cases = _random_interval_cases(_INTERVAL_TARGET, _SEED_INTERVALS)
    _checked, failure = _sweep(_interval_worker, cases)
    return failure, (
        f"{len(cases)} random intervals in S_5[q]: shift, w0 and"
        " complementation transports are graded isomorphisms"
    )


def _independence_shapes(n: int, k: int, hooks_only: bool):
    for size in range(1, k * (n - k) + 1):
        for lam in partitions(size, max_part=n - k, max_parts=k):
            if not hooks_only or is_hook(lam):
                yield lam


def _independence_worker(args: tuple[int, tuple[int, ...]]) -> tuple[str, list]:
    n, word = args
    u = Permutation(word)
    hooks_only = n >= 5
    # the hook rule reads each coefficient off zeta alone, so it could never
    # split a class: the S_5 hooks run through ll-reduce instead
    route = "ll-reduce" if hooks_only else "fgp-oracle"
    multiply = product_routes()["lambda", True][route][0]
    u_inv = u.inverse()
    rows = []
    for k in range(1, n):
        for lam in _independence_shapes(n, k, hooks_only):
            for z, c in multiply(u, lam, k).items():
                rows.append((str(z.w * u_inv), lam, c))
    return f"from {route} at u={u}", rows


@_check("quantum-independence")
def check_quantum_independence():
    args = [(4, u.word) for u in all_permutations(4)]
    args += [(5, u.word) for u in all_permutations(5)]
    # (zeta, lam) -> {numerical part: the first case that gave it}
    groups: dict[tuple, dict[int, str]] = {}
    for case, rows in map(_independence_worker, args):
        for zeta, lam, c in rows:
            groups.setdefault((zeta, lam), {}).setdefault(c, case)
    split = [(key, vals) for key, vals in groups.items() if len(vals) != 1]
    failure = None
    if split:
        key, vals = split[0]
        two = ", ".join(f"{c} {case}" for c, case in list(vals.items())[:2])
        failure = f"(zeta, lam) = {key}: numerical parts differ: {two}"
    return failure, (
        f"{len(groups)} (zeta, shape) classes over S_4 (all shapes) and S_5"
        " (hooks): numerical parts depend only on the class"
    )


# -- figure regressions -----------------------------------------------------------


def _poset_block(title: str, poset, *, minimal: bool | None = None) -> list[str]:
    lines = [f"{title}: {len(poset)} nodes, {len(poset.edges)} edges"]
    if minimal is not None:
        lines[0] += ", minimal" if minimal else ", not minimal"
    levels = poset.levels()
    lines.append(
        "levels " + " ".join(str(len(levels[r])) for r in sorted(levels))
    )
    lines.append(
        "labels " + " ".join(str(lab) for lab in poset.edge_labels())
    )
    lines.append("nodes " + " ".join(sorted(str(x) for x in poset.elements)))
    return lines


def figures_text() -> str:
    lines: list[str] = []
    for u, top, k in (("68235741", "68357421", 5), ("3217465", "6274135", 3)):
        u, top = parse_permutation(u), parse_permutation(top)
        lines += _poset_block(f"[{u}, {top}]_{k}", interval(u, top, k))

    x0 = parse_qelement("1432", 4)
    level1 = sorted({str(y) for _, y in q_up_covers(x0, 2)})
    level2 = sorted(
        {
            str(z)
            for _, y in q_up_covers(x0, 2)
            for _, z in q_up_covers(y, 2)
        }
    )
    lines.append("covers of 1432 at k=2: " + ", ".join(level1))
    lines.append("second level: " + ", ".join(level2))

    for u, top, k in (
        ("53421", "q^(1,2,2,1) 12354", 2),
        ("41352", "q^(0,0,1,1) 52134", 3),
        ("68231574", "78256134", 5),
        ("68235741", "q^(0,0,0,0,1,1,1) 78251346", 5),
    ):
        u = parse_permutation(u)
        top = parse_qelement(top, u.n)
        lines += _poset_block(
            f"[{u}, {top}]_{k}",
            q_interval(u, top, k),
            minimal=is_minimal_interval(u, top, k),
        )
    return "\n".join(lines) + "\n"


@_check("figures")
def check_figures():
    failure = _first_failure("figures", _matches_fixture("figures", figures_text()))
    return failure, (
        "two classical intervals, the quantum layer table and four quantum"
        " intervals match the bundled drawings"
    )


# -- registry ---------------------------------------------------------------------

GROUPS: dict[str, tuple[str, ...]] = {
    "properties": (
        "peakless-binomials",
        "degree-two-relations",
        "quantum-paths",
        "forest-decomposition",
        "interval-equivalences",
        "quantum-independence",
    ),
    "all": tuple(CHECKS),
}

REPRODUCIBLES: dict[str, Callable[[], str]] = {
    "q-monk": lambda: _q_monk_example()[-1],
    "mn-example": lambda: _mn_example()[-1],
    "q-minimal": lambda: _q_minimal_example()[-1],
    "figures": figures_text,
}


def reproduce_text(name: str) -> str:
    try:
        return REPRODUCIBLES[name]()
    except KeyError:
        raise ValueError(
            f"unknown example {name!r}; choose from {sorted(REPRODUCIBLES)}"
        ) from None


def resolve_names(names: Sequence[str]) -> list[str]:
    """Expand group names and validate, preserving first-mention order."""
    out: list[str] = []
    for name in names:
        expanded = GROUPS.get(name, (name,))
        for item in expanded:
            if item not in CHECKS:
                raise ValueError(
                    f"unknown check {item!r}; choose from"
                    f" {sorted(CHECKS)} or groups {sorted(GROUPS)}"
                )
            if item not in out:
                out.append(item)
    return out


def run_checks(names: Sequence[str] = ("all",)) -> list[CheckResult]:
    return [CHECKS[name]() for name in resolve_names(names)]
