"""Command-line front end.

Exit codes: 0 success, 1 a verification or reproduction failed, 2 bad usage.
Bad usage is any ValueError.  The library validates every value (the k-range,
partitions and shapes, hooks, power-sum degrees, sizes), so the front end
checks only what it alone knows:

- integer syntax, with no blank field in --hook or --lambda;
- exactly one of --hook, --powersum and --lambda, and two entries in --hook;
- with --u e, a positive width to infer the ambient S_n from;
- an ambient S_n of at least S_2;
- an --n no smaller than the S_n of --u (product and operators);
- a --basis that applies to the product asked for;
- for operators, --u and --k given together, and neither with --format dot.

Stdout is deterministic - rerunning a command emits identical bytes, and
``verify`` runs the gate serially in one process.  Timings go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from . import verification
from .kbruhat import interval, poset_chains
from .operators import act, classify, parse_word, word_diagram, word_to_dot
from .perm import _check_hook, identity, parse_permutation
from .qbruhat import parse_qelement, q_interval
from .qschubert import (
    fgp_product,
    ll_reduce_product,
    q_hook_multiply,
    q_powersum_multiply,
)
from .schubert import (
    Expansion,
    hook_multiply_chains,
    hook_multiply_minimal,
    powersum_multiply,
    schur_multiply,
)

__all__ = ["main"]


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:  # a blank field, as in '2,,1' or '', is malformed, not skipped
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"malformed {what} {text!r}") from None


def _print_json(obj) -> None:
    import json
    print(json.dumps(obj, indent=2))


def _emit_expansion(exp: Expansion, fmt: str) -> None:
    if fmt == "json":
        terms = [
            {"coeff": c, "q": list(x.alpha), "w": str(x.w)} for x, c in exp.items()
        ]
        _print_json({"terms": terms})
    else:
        print(exp.text())


# -- product ---------------------------------------------------------------------


def _product_shape(args) -> tuple[str, tuple]:
    given = (args.hook, args.powersum, args.shape)
    if sum(value is not None for value in given) != 1:
        raise ValueError("give exactly one of --hook, --powersum, --lambda")
    if args.hook is not None:
        hook = _parse_ints(args.hook, "--hook")
        if len(hook) != 2:
            raise ValueError(f"--hook wants a,b, got {args.hook!r}")
        return "hook", hook
    if args.powersum is not None:
        return "powersum", (args.powersum,)
    return "lambda", (_parse_ints(args.shape, "partition"),)


def _product_ambient(args, u, kind: str, data) -> int:
    if args.n is not None:
        return args.n
    if u is not None:
        return u.n
    # the widest row: b for the hook (a, b), r for p_r, lam_1 for (lam,)
    width = data[0][0] if kind == "lambda" else data[-1]
    if width < 1:
        raise ValueError(f"--u e reads S_n from a positive --{kind} width, got {width}")
    return args.k + width


def _on_hook(route):
    """A route on shapes (u, lam, k) as a route on hooks (u, a, b, k)."""
    return lambda u, a, b, k: route(u, _check_hook(a, b, k, u.n), k)


_FGP = "the FGP quantization oracle"
_LL = "descent exchange on every quantum walk top of rank |lambda|"

# (kind, quantum, --basis) -> (route, what it computes); route(u, *data, k)
# computes the product.  The first basis of a (kind, quantum) pair is its
# default, and None marks a pair with one route.
_PRODUCT_ROUTES = {
    ("hook", False, "chains"): (hook_multiply_chains, "peakless chains"),
    ("hook", False, "minimal"): (hook_multiply_minimal, "minimal intervals"),
    ("hook", True, "hook-theorem"): (q_hook_multiply, "the quantum hook rule"),
    ("hook", True, "ll-reduce"): (_on_hook(ll_reduce_product), _LL),
    ("hook", True, "fgp-oracle"): (_on_hook(fgp_product), _FGP),
    ("powersum", False, None): (powersum_multiply, ""),
    ("powersum", True, None): (q_powersum_multiply, ""),
    ("lambda", False, None): (schur_multiply, ""),
    ("lambda", True, "fgp-oracle"): (fgp_product, _FGP),
    ("lambda", True, "ll-reduce"): (ll_reduce_product, _LL),
}


def _ring(kind: str, quantum: bool) -> str:
    return f"{'quantum' if quantum else 'classical'} --{kind}"


def _product_route(kind: str, quantum: bool, basis: str | None):
    bases = [b for kd, q, b in _PRODUCT_ROUTES if (kd, q) == (kind, quantum)]
    if basis is None:
        basis = bases[0]
    if basis not in bases:
        offer = "drop --basis" if bases == [None] else "choose " + ", ".join(bases)
        raise ValueError(
            f"--basis {basis} does not apply to {_ring(kind, quantum)}; {offer}"
        )
    return _PRODUCT_ROUTES[kind, quantum, basis][0]


def _basis_help() -> str:
    groups: dict[str, list[str]] = {}
    for (kind, quantum, basis), (_route, text) in _PRODUCT_ROUTES.items():
        if basis is not None:
            entries = groups.setdefault(_ring(kind, quantum), [])
            entries.append(f"{basis} ({'' if entries else 'default, '}{text})")
    listed = "; ".join(f"{ring}: {', '.join(e)}" for ring, e in groups.items())
    return f"{listed}; every other product has one route"


def _extend_u(u, n: int, text: str):
    if u.n > n:
        raise ValueError(f"--n {n} is too small for --u {text} in S_{u.n}")
    return u.extend(n)


def cmd_product(args) -> int:
    kind, data = _product_shape(args)
    u = None if args.u == "e" else parse_permutation(args.u)
    n = _product_ambient(args, u, kind, data)
    if n < 2:
        raise ValueError(f"ambient S_{n} is too small")
    u = identity(n) if u is None else _extend_u(u, n, args.u)
    route = _product_route(kind, args.quantum, args.basis)
    _emit_expansion(route(u, *data, args.k), args.format)
    return 0


# -- intervals and chains ----------------------------------------------------------


def _poset(args):
    """The interval from --u up to --target at --k, in the order the target
    picks: the k-Bruhat order below a permutation, else the quantum one."""
    u = parse_permutation(args.u)
    target = parse_qelement(args.target, u.n)
    if target.is_classical():
        return interval(u, target.w, args.k)
    return q_interval(u, target, args.k)


def cmd_interval(args) -> int:
    poset = _poset(args)
    if args.format == "dot":
        print(poset.to_dot())
    elif args.format == "json":
        print(poset.to_json())
    else:
        print(f"{len(poset)} nodes, {len(poset.edges)} edges")
        levels = poset.levels()
        for r in sorted(levels):
            row = " ".join(sorted(str(x) for x in levels[r]))
            print(f"rank {r}: {row}")
        for x, lab, y in sorted(
            poset.edges, key=lambda e: (str(e[0]), e[1], str(e[2]))
        ):
            print(f"{x} -[{lab}]-> {y}")
    return 0


def cmd_chains(args) -> int:
    found = sorted(poset_chains(_poset(args)), key=lambda ch: ch.labels)
    if args.format == "json":
        _print_json(
            {
                "chains": [
                    {
                        "labels": list(ch.labels),
                        "elements": [str(x) for x in ch.elements],
                    }
                    for ch in found
                ]
            }
        )
    else:
        for ch in found:
            labels = ",".join(str(lab) for lab in ch.labels)
            walk = " -> ".join(str(x) for x in ch.elements)
            print(f"{labels}: {walk}")
        print(f"{len(found)} chains")
    return 0


# -- operator words -----------------------------------------------------------------


def cmd_operators(args) -> int:
    word = parse_word(args.word, args.n)
    if (args.k is None) != (args.u is None):
        raise ValueError("--u and --k go together")
    if args.format == "dot":
        if args.u is not None:
            raise ValueError("--format dot draws the word only; drop --u and --k")
        print(word_to_dot(word))
        return 0
    action = None
    if args.u is not None:
        u = _extend_u(parse_permutation(args.u), args.n, args.u)
        result = act(word, u, args.k)
        action = "0" if result is None else str(result)
    if args.format == "json":
        _print_json(
            {
                "word": str(word),
                "letters": [list(l) for l in word.letters],
                "n": word.n,
                "class": classify(word),
                "action": action,
            }
        )
    else:
        print(word_diagram(word))
        print(f"class: {classify(word)}")
        if action is not None:
            print(f"action at k={args.k} on {args.u}: {action}")
    return 0


# -- verify and reproduce -------------------------------------------------------------


def cmd_verify(args) -> int:
    names = verification.resolve_names(args.checks or ["all"])
    failed = 0
    for name in names:
        result = verification.CHECKS[name]()
        status = "ok" if result.ok else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
        print(f"  {result.name}: {result.seconds:.2f}s", file=sys.stderr)
        failed += 0 if result.ok else 1
    if failed:
        print(f"{failed} of {len(names)} checks FAILED")
        return 1
    print(f"all {len(names)} checks passed")
    return 0


def cmd_reproduce(args) -> int:
    text = verification.reproduce_text(args.example)
    print(text, end="")
    expected = verification.fixture_text(args.example)
    if text == expected:
        print("matches the bundled expectation", file=sys.stderr)
        return 0
    import difflib
    diff = difflib.unified_diff(
        expected.splitlines(keepends=True),
        text.splitlines(keepends=True),
        fromfile=f"bundled/{args.example}",
        tofile="recomputed",
    )
    sys.stderr.writelines(diff)
    return 1


# -- parser ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: nothing here varies, and parse_args leaves the
    # parser unchanged
    parser = argparse.ArgumentParser(
        prog="flagmn",
        description="Schubert calculus on the quantum Bruhat order",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="expand a product of Schubert classes")
    p.add_argument("--u", required=True, help="one-line permutation, or e")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, help="ambient size (inferred by default)")
    p.add_argument("--quantum", action="store_true")
    p.add_argument("--hook", help="a,b: hook with a rows, arm b")
    p.add_argument("--powersum", type=int, help="power sum degree")
    p.add_argument("--lambda", dest="shape", help="partition p1,p2,...")
    p.add_argument(
        "--basis",
        choices=list(dict.fromkeys(b for _k, _q, b in _PRODUCT_ROUTES if b)),
        help=_basis_help(),
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_product)

    for name, fn, helptext, formats in (
        ("interval", cmd_interval, "print a k-Bruhat interval", "text json dot"),
        ("chains", cmd_chains, "list the saturated chains of an interval", "text json"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--u", required=True)
        p.add_argument("--target", required=True, help="permutation or q^alpha w")
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--format", choices=formats.split(), default="text")
        p.set_defaults(fn=fn)

    p = sub.add_parser("operators", help="inspect a word in the v(a,b) operators")
    p.add_argument("--word", required=True, help='e.g. "v(4,1) v(1,2)"')
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u", help="act on this permutation")
    p.add_argument("--k", type=int)
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p.set_defaults(fn=cmd_operators)

    p = sub.add_parser("verify", help="rerun the acceptance sweeps")
    p.add_argument(
        "checks",
        nargs="*",
        help=f"names from {sorted(verification.CHECKS)} or groups"
        f" {sorted(verification.GROUPS)} (default: all)",
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "reproduce", help="recompute a worked example and diff it"
    )
    p.add_argument("example", choices=sorted(verification.REPRODUCIBLES))
    p.set_defaults(fn=cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
