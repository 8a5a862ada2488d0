"""Exact Schubert calculus for the flag manifold and its quantum cohomology.

The package computes products of Schubert classes by Schur polynomials in a
leading set of variables — degree-one (Monk), hook, and power-sum cases — in
both the classical and quantum cohomology rings of the complete flag manifold,
together with the combinatorics underlying those rules: the k-Bruhat order and
its quantum analog, minimal permutations and intervals, and the calculus of
left multiplication operators.
"""

from .kbruhat import chains, interval, is_minimal, leq_k
from .operators import OperatorWord, act, classify, parse_word, rc_decompose
from .perm import (
    Permutation,
    from_code,
    from_cycles,
    grassmannian,
    grassmannian_shape,
    hook_partition,
    identity,
    longest_element,
    parse_permutation,
)
from .qbruhat import QElement, parse_qelement, q_chains, q_interval
from .qschubert import (
    QLRQuery,
    fgp_product,
    ll_reduce_product,
    q_hook_multiply,
    q_monk_multiply,
    q_powersum_multiply,
    quantum_lr,
)
from .schubert import (
    Expansion,
    hook_multiply_chains,
    hook_multiply_minimal,
    monk_multiply,
    powersum_multiply,
    schur_multiply,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "Expansion",
    "OperatorWord",
    "Permutation",
    "QElement",
    "QLRQuery",
    "act",
    "chains",
    "classify",
    "fgp_product",
    "from_code",
    "from_cycles",
    "grassmannian",
    "grassmannian_shape",
    "hook_multiply_chains",
    "hook_multiply_minimal",
    "hook_partition",
    "identity",
    "interval",
    "is_minimal",
    "leq_k",
    "ll_reduce_product",
    "longest_element",
    "monk_multiply",
    "parse_permutation",
    "parse_qelement",
    "parse_word",
    "powersum_multiply",
    "q_chains",
    "q_hook_multiply",
    "q_interval",
    "q_monk_multiply",
    "q_powersum_multiply",
    "quantum_lr",
    "rc_decompose",
    "run_checks",
    "schur_multiply",
]


def __getattr__(name: str):
    # the release gate loads on first use, not with the package
    if name in ("CheckResult", "run_checks"):
        from . import verification

        return getattr(verification, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
