"""CLI plumbing: flag parsing, output formats and exit codes."""

import hashlib
import itertools
import json
import pathlib
import random
import re
import shlex

import pytest

from flagmn import cli, verification
from flagmn.cli import main
from flagmn.perm import all_permutations, is_hook, partitions
from flagmn.schubert import Expansion
from flagmn.verification import fixture_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quantum_monk_product(capsys):
    code, out, _ = run(
        capsys, "product", "--quantum", "--u", "1432", "--k", "2", "--hook", "1,1"
    )
    assert code == 0
    assert out == "+1 2431\n+1 3412\n+1 q^(0,1,0) 1342\n+1 q^(0,1,1) 1234\n"


def test_identity_hook_product_infers_ambient(capsys):
    code, out, _ = run(capsys, "product", "--u", "e", "--k", "1", "--hook", "1,1")
    assert code == 0
    assert out == "+1 21\n"


def test_value_errors_come_from_the_library(capsys):
    product = ("product", "--u", "1432", "--k", "2")
    for flag, value, want in (
        ("--lambda", "1,3", "not a partition: (1, 3)"),
        ("--lambda", "0,1", "not a partition: (0, 1)"),
        (
            "--hook",
            "3,1",
            "hook a=3, b=1: shape (1, 1, 1) does not fit in the 2 x 2 rectangle",
        ),
        ("--hook", "0,1", "hook needs a >= 1 and b >= 1, got a=0, b=1"),
        (
            "--hook",
            "1000000,1",
            "hook a=1000000, b=1: shape (1, 1, 1, 1) does not fit in the 2 x 2 "
            "rectangle",
        ),
        ("--powersum", "0", "power sum degree must be positive, got 0"),
    ):
        assert run(capsys, *product, flag, value) == (2, "", f"usage error: {want}\n")
    # with --u e the ambient S_n comes from the width, so it must be positive
    code, _, err = run(capsys, "product", "--u", "e", "--k", "1", "--powersum", "0")
    assert code == 2 and err.endswith("positive --powersum width, got 0\n")


def test_comma_separated_u_infers_the_same_ambient(capsys):
    args = ("product", "--k", "1", "--hook", "1,1")
    assert run(capsys, *args, "--u", "2,1,3") == run(capsys, *args, "--u", "213")


def test_quantum_bases_agree(capsys):
    args = ("product", "--quantum", "--u", "41352", "--k", "3", "--hook", "2,1")
    code_a, text_a, _ = run(capsys, *args)
    code_b, text_b, _ = run(capsys, *args, "--basis", "fgp-oracle")
    code_c, text_c, _ = run(capsys, *args, "--basis", "ll-reduce")
    assert code_a == code_b == code_c == 0
    assert text_a == text_b == text_c


def test_quantum_lambda_routes_agree(capsys):
    args = ("product", "--quantum", "--u", "41352", "--k", "3", "--lambda", "2,2")
    code_a, text_a, _ = run(capsys, *args)
    code_b, text_b, _ = run(capsys, *args, "--basis", "ll-reduce")
    assert code_a == code_b == 0
    assert text_a == text_b and text_a.count("\n") > 1


def test_ll_reduce_reaches_past_the_fgp_oracle(capsys):
    args = ("product", "--quantum", "--u", "68235741", "--k", "4", "--lambda", "3,2,1")
    code, _, err = run(capsys, *args, "--basis", "fgp-oracle")
    assert code == 2 and "stops at S_7" in err
    code, out, _ = run(capsys, *args, "--basis", "ll-reduce")
    assert code == 0 and len(out.splitlines()) == 36


def test_fgp_refusal_names_the_route_without_the_limit(capsys):
    # the default quantum --lambda basis is fgp-oracle, which stops at S_7
    args = ("product", "--quantum", "--u", "68235741", "--k", "4", "--lambda", "3,2,1")
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert err.startswith("usage error: the FGP quantization oracle stops at S_7")
    assert err.endswith("; ll_reduce_product (--basis ll-reduce) has no such limit\n")


# sha256 of the stdout of every product in _quantum_route_products, recorded
# at commit 92e9816 (x_m as Monk at m minus Monk at m - 1, and ll-reduce on
# Permutation queries)
QUANTUM_ROUTES_SHA256 = "e3effdbe91445f41c2ed99debec3ed8bf4c3f28f4cf9ee893169912cc1aec65d"


def _quantum_route_products():
    """argv of every quantum --hook and --lambda product at S_4 and of every
    shape on a seeded S_5 sample, through ll-reduce and fgp-oracle."""
    cases = [(str(u), k) for u in all_permutations(4) for k in range(1, 4)]
    rng = random.Random("quantum-route-stdout")
    for _ in range(10):
        u = "".join(map(str, rng.sample(range(1, 6), 5)))
        cases.append((u, rng.randint(1, 4)))
    for u, k in cases:
        n = len(u)
        for size in range(1, k * (n - k) + 1):
            for lam in partitions(size, n - k, k):
                flags = [("--lambda", ",".join(map(str, lam)))]
                if is_hook(lam):
                    flags.append(("--hook", f"{len(lam)},{lam[0]}"))
                for flag, basis in itertools.product(flags, ("ll-reduce", "fgp-oracle")):
                    yield ("product", "--quantum", "--u", u, "--k", str(k), *flag,
                           "--basis", basis)


def test_quantum_route_stdout_is_byte_identical(capsys):
    digest = hashlib.sha256()
    for argv in _quantum_route_products():
        code, out, _err = run(capsys, *argv)
        assert code == 0, argv
        digest.update(f"{' '.join(argv)}\n{out}".encode())
    assert digest.hexdigest() == QUANTUM_ROUTES_SHA256


def test_interval_and_chains_refuse_a_target_of_another_size(capsys):
    # the target was read at the size of --u: a smaller one was silently
    # extended, and a larger one leaked the message of extend()
    for command, u, target, sizes in (
        ("interval", "1432", "12", "S_4 and S_2"),
        ("chains", "12", "1432", "S_2 and S_4"),
    ):
        argv = (command, "--u", u, "--target", target, "--k", "1")
        want = f"usage error: size mismatch: {sizes}\n"
        assert run(capsys, *argv) == (2, "", want)


def test_unreadable_permutation_is_named(capsys):
    argv = ("product", "--u", "1,,2", "--k", "1", "--hook", "1,1")
    want = "usage error: cannot parse '1,,2' as a permutation\n"
    assert run(capsys, *argv) == (2, "", want)


def test_classical_bases_agree(capsys):
    args = ("product", "--u", "41352", "--k", "3", "--hook", "2,2")
    code_a, text_a, _ = run(capsys, *args)
    code_b, text_b, _ = run(capsys, *args, "--basis", "minimal")
    assert code_a == code_b == 0
    assert text_a == text_b


def test_product_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "product", "--quantum", "--u", "1432", "--k", "2", "--hook", "1,1",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["terms"]) == 4
    assert {"coeff": 1, "q": [0, 1, 1], "w": "1234"} in data["terms"]


def test_powersum_product_term_count(capsys):
    code, out, _ = run(
        capsys,
        "product", "--quantum", "--u", "68235741", "--k", "5", "--powersum", "4",
    )
    assert code == 0
    assert len(out.splitlines()) == 17


def test_interval_formats(capsys):
    base = ("interval", "--u", "1432", "--target", "q^(0,1,0) 1432", "--k", "2")
    code, out, _ = run(capsys, *base)
    assert code == 0
    assert out.splitlines()[0] == "3 nodes, 2 edges"
    assert "rank 1: q^(0,1,0) 1342" in out
    code, out, _ = run(capsys, *base, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    code, out, _ = run(capsys, *base, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["bottom"] == "1432"
    assert len(data["elements"]) == 3


def test_chain_listing(capsys):
    code, out, _ = run(
        capsys, "chains", "--u", "68235741", "--target", "68357421", "--k", "5"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "5 chains"
    labels = [line.split(":")[0] for line in lines[:-1]]
    assert labels == sorted(labels)  # sorted by label sequence


def test_operators_action(capsys):
    code, out, _ = run(
        capsys,
        "operators", "--word", "v(4,1) v(1,2) v(3,4) v(4,5)", "--n", "5",
        "--u", "41352", "--k", "3",
    )
    assert code == 0
    assert "class: tree" in out
    assert out.rstrip().endswith("q^(0,0,1,1) 52134")


def test_operators_zero_action_prints_zero(capsys):
    code, out, _ = run(
        capsys,
        "operators", "--word", "v(1,2) v(1,2)", "--n", "3",
        "--u", "213", "--k", "1",
    )
    assert code == 0
    assert out.rstrip().endswith(": 0")


def test_operators_n_smaller_than_u_is_a_usage_error(capsys):
    code, _, err = run(
        capsys, "operators", "--word", "v(1,2)", "--n", "3", "--u", "1432", "--k", "1"
    )
    assert code == 2
    assert err == "usage error: --n 3 is too small for --u 1432 in S_4\n"


def test_reproduce_matches_fixture(capsys):
    code, out, err = run(capsys, "reproduce", "q-monk")
    assert code == 0
    assert out == fixture_text("q-monk")
    assert "matches" in err


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "q-monk")
    assert code == 0
    assert out.splitlines()[-1] == "all 1 checks passed"


def test_failing_check_names_its_first_failure(capsys, monkeypatch):
    monkeypatch.setattr(verification, "fgp_product", lambda u, lam, k: Expansion(u.n))
    code, out, _ = run(capsys, "verify", "q-monk")
    assert code == 1
    fail = out.splitlines()[0]
    assert fail.startswith("FAIL q-monk: ")
    assert fail.endswith(
        "; first failure: u=1432 k=2 class=s1: cover rule != fgp-oracle"
    )


def test_raising_check_is_a_fail_and_the_gate_goes_on(capsys, monkeypatch):
    def broken(u, lam, k):
        raise ValueError("broken route")

    monkeypatch.setattr(verification, "fgp_product", broken)
    code, out, err = run(capsys, "verify", "q-monk", "mn-example")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("FAIL q-monk: ")
    assert lines[0].endswith("; first failure: raised ValueError: broken route")
    assert lines[1].startswith("ok mn-example: ")
    assert lines[-1] == "1 of 2 checks FAILED"
    assert "usage error" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("product", "--u", "14g2", "--k", "2", "--hook", "1,1"),
        ("product", "--u", "1432", "--k", "2"),
        ("product", "--u", "1432", "--k", "2", "--hook", "1,1", "--powersum", "2"),
        ("product", "--u", "1432", "--k", "9", "--hook", "1,1"),
        ("product", "--u", "1432", "--k", "2", "--hook", "1"),
        ("product", "--u", "1432", "--k", "2", "--lambda", "1,2"),
        ("product", "--u", "1432", "--k", "2", "--hook", "1,1", "--basis", "fgp-oracle"),
        ("product", "--quantum", "--u", "1432", "--k", "2", "--hook", "1,1", "--basis", "chains"),
        ("interval", "--u", "1432", "--target", "9999", "--k", "2"),
        ("operators", "--word", "v(1,2)", "--n", "3", "--u", "213"),
        ("verify", "not-a-check"),
        ("bogus",),
        ("product", "--quantum", "--u", "1432", "--k", "2", "--lambda", "2,1", "--basis", "hook-theorem"),
        ("verify", "--n", "6"),
        ("operators", "--word", "v(1,2)", "--n", "3", "--k", "1"),
        # dot draws the word only: an action is refused, not dropped
        ("operators", "--word", "v(1,2)", "--n", "3", "--u", "213", "--format", "dot"),
        ("operators", "--word", "v(1,2)", "--n", "3", "--u", "213", "--k", "1", "--format", "dot"),
        ("product", "--u", "1432", "--n", "3", "--k", "1", "--hook", "1,1"),
        ("product", "--quantum", "--u", "12345678", "--k", "1", "--lambda", "1"),
        # the target alone picks the order: interval and chains have no --quantum
        ("interval", "--u", "1432", "--target", "3412", "--k", "2", "--quantum"),
        ("chains", "--u", "1432", "--target", "3412", "--k", "2", "--quantum"),
        # text the word parser cannot read is refused, not skipped
        ("operators", "--word", "v(1,2) w(2,3)", "--n", "3"),
        ("operators", "--word", "v(1,2) 7", "--n", "3"),
        # --class s<m> was a third spelling of --hook 1,m and --lambda m
        ("product", "--u", "1432", "--k", "2", "--class", "s1"),
        # a bracket must be closed by its own partner
        ("operators", "--word", "v(1,2", "--n", "3"),
        ("operators", "--word", "v{1,2)", "--n", "3"),
        ("operators", "--word", "v_(1,2}", "--n", "3"),
        # a zero before a positive part is not a partition
        ("product", "--u", "1432", "--k", "2", "--lambda", "0,1"),
        # a huge hook is refused without building its rows, on every route
        ("product", "--u", "1432", "--k", "2", "--hook", "1000000,1"),
        ("product", "--u", "1432", "--k", "2", "--hook", "1000000,1", "--basis", "minimal"),
        ("product", "--quantum", "--u", "1432", "--k", "2", "--hook", "1000000,1"),
        ("product", "--quantum", "--u", "1432", "--k", "2", "--hook", "1000000,1",
         "--basis", "ll-reduce"),
        ("product", "--quantum", "--u", "1432", "--k", "2", "--hook", "1000000,1",
         "--basis", "fgp-oracle"),
        # blank permutation text is refused, not read as the identity
        ("operators", "--word", "v(1,2)", "--n", "3", "--u", "", "--k", "1"),
        ("product", "--u", " ", "--n", "3", "--k", "1", "--hook", "1,1"),
        ("interval", "--u", "", "--target", "12", "--k", "1"),
        # a blank field of --lambda or --hook is refused, not skipped
        ("product", "--u", "1432", "--k", "2", "--lambda", "2,,1"),
        ("product", "--u", "1432", "--k", "2", "--lambda", ",1"),
        ("product", "--u", "1432", "--k", "2", "--lambda", "2,1,"),
        ("product", "--u", "1432", "--k", "2", "--lambda", ""),
        ("product", "--u", "1432", "--k", "2", "--hook", "1,,1"),
        # a negative ambient size is refused, even for the empty word
        ("operators", "--word", "", "--n", "-3"),
        ("operators", "--word", "v(1,2)", "--n", "-3"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    assert main(list(argv)) == 2



def test_blank_fields_are_named(capsys):
    for flag, text, what in (
        ("--lambda", "2,,1", "partition"),
        ("--lambda", ",1", "partition"),
        ("--hook", "1,,1", "--hook"),
    ):
        argv = ("product", "--u", "1432", "--k", "2", flag, text)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"usage error: malformed {what} {text!r}\n"

def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_cached_parser_keeps_no_state_between_calls(capsys):
    product = ("product", "--quantum", "--u", "1432", "--k", "2", "--hook", "1,2")
    calls = [
        (*product, "--format", "json"),
        product,
        ("product", "--u", "1432", "--k", "2", "--basis", "nope"),
        ("product", "--u", "1432", "--k", "2", "--hook", "1,1"),
    ]
    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    cli._build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == alone
    assert [code for code, _out, _err in alone] == [0, 0, 2, 0]
    assert alone[0][1] != alone[1][1]


def _readme_commands():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("flagmn ")]


def test_readme_lists_commands():
    assert len(_readme_commands()) >= 10


@pytest.mark.parametrize("line", _readme_commands())
def test_every_readme_command_runs(capsys, line):
    code, _out, err = run(capsys, *shlex.split(line)[1:])
    assert code == 0, err
