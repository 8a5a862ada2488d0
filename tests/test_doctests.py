"""Run the docstring examples of the modules that carry them."""

import doctest

import pytest

from flagmn import kbruhat, operators, perm, qbruhat, qschubert


@pytest.mark.parametrize(
    "module", [perm, kbruhat, qbruhat, qschubert, operators], ids=lambda m: m.__name__
)
def test_docstring_examples(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0
