"""Run the executable examples embedded in docstrings.

The ``>>>`` examples in module and class docstrings are part of the
documentation deliverable; this keeps them honest.
"""

import doctest
import importlib

import pytest

MODULES_WITH_DOCTESTS = [
    "repro",
    "repro.core.frequent_items",
    "repro.core.merge",
    "repro.engine.grouping",
    "repro.engine.kernel",
    "repro.engine.query",
    "repro.extensions.decayed",
    "repro.prng.splitmix",
    "repro.prng.xoroshiro",
    "repro.service.cluster",
    "repro.service.pipeline",
    "repro.sharded.partition",
    "repro.sharded.sketch",
    "repro.types",
]


@pytest.mark.parametrize("module_name", MODULES_WITH_DOCTESTS)
def test_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module_name}"


def test_doctests_actually_exist():
    """Guard against the list silently going stale."""
    total_tests = 0
    finder = doctest.DocTestFinder()
    for module_name in MODULES_WITH_DOCTESTS:
        module = importlib.import_module(module_name)
        total_tests += sum(
            len(test.examples) for test in finder.find(module)
        )
    assert total_tests >= 5
