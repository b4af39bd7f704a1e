"""The taxonomy differential check at a larger seeded budget.

Not collected by the tier-1 run (the file name does not match
``test_*.py``); ``make scope-fuzz`` passes it to pytest explicitly.
Twenty seeds of six runs of 60 mutations each, against the same
full-scan oracles as :mod:`tests.core.test_scope_oracle`.
"""

import pytest

# mvqa_base is the module-scoped fixture the test below requests
from tests.core.test_scope_oracle import mvqa_base, run_scope_fuzz  # noqa: F401


@pytest.mark.parametrize("seed", range(100, 120))
def test_scope_and_kind_of_match_full_scans(mvqa_base, seed):
    graph, labels = mvqa_base
    run_scope_fuzz(graph, labels, seed, runs=6, ops=60)
