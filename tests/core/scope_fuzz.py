"""The taxonomy and retirement differential checks at a larger budget.

Not collected by the tier-1 run (the file name does not match
``test_*.py``); ``make scope-fuzz`` passes it to pytest explicitly.
Against the same oracles as :mod:`tests.core.test_scope_oracle` and
:mod:`tests.core.test_retirement_fuzz`:

* twenty seeds of six runs of 60 mutations each on one executor;
* a long-lived session against the remember-nothing oracle, eight
  seeds at workers 1 and 4, six bursts of 60 writes each, each run
  deriving path results from neighborhoods held across writes;
* six seeds of a 600-write writer thread racing reader threads.
"""

import pytest

# the module-scoped fixtures the tests below request
from tests.core.test_retirement_fuzz import (  # noqa: F401
    MIN_HELD_DERIVATIONS,
    derivations,
    run_retirement_fuzz,
    run_writer_race,
    served_pairs,
)
from tests.core.test_scope_oracle import (  # noqa: F401
    mvqa_base,
    mvqa_dataset,
    run_scope_fuzz,
)


@pytest.mark.parametrize("seed", range(100, 120))
def test_scope_and_kind_of_match_full_scans(mvqa_base, seed):
    graph, labels = mvqa_base
    run_scope_fuzz(graph, labels, seed, runs=6, ops=60)


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("seed", range(200, 208))
def test_session_matches_the_oracle_under_writes(mvqa_dataset, mvqa_base,
                                                 served_pairs, derivations,
                                                 seed, workers):
    graph, labels = mvqa_base
    run_retirement_fuzz(mvqa_dataset, graph, labels, seed=seed,
                        workers=workers, bursts=6, ops=60)
    assert served_pairs == []
    assert derivations.held >= MIN_HELD_DERIVATIONS


@pytest.mark.parametrize("seed", range(300, 306))
def test_a_racing_writer_leaves_no_stale_entry(mvqa_dataset, mvqa_base,
                                               served_pairs, seed):
    graph, labels = mvqa_base
    run_writer_race(mvqa_dataset, graph, labels, seed=seed, ops=600,
                    served_pairs=served_pairs)
    assert served_pairs == []
