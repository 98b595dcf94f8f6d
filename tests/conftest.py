"""Shared fixtures: backend/engine parametrization and frequently used programs.

The parametrized ``engine_name`` / ``backend`` fixtures are the single
source of backend sweeps for the unit-test suites (``tests/gamma``,
``tests/core``, ``tests/runtime``) — tests take the fixture instead of
copy-pasting ``@pytest.mark.parametrize`` lists, so a new engine or
distributed backend lands in every sweep by editing this file alone.  (The
property suites sample backends inside their Hypothesis strategies — see
``tests/properties/generators.py`` — because function-scoped fixtures and
``@given`` don't mix.)
"""

from __future__ import annotations

import multiprocessing
import random

import pytest

from repro.gamma.stdlib import sum_reduction, values_multiset
from repro.workloads.paper_examples import example1_graph, example2_graph

#: True when the preferred ``fork`` start method exists (multiprocessing
#: backends are skipped elsewhere).
FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

#: The single-process scheduling-policy engines accepted by ``run(engine=...)``.
ENGINE_NAMES = ("sequential", "chaotic", "parallel")


@pytest.fixture(params=ENGINE_NAMES)
def engine_name(request):
    """Every single-process engine name, one test instance per engine."""
    return request.param


@pytest.fixture(
    params=[
        "inprocess",
        pytest.param(
            "multiprocessing",
            marks=pytest.mark.skipif(
                not FORK_AVAILABLE, reason="fork start method unavailable"
            ),
        ),
    ]
)
def backend(request):
    """Every distributed backend name, one test instance per backend."""
    return request.param


@pytest.fixture
def ex1_graph():
    """Fig. 1: m = (x + y) - (k * j) with the paper's default values."""
    return example1_graph()


@pytest.fixture
def ex2_graph():
    """Fig. 2: the accumulation loop with the observable exit edge."""
    return example2_graph()


@pytest.fixture
def sum_program():
    """The classic sum-reduction Gamma program."""
    return sum_reduction()


@pytest.fixture
def small_multiset():
    """A small multiset of integers under the default data label."""
    return values_multiset([7, 3, 9, 1, 4])


class CountingRandom(random.Random):
    """``random.Random`` that counts its primitive draws (``calls``).

    Every index the stdlib draws costs one or two ``getrandbits`` calls
    (rejection sampling), so bounds on ``calls`` carry that constant — but
    they are exact counts, independent of the machine's clock.
    """

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)

    def random(self):
        self.calls += 1
        return super().random()


@pytest.fixture
def counting_rng():
    """Factory of seeded :class:`CountingRandom` streams (``counting_rng(seed)``)."""
    return CountingRandom
