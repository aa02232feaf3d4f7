"""The self-test: deliberately broken transfer rules must be caught.

This is the acceptance gate for the whole subsystem — a seeded
mutation (one intentionally wrong transfer rule) has to be detected by
the differential oracle and auto-shrunk to a small reproducer.
"""

import pytest

from repro.fuzz.driver import run_fuzz
from repro.fuzz.generator import generate_program
from repro.fuzz.mutations import MUTATIONS, cs_survive_dom

pytestmark = pytest.mark.fuzz


class TestOvereagerStrongUpdates:
    def test_caught_and_shrunk_to_small_reproducer(self):
        report = run_fuzz(0, 10, mutate="overeager-strong-updates",
                          shrink=True, fail_fast=True)
        assert not report.ok
        failure = report.failures[0]
        assert failure.violations
        # Only the concrete-execution oracle can see this bug: the
        # mutation blinds the fixpoint verifier the same way it blinds
        # the analyses, so no other oracle kind fires.
        assert {v.kind for v in failure.violations} == {"concrete"}
        assert failure.shrunk_lines is not None
        assert failure.shrunk_lines <= 25

    def test_clean_run_of_same_seed_passes(self):
        report = run_fuzz(3, 1, shrink=False)
        assert report.ok


class TestCsSurviveDom:
    def test_caught_by_fixpoint_oracle(self):
        report = run_fuzz(0, 10, mutate="cs-survive-dom",
                          shrink=False, fail_fast=True)
        assert not report.ok
        kinds = {v.kind for outcome in report.failures
                 for v in outcome.violations}
        assert "fixpoint" in kinds


def test_every_registered_mutation_is_catchable():
    """No mutation may rot into one the oracles silently miss."""
    for name in MUTATIONS:
        report = run_fuzz(0, 30, mutate=name, shrink=False,
                          fail_fast=True)
        assert not report.ok, f"mutation {name!r} went undetected"
