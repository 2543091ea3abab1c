"""Runs every numbered verification check, one test per check.

Each test prints its check's pass/fail line (straight to the real
stdout so pytest capture does not swallow it) and then asserts the
outcome, so a red test carries the failing sub-check in its message.
The same checks back the ``dasim verify`` subcommand.
"""

import functools
import sys

import pytest

from dasim import acceptance, geo


def _run(number: int) -> acceptance.CriterionResult:
    results = acceptance.run_all({number})
    assert len(results) == 1
    result = results[0]
    print(result.line(), file=sys.__stdout__, flush=True)
    return result


def test_criterion_1_noise_sampler_distribution():
    result = _run(1)
    assert result.passed, result.detail
    assert result.detail == "GOF p-values 0.136..0.643 at 4 noise scales, 1e6 draws each"


@pytest.mark.slow
def test_criterion_2_measurement_unbiasedness():
    result = _run(2)
    assert result.passed, result.detail


@pytest.mark.slow
def test_criterion_3_estimator_calibration():
    result = _run(3)
    assert result.passed, result.detail


@pytest.mark.slow
def test_criterion_4_swap_variance_conservativeness():
    result = _run(4)
    assert result.passed, result.detail


def test_criterion_5_swap_invariants():
    result = _run(5)
    assert result.passed, result.detail
    assert result.detail == ("bit-exact at 24 blocks x 9 runs, "
                             "744 household moves under the aggressive policy")


def test_criterion_6_postprocessing_constraints():
    result = _run(6)
    assert result.passed, result.detail
    assert result.detail == ("matches exhaustive search on both fixtures; non-negative integer "
                             "hierarchy with exact declared invariants on the noisy world")


def test_criterion_7_geocode_crosswalk():
    result = _run(7)
    assert result.passed, result.detail
    assert result.detail == ("worked example, 100000 round trips, "
                             "and exact disjoint covers for 45 targets")


def test_criterion_7_rejects_a_node_that_loses_a_child(monkeypatch):
    children = geo.Spine.children
    monkeypatch.setattr(geo.Spine, "children", lambda self, node: children(self, node)[1:])
    # a world of its own, so no other check sees the patched spine's compositions
    monkeypatch.setattr(acceptance, "_desk_world",
                        functools.cache(acceptance._desk_world.__wrapped__))
    passed, detail = acceptance.check_geocode_crosswalk()
    assert not passed
    assert "optimized-spine node US is not the disjoint union of its children" in detail


@pytest.mark.slow
def test_criterion_8_error_ordering_and_composition_cost():
    result = _run(8)
    assert result.passed, result.detail


def test_criterion_9_degenerate_inputs():
    result = _run(9)
    assert result.passed, result.detail
    assert result.detail == "identity pipelines, rejected empties, tied bins, signed raw MSE"


def test_unknown_check_numbers_are_rejected():
    with pytest.raises(Exception) as excinfo:
        acceptance.run_all({1, 12})
    assert "12" in str(excinfo.value)


def test_run_all_covers_every_check_once():
    numbers = [r.number for r in acceptance.run_all({5, 9})]
    assert numbers == [5, 9]


def test_run_all_fails_a_check_that_reaches_its_budget(monkeypatch):
    monkeypatch.setattr(acceptance, "_CRITERIA", (
        (1, "fast pass", lambda: (True, "fine"), 0.0),
        (2, "fast fail", lambda: (False, "wrong answer"), 0.0),
        (3, "unbudgeted", lambda: (True, "fine"), None),
    ))
    passing, failing, free = acceptance.run_all()
    assert not passing.passed
    assert passing.detail == f"took {passing.seconds:.1f}s, budget is 0s"
    assert not failing.passed
    assert failing.detail == f"wrong answer; took {failing.seconds:.1f}s, budget is 0s"
    assert free.passed and free.detail == "fine"
