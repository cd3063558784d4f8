"""Property-based tests on the metric functions."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.entry import Entry
from repro.metrics.fault_tolerance import server_importance
from repro.metrics.unfairness import (
    exact_unfairness_uniform_subset,
    instance_unfairness,
)

probability_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=50,
)


@settings(deadline=None)
@given(probability_lists, st.integers(min_value=1, max_value=20))
def test_unfairness_nonnegative(probabilities, target):
    assert instance_unfairness(probabilities, target) >= 0.0


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=50))
def test_uniform_probabilities_are_fair(h, target):
    assume(target <= h)
    probabilities = [target / h] * h
    assert instance_unfairness(probabilities, target) < 1e-9


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=100), st.integers(min_value=1, max_value=10))
def test_single_entry_monopoly_maximizes_unfairness(h, target):
    """All probability mass on one entry is worse than any even split."""
    assume(target <= h)
    monopoly = [float(target)] + [0.0] * (h - 1)
    spread = [target / h] * h
    assert instance_unfairness(monopoly, target) > instance_unfairness(
        spread, target
    )


@st.composite
def _covered_subsets(draw):
    """``target <= covered <= h``, drawn so that no example is rejected."""
    h = draw(st.integers(min_value=1, max_value=100))
    covered = draw(st.integers(min_value=1, max_value=h))
    target = draw(st.integers(min_value=1, max_value=min(covered, 50)))
    return covered, h, target


@settings(deadline=None)
@given(_covered_subsets())
def test_subset_closed_form_matches_equation_one(subset):
    covered, h, target = subset
    # A uniform lookup over `covered` of `h` entries: p = t/covered.
    probabilities = [target / covered] * covered + [0.0] * (h - covered)
    direct = instance_unfairness(probabilities, target)
    closed = exact_unfairness_uniform_subset(covered, h, target)
    assert math.isclose(direct, closed, rel_tol=1e-9, abs_tol=1e-9)


@settings(deadline=None)
@given(
    st.dictionaries(
        keys=st.integers(min_value=0, max_value=8),
        values=st.sets(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=5),
        min_size=1,
        max_size=8,
    )
)
def test_importance_total_equals_distinct_entries(raw_placement):
    """Σ_S X_S = Σ_e f_e · (1/f_e) = number of distinct stored entries."""
    placement = {
        sid: {Entry(name) for name in names} for sid, names in raw_placement.items()
    }
    scores = server_importance(placement)
    distinct = set().union(*placement.values()) if placement else set()
    assert math.isclose(sum(scores.values()), len(distinct), rel_tol=1e-9)
