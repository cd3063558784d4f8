"""Property-based tests for MemoryBackend: it must behave as an ordered set."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.storage import MemoryBackend
from repro.core.entry import Entry

entry_ids = st.text(
    alphabet="abcdefgh", min_size=1, max_size=4
)

operations = st.lists(
    st.tuples(st.sampled_from(["add", "discard"]), entry_ids),
    max_size=60,
)


@given(operations)
def test_store_matches_model_set(ops):
    """The store's membership always equals a plain model dict's."""
    store = MemoryBackend()
    model = {}
    for action, entry_id in ops:
        entry = Entry(entry_id)
        if action == "add":
            changed = store.add(entry)
            assert changed == (entry_id not in model)
            model[entry_id] = entry
        else:
            changed = store.discard(entry)
            assert changed == (entry_id in model)
            model.pop(entry_id, None)
        assert len(store) == len(model)
        assert {e.entry_id for e in store} == set(model)


@given(operations)
def test_store_never_duplicates(ops):
    store = MemoryBackend()
    for action, entry_id in ops:
        if action == "add":
            store.add(Entry(entry_id))
        else:
            store.discard(Entry(entry_id))
    listed = [e.entry_id for e in store]
    assert len(listed) == len(set(listed))


@given(st.lists(entry_ids, unique=True, min_size=1, max_size=30),
       st.integers(min_value=0, max_value=40),
       st.integers())
def test_sample_is_subset_of_requested_size(ids, count, seed):
    store = MemoryBackend([Entry(i) for i in ids])
    sampled = store.sample(count, random.Random(seed))
    assert len(sampled) == (len(ids) if count <= 0 or count >= len(ids) else count)
    assert {e.entry_id for e in sampled} <= set(ids)
    assert len({e.entry_id for e in sampled}) == len(sampled)


@given(st.lists(entry_ids, unique=True, min_size=1, max_size=20), st.integers())
def test_pop_random_drains_completely(ids, seed):
    store = MemoryBackend([Entry(i) for i in ids])
    rng = random.Random(seed)
    popped = [store.pop_random(rng).entry_id for _ in range(len(ids))]
    assert sorted(popped) == sorted(ids)
    assert len(store) == 0
