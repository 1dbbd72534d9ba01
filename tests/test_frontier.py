import random

import pytest

from bifocal.errors import FrontierEmpty
from bifocal.frontier import SEED, Frontier, FrontierEntry

from references import ReferenceFrontier


def test_max_update_rule():
    f = Frontier()
    f.push_or_raise("u", 0.3)
    f.push_or_raise("u", 0.5)
    assert f.entry("u").priority == 0.5
    f.push_or_raise("u", 0.2)
    assert f.entry("u").priority == 0.5


def test_seed_tier_dominates():
    f = Frontier()
    f.push_or_raise("u", SEED)
    f.push_or_raise("u", 0.99)
    assert f.entry("u").priority is SEED
    f.push_or_raise("v", 0.99)
    assert f.pop_max().url == "u"


def test_seed_raise_keeps_insertion_seq():
    f = Frontier()
    f.push_or_raise("u", 0.1)
    seq = f.entry("u").insertion_seq
    f.push_or_raise("u", SEED)
    assert f.entry("u").insertion_seq == seq


def test_seeds_pop_in_insertion_order():
    f = Frontier()
    f.push_or_raise("b", SEED)
    f.push_or_raise("a", SEED)
    f.push_or_raise("top", 1.0)
    assert [f.pop_max().url for _ in range(3)] == ["b", "a", "top"]


def test_fifo_tie_break():
    f = Frontier()
    f.push_or_raise("a", 0.5)
    f.push_or_raise("b", 0.5)
    assert f.pop_max().url == "a"
    assert f.pop_max().url == "b"


def test_pop_empty_raises():
    with pytest.raises(FrontierEmpty):
        Frontier().pop_max()


def test_popped_urls_are_terminal():
    f = Frontier()
    f.push_or_raise("u", 0.4)
    entry = f.pop_max()
    assert entry.fetched
    f.push_or_raise("u", 0.9)  # ignored: terminal
    with pytest.raises(FrontierEmpty):
        f.pop_max()


def test_one_entry_per_url():
    f = Frontier()
    f.push_or_raise("u", 0.1)
    f.push_or_raise("u", 0.9)
    f.push_or_raise("u", 0.5)
    assert len(f) == 1
    assert f.pop_max().url == "u"
    assert len(f) == 0


def _random_op_trace(seed, ops):
    rng = random.Random(seed)
    real, ref = Frontier(), ReferenceFrontier()
    trace_real, trace_ref = [], []
    urls = [f"u{i}" for i in range(ops // 3 + 2)]
    for _ in range(ops):
        if rng.random() < 0.65:
            url = rng.choice(urls)
            priority = SEED if rng.random() < 0.1 else round(rng.random(), 3)
            real.push_or_raise(url, priority)
            ref.push_or_raise(url, priority)
        else:
            try:
                entry = real.pop_max()
                got = (entry.url, SEED if entry.priority is SEED else entry.priority)
            except FrontierEmpty:
                got = None
            try:
                expected = ref.pop_max()
            except FrontierEmpty:
                expected = None
            trace_real.append(got)
            trace_ref.append(expected)
    while True:
        try:
            entry = real.pop_max()
            trace_real.append((entry.url, SEED if entry.priority is SEED else entry.priority))
        except FrontierEmpty:
            break
    while True:
        try:
            trace_ref.append(ref.pop_max())
        except FrontierEmpty:
            break
    return trace_real, trace_ref


@pytest.mark.parametrize("seed", range(8))
def test_randomized_ops_match_reference(seed):
    trace_real, trace_ref = _random_op_trace(seed, 300)
    assert trace_real == trace_ref


def test_priority_never_decreases():
    rng = random.Random(42)
    f = Frontier()
    last = {}
    for _ in range(500):
        url = f"u{rng.randint(0, 20)}"
        p = rng.random()
        f.push_or_raise(url, p)
        entry = f.entry(url)
        current = entry.priority
        if url in last and not entry.fetched:
            assert current >= last[url]
        if not entry.fetched:
            last[url] = current


def test_out_of_range_push_is_rejected_and_changes_nothing():
    f = Frontier()
    f.push_or_raise("u", 0.3)
    for priority in (float("nan"), -0.1, 1.5, float("inf")):
        for url in ("u", "v"):
            with pytest.raises(ValueError, match="priority"):
                f.push_or_raise(url, priority)
        assert len(f) == 1
        assert f.entry("u") == FrontierEntry("u", 0.3, 0)
        assert f.entry("v") is None
    f.push_or_raise("v", 0.2)
    assert f.entry("v").insertion_seq == 1

