import numpy as np

import gen

TRIPLES = np.array([[h, h % 5, (h * 7) % 200] for h in range(200)], dtype=np.int32)


def test_same_seed_same_arrival_schedule():
    first = gen.arrival_schedule(3, 250.0, 5.0)
    assert np.array_equal(first, gen.arrival_schedule(3, 250.0, 5.0))
    assert not np.array_equal(first[:50], gen.arrival_schedule(4, 250.0, 5.0)[:50])


def test_schedule_is_poisson_at_the_rate_within_the_window():
    offsets = gen.arrival_schedule(1, 250.0, 20.0)
    assert np.all(np.diff(offsets) > 0)
    assert offsets[-1] < 20.0
    assert abs(len(offsets) - 5000) < 5 * np.sqrt(5000)


def test_same_seed_same_queries():
    assert gen.hot_queries(5, TRIPLES, 300) == gen.hot_queries(5, TRIPLES, 300)
    assert gen.uniform_queries(5, TRIPLES, 300) == gen.uniform_queries(5, TRIPLES, 300)
    assert gen.uniform_queries(5, TRIPLES, 300) != gen.uniform_queries(6, TRIPLES, 300)


def test_hot_queries_skew_over_a_small_pool():
    queries = gen.hot_queries(2, TRIPLES, 2000)
    pairs = [(h, r) for h, r, _ in queries]
    assert len(set(pairs)) <= gen.HOT_POOL_SIZE
    counts = sorted((pairs.count(p) for p in set(pairs)), reverse=True)
    assert counts[0] > 10 * counts[-1]
    assert all(k == gen.ANSWERS_K for _, _, k in queries)


def test_queries_come_from_real_triples():
    known = {(int(h), int(r)) for h, r, _ in TRIPLES}
    assert all((h, r) in known for h, r, _ in gen.uniform_queries(1, TRIPLES, 500))
    assert all((h, r) in known for h, r, _ in gen.hot_queries(1, TRIPLES, 500))


def test_shuffled_is_a_seeded_permutation():
    items = list(range(50))
    assert gen.shuffled(1, items) == gen.shuffled(1, items)
    assert sorted(gen.shuffled(1, items)) == items
    assert gen.shuffled(1, items) != gen.shuffled(2, items)
