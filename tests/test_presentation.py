"""Sampling layer: word pool counts, relator-count clamping, determinism, uniformity."""

import collections
import itertools
import json
import math
import random

import pytest

from squarewalls.presentation import (
    CyclicallyReducedPool,
    Presentation,
    alphabet,
    enumerate_cyclically_reduced,
    free_reduce,
    inverse_word,
    is_cyclically_reduced,
    letter_key,
    parse_letter,
    relator_count,
    sample_presentation,
    w_count,
    word_key,
    word_token,
)


def brute_pool(n):
    # independent oracle: filter the full 4-letter product directly
    letters = []
    for k in range(1, n + 1):
        letters += [k, -k]
    pool = []
    for w in itertools.product(letters, repeat=4):
        ok = all(w[i] != -w[(i + 1) % 4] for i in range(4))
        if ok:
            pool.append(w)
    return pool


def test_pool_counts_match_brute_force():
    for n in (1, 2, 3):
        assert w_count(n) == len(brute_pool(n))
    assert w_count(1) == 2
    assert w_count(2) == 84
    assert w_count(3) == 630


def test_enumeration_is_sorted_and_complete():
    for n in (1, 2, 3, 4):
        pool = enumerate_cyclically_reduced(n)
        assert sorted(pool, key=lambda w: [letter_key(l) for l in w]) == pool
        assert set(pool) == set(brute_pool(n))
        assert len(set(pool)) == len(pool)
    for length in (1, 2, 3, 5):
        pool = enumerate_cyclically_reduced(3, length)
        assert pool == sorted(pool, key=word_key)


def test_pool_view_unranks_the_enumeration():
    for n in range(1, 7):
        pool = enumerate_cyclically_reduced(n)
        view = CyclicallyReducedPool(n)
        assert len(view) == len(pool) == w_count(n)
        for k, w in enumerate(pool):
            assert view[k] == w, (n, k)
        assert view[-1] == pool[-1]
        for k in (len(pool), len(pool) + 7, -len(pool) - 1):
            with pytest.raises(IndexError):
                view[k]
        assert list(view) == pool


def oracle_sample(n, d, seed, pools):
    """The enumerate-then-sample path that sample_presentation replaced,
    with the canonically sorted pool built once per rank."""
    if n not in pools:
        pools[n] = sorted(
            (w for w in itertools.product(alphabet(n), repeat=4)
             if is_cyclically_reduced(w)), key=word_key)
    count = relator_count(n, d)
    rng = random.Random(seed)
    chosen = rng.sample(pools[n], count)
    chosen.sort(key=word_key)
    return Presentation(rank=n, density=d, seed=seed, relators=tuple(chosen))


def test_sample_matches_enumerated_pool_oracle():
    pools: dict = {}
    cases = 0
    for n in range(1, 9):
        for d in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4):
            for seed in range(25):
                got = sample_presentation(n, d, seed).to_json()
                assert got == oracle_sample(n, d, seed, pools).to_json(), \
                    (n, d, seed)
                cases += 1
    assert cases == 1400


def test_relator_count_examples():
    # (2*2-1)^(4*0.4) = 3^1.6 = 5.799... -> 5
    assert relator_count(2, 0.4) == 5
    # 3^(4*0.5) = 9 exactly, float-guarded
    assert relator_count(2, 0.5) == 9
    # 3^(4*0.25) = 3
    assert relator_count(2, 0.25) == 3
    # clamp low: 3^(4*0.01) = 1.04 -> 1
    assert relator_count(2, 0.01) == 1
    # n=1 base is 1, so any density gives a single relator
    assert relator_count(1, 0.9) == 1
    # d<1 keeps the count strictly under the pool size: floor(3^3.96) = 77 < 84
    assert relator_count(2, 0.99) == 77 <= w_count(2)
    with pytest.raises(ValueError):
        relator_count(2, 0.0)
    with pytest.raises(ValueError):
        relator_count(2, 1.0)


def test_relator_count_float_guard_dense():
    # every d = k/4 hits an integer power exactly
    for n in (2, 3, 4):
        m = 2 * n - 1
        for k in (1, 2, 3):
            assert relator_count(n, k / 4) == min(m**k, w_count(n))


def test_sample_deterministic_and_distinct():
    p1 = sample_presentation(3, 0.3, seed=7)
    p2 = sample_presentation(3, 0.3, seed=7)
    assert p1 == p2
    assert len(set(p1.relators)) == len(p1.relators) == relator_count(3, 0.3)
    for w in p1.relators:
        assert len(w) == 4 and is_cyclically_reduced(w)
    p3 = sample_presentation(3, 0.3, seed=8)
    assert p3 != p1


def test_sample_uniform_n1():
    # n=1: pool is {(1,1,1,1),(-1,-1,-1,-1)}, one relator per draw at low density
    counts = collections.Counter()
    for seed in range(10_000):
        p = sample_presentation(1, 0.1, seed=seed)
        assert len(p.relators) == 1
        counts[p.relators[0]] += 1
    assert set(counts) == {(1, 1, 1, 1), (-1, -1, -1, -1)}
    for v in counts.values():
        assert abs(v / 10_000 - 0.5) < 0.02


def test_sample_uniform_marginal_n2():
    # each of the 84 words appears in a 5-relator sample with prob 5/84
    hits = collections.Counter()
    trials = 3000
    for seed in range(trials):
        p = sample_presentation(2, 0.4, seed=seed)
        for w in p.relators:
            hits[w] += 1
    assert len(hits) == 84
    expect = 5 / 84
    for w, c in hits.items():
        assert abs(c / trials - expect) < 0.02, (w, c)


def test_json_round_trip():
    p = sample_presentation(2, 0.4, seed=1)
    q = Presentation.from_json(p.to_json())
    assert q == p
    blob = json.loads(p.to_json())
    assert blob["rank"] == 2 and blob["seed"] == 1
    # relators serialize as lists of letter tokens
    assert isinstance(blob["relators"][0], list)
    assert all(isinstance(t, str) for t in blob["relators"][0])


def test_word_token_round_trip():
    w = (1, -3, 2, -1)
    assert tuple(parse_letter(t) for t in word_token(w).split()) == w
    assert word_token(w) == "a1 a3^-1 a2 a1^-1"


def test_reduction_helpers():
    assert free_reduce((1, -1, 2)) == (2,)
    assert free_reduce(()) == ()
    assert inverse_word((1, 2)) == (-2, -1)
    assert not is_cyclically_reduced((1, 2, 3, -1))


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(rank=2, density=0.3, seed=0, relators=((1, -1, 1, 1),))
    with pytest.raises(ValueError):
        Presentation(rank=2, density=0.3, seed=0, relators=((1, 1, 1, 1), (1, 1, 1, 1)))
    for rank, w in ((1, (1, 2, -1, -2)), (2, (1, 3, 1, 3)), (2, (1, 0, 1, 1))):
        with pytest.raises(ValueError):
            Presentation(rank=rank, density=0.3, seed=0, relators=(w,))


def test_alphabet_order():
    assert alphabet(2) == [-1, 1, -2, 2]
    with pytest.raises(ValueError):
        alphabet(0)


def test_large_rank_sampler_paths_agree():
    # the rejection path must produce cyclically reduced, distinct, sorted output too
    p = sample_presentation(40, 0.2, seed=3)  # |W_40| = 79^4+79 > 500k -> rejection path
    assert len(p.relators) == relator_count(40, 0.2) == math.floor(79 ** 0.8)
    assert all(is_cyclically_reduced(w) for w in p.relators)
    ks = [tuple((abs(l), l > 0) for l in w) for w in p.relators]
    assert ks == sorted(ks)
