import collections

import pytest

from cqbench.inputs import batch_trace, drift_plan, poisson_offsets, popularity_order

KEYS = [("x", (q,)) for q in range(100)]


def test_same_seed_same_inputs():
    ranked = popularity_order(KEYS, 5)
    assert ranked == popularity_order(KEYS, 5) != popularity_order(KEYS, 6)
    assert sorted(ranked) == sorted(KEYS)
    assert batch_trace(ranked, 8, 4, 5, zipf_s=1.1) == batch_trace(ranked, 8, 4, 5, zipf_s=1.1)
    assert batch_trace(ranked, 8, 4, 5, stream=0) != batch_trace(ranked, 8, 4, 5, stream=1)
    assert poisson_offsets(100.0, 1.0, 5) == poisson_offsets(100.0, 1.0, 5)
    assert drift_plan([KEYS], 4, 3, 5) == drift_plan([KEYS], 4, 3, 5)


def test_zipf_favours_the_head_uniform_does_not():
    ranked = popularity_order(KEYS, 1)
    zipf = collections.Counter(k for b in batch_trace(ranked, 500, 32, 1, zipf_s=1.1) for k in b)
    flat = collections.Counter(k for b in batch_trace(ranked, 500, 32, 1) for k in b)
    assert zipf[ranked[0]] > 10 * zipf[ranked[-1]]
    assert max(flat.values()) < 2 * min(flat.values())


def test_poisson_offsets_rate_and_span():
    offsets = poisson_offsets(200.0, 10.0, 3)
    assert offsets == sorted(offsets)
    assert 0.0 <= offsets[0] and offsets[-1] < 10.0
    assert len(offsets) == 2000
    # Exponential gaps: as many below the mean gap's ln 2 as above it.
    gaps = [b - a for a, b in zip(offsets, offsets[1:])]
    below = sum(g < 0.005 * 0.6931 for g in gaps) / len(gaps)
    assert below == pytest.approx(0.5, abs=0.05)


def test_drift_plan_takes_the_same_mix_every_step():
    short, long = KEYS[:30], KEYS[30:]
    for step in drift_plan([short, long], 50, 2, 2):
        assert len(set(step)) == 4
        assert sum(k in short for k in step) == 2
    with pytest.raises(ValueError):
        drift_plan([short, long], 1, 31, 2)
