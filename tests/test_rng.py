"""Seeded stream derivation and reproducibility."""
import numpy as np
import pytest

from cfbounds.rng import SeededRng, splitmix64


def test_splitmix_known_values():
    # reference outputs of the standard splitmix64 sequence from seed 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(splitmix64(0)) != splitmix64(0)
    assert 0 <= splitmix64(123456789) < 2**64


def test_same_pair_same_sequence():
    a = SeededRng(7, 3).generator().random(16)
    b = SeededRng(7, 3).generator().random(16)
    assert np.array_equal(a, b)


def test_different_streams_differ():
    a = SeededRng(7, 0).generator().random(16)
    b = SeededRng(7, 1).generator().random(16)
    assert not np.array_equal(a, b)


def test_substream_rekeys():
    parent = SeededRng(7)
    child = parent.substream(2)
    assert child.stream == 2
    assert child.seed == parent.state()
    assert not np.array_equal(parent.generator().random(8), child.generator().random(8))


def test_negative_substream_rejected():
    with pytest.raises(ValueError):
        SeededRng(0).substream(-1)


def test_generator_restarts_fresh():
    rng = SeededRng(11)
    first = rng.generator().random(4)
    second = rng.generator().random(4)
    assert np.array_equal(first, second)
