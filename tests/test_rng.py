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


@pytest.mark.parametrize("value", [-1, 2**64, True, 1.0, "3", np.int64(-1)])
def test_seed_outside_range_rejected(value):
    # a masked seed would draw another seed's stream: -1 that of 2^64 - 1
    with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
        SeededRng(value)
    with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
        SeededRng(0, value)
    with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
        splitmix64(value)


def test_seed_range_ends_accepted():
    assert SeededRng(2**64 - 1, 2**64 - 1).state() == splitmix64(0)
    assert splitmix64(2**64 - 1) == splitmix64(np.uint64(2**64 - 1))


def test_numpy_integer_seeds_are_python_ints():
    rng = SeededRng(np.int64(7), np.uint64(3))
    assert type(rng.seed) is int and type(rng.stream) is int
    assert rng == SeededRng(7, 3)
    assert np.array_equal(rng.generator().random(8), SeededRng(7, 3).generator().random(8))


def test_user_seed_entry_points_check_the_range():
    from cfbounds.presets import fig1_config, run_seeds

    with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
        fig1_config(seed=-1)
    with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
        run_seeds(2**64, 3)
    assert fig1_config(seed=np.uint64(5)).to_dict() == fig1_config(seed=5).to_dict()
