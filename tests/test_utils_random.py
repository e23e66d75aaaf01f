"""Unit tests for repro.utils.random."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.utils.random import check_random_state, spawn_random_states


class TestCheckRandomState:
    def test_none_gives_generator(self):
        assert isinstance(check_random_state(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        a = check_random_state(7).standard_normal(5)
        b = check_random_state(7).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert check_random_state(gen) is gen

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(1)
        gen = check_random_state(seq)
        assert isinstance(gen, np.random.Generator)

    def test_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_random_state(True)

    def test_rejects_string(self):
        with pytest.raises(ValidationError):
            check_random_state("seed")

    @pytest.mark.parametrize("seed", [-1, np.int64(-5)], ids=["int", "numpy-int"])
    def test_rejects_negative_seed(self, seed):
        with pytest.raises(ValidationError, match="non-negative"):
            check_random_state(seed)


class TestSpawnRandomStates:
    def test_count(self):
        children = spawn_random_states(3, 5)
        assert len(children) == 5

    def test_independent_streams(self):
        children = spawn_random_states(3, 2)
        a = children[0].standard_normal(100)
        b = children[1].standard_normal(100)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.5

    def test_reproducible_from_int(self):
        a = spawn_random_states(9, 3)[1].standard_normal(4)
        b = spawn_random_states(9, 3)[1].standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_zero_children(self):
        assert spawn_random_states(0, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            spawn_random_states(0, -1)

    @pytest.mark.parametrize("seed", [-1, np.int64(-5)], ids=["int", "numpy-int"])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="non-negative"):
            spawn_random_states(seed, 2)

    def test_from_generator(self):
        children = spawn_random_states(np.random.default_rng(0), 2)
        assert len(children) == 2
