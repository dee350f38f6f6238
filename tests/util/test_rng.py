"""Seeded RNG construction: determinism and pass-through."""

import numpy as np

from repro.util.rng import make_rng


class TestMakeRng:
    def test_seed_reproducible(self):
        a = make_rng(123).random(5)
        b = make_rng(123).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(7)
        assert make_rng(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)
