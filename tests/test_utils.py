"""Unit tests for the utilities (timer, validation, rng)."""

from __future__ import annotations

import random
import time

import pytest

from repro.utils.rng import make_rng, spawn_seeds
from repro.utils.timer import Stopwatch, format_duration
from repro.utils.validation import (
    ensure_non_negative_int,
    ensure_positive_int,
    ensure_probability,
)


class TestStopwatch:
    def test_measures_elapsed_time(self):
        watch = Stopwatch()
        watch.start()
        time.sleep(0.01)
        elapsed = watch.stop()
        assert elapsed >= 0.009
        assert not watch.running

    def test_context_manager(self):
        with Stopwatch() as watch:
            time.sleep(0.005)
        assert watch.elapsed >= 0.004

    def test_reset(self):
        watch = Stopwatch().start()
        watch.stop()
        watch.reset()
        assert watch.elapsed == 0.0

    def test_repr(self):
        assert "stopped" in repr(Stopwatch())


class TestFormatDuration:
    @pytest.mark.parametrize(
        "seconds,expected_fragment",
        [(0.0000005, "us"), (0.005, "ms"), (2.5, "s"), (90, "1m30s")],
    )
    def test_units(self, seconds, expected_fragment):
        assert expected_fragment in format_duration(seconds)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_duration(-1)


class TestValidation:
    def test_positive_int(self):
        assert ensure_positive_int(3, "x") == 3
        with pytest.raises(ValueError):
            ensure_positive_int(0, "x")
        with pytest.raises(TypeError):
            ensure_positive_int(1.5, "x")
        with pytest.raises(TypeError):
            ensure_positive_int(True, "x")

    def test_non_negative_int(self):
        assert ensure_non_negative_int(0, "x") == 0
        with pytest.raises(ValueError):
            ensure_non_negative_int(-1, "x")

    def test_probability(self):
        assert ensure_probability(0.5, "p") == 0.5
        assert ensure_probability(1, "p") == 1.0
        with pytest.raises(ValueError):
            ensure_probability(1.5, "p")
        with pytest.raises(TypeError):
            ensure_probability("half", "p")


class TestRng:
    def test_make_rng_from_seed_is_deterministic(self):
        assert make_rng(1).random() == make_rng(1).random()

    def test_make_rng_passthrough(self):
        rng = random.Random(2)
        assert make_rng(rng) is rng

    def test_make_rng_none(self):
        assert isinstance(make_rng(None), random.Random)

    def test_make_rng_rejects_bad_types(self):
        with pytest.raises(TypeError):
            make_rng("seed")
        with pytest.raises(TypeError):
            make_rng(True)

    def test_spawn_seeds(self):
        seeds = spawn_seeds(make_rng(3), 5)
        assert len(seeds) == 5
        assert len(set(seeds)) == 5
        with pytest.raises(ValueError):
            spawn_seeds(make_rng(3), -1)
