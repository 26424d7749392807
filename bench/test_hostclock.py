"""Tests of the reference-speed rescaling in hostclock.py.

    python3 -m pytest bench/test_hostclock.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostclock  # noqa: E402
from hostclock import KERNEL_REF_S, HostClock  # noqa: E402


def clock_with(samples: list[tuple[int, float]], stretches: list[float]) -> HostClock:
    clock = HostClock()
    clock.samples = samples
    clock.stretches = stretches
    return clock


def test_host_at_reference_speed_leaves_times_unchanged():
    clock = clock_with([(0, KERNEL_REF_S)], [0.25, 0.5])
    assert clock.scaled_stretches() == pytest.approx([0.25, 0.5])


def test_host_at_half_speed_halves_times():
    clock = clock_with([(0, 2 * KERNEL_REF_S), (1, 2 * KERNEL_REF_S)], [0.4, 0.6, 0.8])
    assert clock.scaled_stretches() == pytest.approx([0.2, 0.3, 0.4])


def test_each_stretch_uses_the_median_of_its_five_nearest_samples():
    # Kernel times 1..9 (in reference units) at positions 0, 10, ..., 80.
    samples = [(10 * i, (i + 1) * KERNEL_REF_S) for i in range(9)]
    clock = clock_with(samples, [1.0] * 81)
    scaled = clock.scaled_stretches()
    # Position 0: samples 1-5, median 3. Position 40: samples 3-7, median 5.
    # Position 80: samples 5-9, median 7.
    assert scaled[0] == pytest.approx(1 / 3)
    assert scaled[40] == pytest.approx(1 / 5)
    assert scaled[80] == pytest.approx(1 / 7)


def test_setups_are_scaled_at_their_own_positions(monkeypatch):
    kernel = iter([KERNEL_REF_S, 4 * KERNEL_REF_S])
    monkeypatch.setattr(hostclock, "kernel_s", lambda: next(kernel))
    clock = HostClock()
    assert clock.set_up(lambda: "made") == "made"
    clock.stretches.extend([0.0] * 100)
    clock.set_up(lambda: None)
    clock.setups = [(0, 0.1), (100, 0.1)]
    assert clock.host_setup_s() == pytest.approx(0.2)
    # Both samples are among the five nearest to each set-up: the median of
    # two samples is their mean, 2.5 kernel units.
    assert clock.scaled_setup_s() == pytest.approx(0.2 / 2.5)
