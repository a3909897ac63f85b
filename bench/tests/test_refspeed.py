"""Reported times are scaled to reference-host speed; other values are not."""

import pytest

import refspeed


def test_each_sample_is_scaled_by_the_readings_around_it():
    nominal = refspeed.NOMINAL_S
    factors = refspeed.interval_factors([nominal, nominal, 3 * nominal,
                                         None, None])
    assert factors == pytest.approx([1.0, 0.5, 1 / 3, 1.0])


def test_a_host_reading_restores_the_cpu_affinity():
    import os

    before = os.sched_getaffinity(0)
    assert refspeed.host_reading() > 0
    assert os.sched_getaffinity(0) == before
