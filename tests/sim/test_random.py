"""Buffered draws of :class:`RandomStreams` against numpy's scalar calls.

``lognormal_factor`` and ``uniform`` draw a name's values in batches
and scale them in Python.  Every value must be the one the scalar
numpy call on that name's generator would have returned, bit for bit,
across refills of the buffer and with the scale changing from call to
call.
"""

import numpy as np
import pytest

from repro.sim import RandomStreams, stable_seed
from repro.sim.random import BUFFER_SIZE

DRAWS = 5000


def reference(name, root_seed=7, run_index=3):
    """The unbuffered generator of ``name``."""
    return np.random.default_rng(stable_seed(root_seed, run_index, name))


def test_lognormal_factor_matches_scalar_normal_and_exp():
    streams = RandomStreams(7, run_index=3)
    names = ["net.jitter.a.b", "compute.w0", "gc.pause.w1"]
    sigmas = [0.05, 0.1, 0.3, 1.0, 2.5]
    expected = {name: reference(name) for name in names}
    got, want = [], []
    for i in range(DRAWS):
        name, sigma = names[i % 3], sigmas[(i // 3) % len(sigmas)]
        got.append(streams.lognormal_factor(name, sigma))
        want.append(float(np.exp(expected[name].normal(0.0, sigma))))
    assert DRAWS // 3 > 10 * BUFFER_SIZE    # many refills per name
    assert np.array_equal(np.array(got), np.array(want))
    assert all(type(value) is float for value in got)


def test_uniform_matches_scalar_uniform():
    streams = RandomStreams(7, run_index=3)
    names = ["net.congestion.n0", "pfs.noise.3"]
    ranges = [(0.0, 1.0), (-0.05, 0.05), (2.5, 7.25), (-3.0, -1.0),
              (1e-9, 3e-9)]
    expected = {name: reference(name) for name in names}
    got, want = [], []
    for i in range(DRAWS):
        name, (low, high) = names[i % 2], ranges[(i // 2) % len(ranges)]
        got.append(streams.uniform(name, low, high))
        want.append(float(expected[name].uniform(low, high)))
    assert np.array_equal(np.array(got), np.array(want))
    assert all(type(value) is float for value in got)


def test_zero_sigma_draws_nothing():
    streams = RandomStreams(7, run_index=3)
    expected = reference("overhead.w0")
    for sigma in (0.0, -1.0, 0.2, 0.0, 0.2, -0.5, 0.2):
        value = streams.lognormal_factor("overhead.w0", sigma)
        if sigma <= 0:
            assert value == 1.0
        else:
            assert value == float(np.exp(expected.normal(0.0, sigma)))
    # A name only ever drawn with sigma <= 0 is still untouched and free.
    assert streams.lognormal_factor("gc.pause.w9", 0.0) == 1.0
    assert streams.stream("gc.pause.w9").normal() == \
        reference("gc.pause.w9").normal()


class TestOneDistributionPerName:
    def test_two_buffered_helpers_on_one_name_raise(self):
        streams = RandomStreams(1)
        streams.uniform("x", 0.0, 1.0)
        with pytest.raises(ValueError, match="one distribution"):
            streams.lognormal_factor("x", 0.1)
        streams.lognormal_factor("y", 0.1)
        with pytest.raises(ValueError, match="one distribution"):
            streams.uniform("y", 0.0, 1.0)

    def test_stream_of_a_buffered_name_raises(self):
        streams = RandomStreams(1)
        streams.lognormal_factor("x", 0.1)
        with pytest.raises(ValueError, match="one distribution"):
            streams.stream("x")
        with pytest.raises(ValueError, match="one distribution"):
            streams.exponential("x", 1.0)

    def test_buffered_draw_of_a_direct_stream_raises(self):
        streams = RandomStreams(1)
        streams.stream("x").integers(0, 10)
        with pytest.raises(ValueError, match="one distribution"):
            streams.uniform("x", 0.0, 1.0)
        streams.choice("y", ["a", "b"])
        with pytest.raises(ValueError, match="one distribution"):
            streams.lognormal_factor("y", 0.1)

    def test_unbuffered_helpers_share_a_name(self):
        """``exponential``, ``integers`` and ``choice`` still draw from
        the generator itself, so they may share a name."""
        streams = RandomStreams(1)
        expected = reference("q", 1, 0)
        assert streams.exponential("q", 2.0) == float(expected.exponential(2.0))
        assert streams.integers("q", 0, 9) == int(expected.integers(0, 9))
