"""Named, reproducible random-number streams.

Performance variability is the object of study in the reproduced paper,
so the simulator must produce *controlled* randomness: each stochastic
component (network jitter, PFS interference, task duration noise, GC
timing, ...) draws from its own independently seeded stream, derived
deterministically from a root seed and a stream name.  Re-running with
the same root seed reproduces a run exactly; changing only the
repetition index re-seeds every stream coherently, modelling the
run-to-run variability the paper measures.

The two hottest helpers, :meth:`RandomStreams.lognormal_factor` and
:meth:`RandomStreams.uniform`, draw ahead: each name keeps a short
buffer of ``standard_normal`` or ``random`` values from its generator
and scales one per call in Python, exactly as numpy's scalar
``normal(0.0, sigma)`` and ``uniform(low, high)`` do in C.  The values
are the ones the scalar calls would return, bit for bit, as long as a
name serves one distribution, so a name taken by one buffered helper
cannot be used with the other one or through :meth:`RandomStreams.stream`.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RandomStreams", "stable_seed"]

#: Values one refill of a buffered name draws from its generator.  A
#: refill costs about as much as one scalar draw, so 16 values make a
#: draw about ten times cheaper, while the buffers of a run's ~130
#: names stay under 0.1 MB.
BUFFER_SIZE = 16


def stable_seed(*parts: object) -> int:
    """Derive a 64-bit seed from arbitrary parts, stable across processes.

    Python's builtin ``hash`` is salted per process; we need a value that
    is identical for identical inputs on every run, so we hash the string
    rendering of the parts with BLAKE2.
    """
    digest = hashlib.blake2b(
        "\x1f".join(str(p) for p in parts).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


class RandomStreams:
    """Factory of independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    root_seed:
        Seed shared by the whole simulation run.
    run_index:
        Repetition number; folded into every stream so that repetition
        *k* of an experiment differs from repetition *k+1* in all noise
        sources at once, as distinct physical runs would.
    """

    def __init__(self, root_seed: int = 0, run_index: int = 0):
        self.root_seed = int(root_seed)
        self.run_index = int(run_index)
        self._streams: dict[str, np.random.Generator] = {}
        #: Names served by a buffered helper: name -> (distribution,
        #: generator).  They are kept out of ``_streams``.
        self._buffered: dict[str, tuple[str, np.random.Generator]] = {}
        #: Undrawn values per buffered name, the next one last.
        self._normals: dict[str, list[float]] = {}
        self._uniforms: dict[str, list[float]] = {}

    def _generator(self, name: str) -> np.random.Generator:
        return np.random.default_rng(
            stable_seed(self.root_seed, self.run_index, name))

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            if name in self._buffered:
                raise ValueError(
                    f"stream {name!r} serves buffered "
                    f"{self._buffered[name][0]} draws; a name serves one "
                    f"distribution")
            gen = self._streams[name] = self._generator(name)
        return gen

    def fixed_stream(self, name: str) -> np.random.Generator:
        """A generator independent of ``run_index``.

        Use for quantities that must be identical across repetitions of
        an experiment — above all dataset contents: the paper reruns the
        same workflow on the same data; only the platform noise and
        scheduling change between runs.
        """
        key = f"fixed::{name}"
        gen = self._streams.get(key)
        if gen is None:
            seed = stable_seed(self.root_seed, "fixed", name)
            gen = np.random.default_rng(seed)
            self._streams[key] = gen
        return gen

    # Convenience draws -------------------------------------------------
    def lognormal_factor(self, name: str, sigma: float) -> float:
        """A multiplicative noise factor with median 1.0.

        Log-normal noise is the conventional model for HPC performance
        jitter: strictly positive, right-skewed (occasional stragglers).
        """
        if sigma <= 0:
            return 1.0
        buffer = self._normals.get(name)
        if not buffer:
            buffer = self._refill(self._normals, name, "normal")
        # numpy's scalar ``normal(0.0, sigma)`` is ``0.0 + sigma * z``.
        return float(np.exp(0.0 + sigma * buffer.pop()))

    def exponential(self, name: str, mean: float) -> float:
        return float(self.stream(name).exponential(mean))

    def uniform(self, name: str, low: float, high: float) -> float:
        buffer = self._uniforms.get(name)
        if not buffer:
            buffer = self._refill(self._uniforms, name, "uniform")
        # numpy's scalar ``uniform(low, high)`` is
        # ``low + (high - low) * u``.
        return low + (high - low) * buffer.pop()

    def _refill(self, buffers: dict[str, list[float]], name: str,
                distribution: str) -> list[float]:
        """Draw the next :data:`BUFFER_SIZE` values of ``name`` into
        ``buffers[name]``; raise if ``name`` serves another
        distribution."""
        entry = self._buffered.get(name)
        if entry is None:
            if name in self._streams:
                raise ValueError(f"stream {name!r} is drawn from directly; "
                                 f"a name serves one distribution")
            entry = self._buffered[name] = (distribution,
                                            self._generator(name))
        elif entry[0] != distribution:
            raise ValueError(f"stream {name!r} serves buffered {entry[0]} "
                             f"draws; a name serves one distribution")
        gen = entry[1]
        if distribution == "normal":
            values = gen.standard_normal(BUFFER_SIZE).tolist()
        else:
            values = gen.random(BUFFER_SIZE).tolist()
        values.reverse()
        buffers[name] = values
        return values

    def integers(self, name: str, low: int, high: int) -> int:
        return int(self.stream(name).integers(low, high))

    def choice(self, name: str, options):
        options = list(options)
        return options[self.integers(name, 0, len(options))]
