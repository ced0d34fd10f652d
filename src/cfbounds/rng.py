"""Reproducible random number streams.

All randomness in the package flows through :class:`SeededRng`, a thin
wrapper around NumPy's PCG64 generator.  Substreams are derived by mixing
``seed XOR stream`` through a splitmix64 step, so that (seed, stream)
pairs map to well-separated generator states and the same pair always
yields the same draw sequence.

Sampling from distributions is done exclusively via uniform draws fed
through inverse CDFs (never via ``Generator.normal`` etc.), which keeps
the draw sequences stable across NumPy versions and platforms.

Seeds and stream indices are whole numbers in [0, 2^64); any other value
is refused rather than wrapped, so that no two seeds share a stream.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


def check_seed(value, name: str = "seed") -> int:
    """``value`` as an int, or ``ValueError`` unless it is a whole number in
    [0, 2^64); Python and numpy integers qualify, booleans do not."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        value = int(value)
        if 0 <= value <= _MASK64:
            return value
    raise ValueError(f"{name} must be an integer in [0, 2^64), got {value!r}")


def splitmix64(z: int) -> int:
    """One splitmix64 output step for the 64-bit state ``z``."""
    z = (check_seed(z) + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class SeededRng:
    """A (seed, stream) pair identifying one reproducible draw sequence.

    Instances are cheap value objects; call :meth:`generator` to obtain a
    fresh NumPy generator positioned at the start of the stream.  A given
    instance should be consumed by a single owner (e.g. one replication);
    share the *description* (seed, stream), never a live generator.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", check_seed(self.seed))
        object.__setattr__(self, "stream", check_seed(self.stream, "stream index"))

    def state(self) -> int:
        return splitmix64(self.seed ^ self.stream)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.state()))

    def substream(self, index: int) -> "SeededRng":
        """Derive an independent child stream.

        The child re-keys on this stream's mixed state so that
        ``substream(i).substream(j)`` chains do not collide with sibling
        streams for any practical use.
        """
        return SeededRng(self.state(), index)
