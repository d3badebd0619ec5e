"""Reproducible uniform random streams with addressable substreams.

Streams are built on the Philox counter-based generator.  A stream is
identified by a 64-bit seed plus a tuple of integer path components; the
same (seed, path) always yields the same sequence no matter how many other
streams were used before it, which makes Monte Carlo runs bit-reproducible
regardless of execution order or parallel scheduling.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["RandomStream"]

_MASK64 = (1 << 64) - 1
# RandomStream.uniforms' constants, made once: building NumPy scalars on every call
# would cost more than converting a row of a few words
_SHIFT = np.uint64(12)
_ONE_BITS = np.uint64(0x3FF0000000000000)
_ONE_MINUS_HALF_GRAIN = 1.0 - 2.0**-53


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer; full avalanche on 64 bits."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """``_splitmix64`` on a uint64 array; products wrap modulo 2**64 alike."""
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _derive_key(seed: int, path: tuple[int, ...]) -> tuple[int, int]:
    """Map (seed, path) to a 128-bit Philox key, one mixing round per component."""
    k = _splitmix64(seed & _MASK64)
    for c in path:
        k = _splitmix64(k ^ _splitmix64(c & _MASK64))
    return k, _splitmix64(k ^ 0xA5A5A5A5A5A5A5A5)


def _derive_keys(seed: int, path: tuple[int, ...], last: np.ndarray) -> np.ndarray:
    """``_derive_key(seed, path + (c,))`` for every c in ``last``, as a (len, 2) uint64 array."""
    k0 = _splitmix64_array(np.uint64(_derive_key(seed, path)[0]) ^ _splitmix64_array(last))
    return np.stack([k0, _splitmix64_array(k0 ^ np.uint64(0xA5A5A5A5A5A5A5A5))], axis=1)


class RandomStream:
    """A deterministic source of uniforms on the open interval (0, 1).

    Parameters
    ----------
    seed : int
        64-bit master seed.  Two streams with the same seed and path are
        identical; any difference in either gives an unrelated stream.

    Notes
    -----
    Instances are stateful (each draw advances an internal counter) and must
    not be shared mutably across threads.  ``substream`` returns a fresh,
    independent stream whose output does not depend on how much the parent
    has been consumed.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError("seed must be an integer")
        self.seed = int(seed)
        self.path = _path
        key = np.array(_derive_key(self.seed, _path), dtype=np.uint64)
        self._bitgen = np.random.Philox(key=key)
        self._rows: RandomStream | None = None  # unit_uniforms' row generator

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, path={self.path})"

    def substream(self, *components: int) -> "RandomStream":
        """Independent child stream addressed by extending the path."""
        for c in components:
            if not isinstance(c, (int, np.integer)):
                raise TypeError("substream components must be integers")
        return RandomStream(self.seed, self.path + tuple(int(c) for c in components))

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` uniforms, strictly inside (0, 1).

        Raw 64-bit words are reduced to 52 bits and mapped through
        (x + 0.5) / 2**52, so every value lies in [2**-53, 1 - 2**-53] and
        the endpoints are unreachable by construction.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        # in place: the top 52 bits m become the mantissa of 1 + m * 2**-52, and
        # subtracting 1 - 2**-53 leaves exactly (m + 0.5) * 2**-52 (Sterbenz)
        raw = self._bitgen.random_raw(n)
        raw >>= _SHIFT
        raw |= _ONE_BITS
        u = raw.view(np.float64)
        u -= _ONE_MINUS_HALF_GRAIN
        return u

    def unit_uniforms(self, units, k: int) -> np.ndarray:
        """A (len(units), k) block whose row r is ``self.substream(units[r]).uniforms(k)``.

        The keys of several units are derived in one pass over a uint64 array,
        and one row generator, made on the first call and kept by this stream,
        is re-keyed for each row instead of a Philox being constructed per
        unit.  This stream's own position is not touched.
        """
        if not (isinstance(units, np.ndarray) and units.dtype.kind in "iu"):
            # reduce each index as substream does; NumPy would turn ints beyond int64 into floats
            units = np.array([operator.index(c) & _MASK64 for c in units], dtype=np.uint64)
        if units.ndim != 1:
            raise TypeError("units must be one-dimensional")
        if self._rows is None:
            self._rows = RandomStream(self.seed, self.path)
        row = self._rows
        zeros = np.zeros(4, np.uint64)

        def rekey(key):
            # the state of a freshly keyed Philox: counter 0, empty buffer
            row._bitgen.state = {
                "bit_generator": "Philox",
                "state": {"counter": zeros, "key": key},
                "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
            }

        if units.size == 1:
            # one unit per chunk (large K): Python ints beat a dozen NumPy calls on
            # one element, and the row is handed out without a copy
            rekey(_derive_key(self.seed, self.path + (int(units[0]),)))
            return row.uniforms(k).reshape(1, k)
        keys = _derive_keys(self.seed, self.path, units.astype(np.uint64))
        block = np.empty((units.size, k))
        for r, key in enumerate(keys):
            rekey(key)
            block[r] = row.uniforms(k)
        return block
