"""Reproducible uniform random streams with addressable substreams.

Streams are built on the Philox counter-based generator.  A stream is
identified by a 64-bit seed plus a tuple of integer path components; the
same (seed, path) always yields the same sequence no matter how many other
streams were used before it, which makes Monte Carlo runs bit-reproducible
regardless of execution order or parallel scheduling.

A block of several units at small K is generated by ``_philox_words``, a NumPy
Philox4x64-10 that runs every (unit, counter) block of the request as one
set of uint64 array operations; its words equal those of a Philox keyed per
unit bit for bit, so the path taken changes no draw.
"""

from __future__ import annotations

import operator

import numpy as np

from .exceptions import ParameterError

__all__ = ["RandomStream"]

_MASK64 = (1 << 64) - 1
# RandomStream.uniforms' constants, made once: building NumPy scalars on every call
# would cost more than converting a row of a few words
_SHIFT = np.uint64(12)
_ONE_BITS = np.uint64(0x3FF0000000000000)
_ONE_MINUS_HALF_GRAIN = 1.0 - 2.0**-53

# Philox4x64-10 (Salmon, Moraes, Dror & Shaw, SC'11) as in NumPy's Philox: the
# two round multipliers, split into 32-bit halves, and the two Weyl key increments,
# each shaped (2, 1, 1) to act on the pair of words it belongs to
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], np.uint64).reshape(2, 1, 1)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _S32
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], np.uint64).reshape(2, 1, 1)
# unit_uniforms draws several units at once below _VECTOR_K_MAX draws per unit;
# from there up, NumPy's Philox re-keyed per row makes the words faster (measured
# crossover, BENCH_philox_small_k.json), and RandomStream.uniforms sees every draw
_VECTOR_K_MAX = 80


def _root_seed(seed: int) -> int:
    """``seed`` if it is a root seed, an integer in [0, 2**64)."""
    if not 0 <= seed <= _MASK64:
        raise ParameterError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return seed


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


def _philox_words(keys: np.ndarray, k: int) -> np.ndarray:
    """The first k words of a Philox keyed by each row of the (n, 2) uint64 ``keys``.

    Row r equals ``np.random.Philox(key=keys[r]).random_raw(k)``: block j of
    a fresh key is the ten-round Philox4x64 of the counter (j + 1, 0, 0, 0),
    since NumPy's Philox increments its counter before it generates.  The
    counter words (c0, c2) and (c1, c3) are held as pairs, so each round is
    one 64 x 64 -> 128-bit product over both multiplied words of every block.
    """
    n, blocks = len(keys), -(-k // 4)
    key = keys.T.reshape(2, n, 1)
    even = np.zeros((2, n, blocks), np.uint64)  # (c0, c2)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)  # (c1, c3)
    for r in range(10):
        if r:
            key = key + _PHILOX_W
        # the high word from 32-bit partial products (Hacker's Delight, 8-2)
        x_lo, x_hi = even & _LO32, even >> _S32
        t = _PHILOX_M_LO * x_hi + ((_PHILOX_M_LO * x_lo) >> _S32)
        w = (t & _LO32) + _PHILOX_M_HI * x_lo
        hi = _PHILOX_M_HI * x_hi + (t >> _S32) + (w >> _S32)
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0)
        even, odd = hi[::-1] ^ odd ^ key, (_PHILOX_M * even)[::-1]
    words = np.stack([even[0], odd[0], even[1], odd[1]], axis=2).reshape(n, 4 * blocks)
    return np.ascontiguousarray(words[:, :k])


def _to_uniforms(raw: np.ndarray) -> np.ndarray:
    """Philox words as uniforms ((w >> 12) + 0.5)·2**-52, converted in place."""
    # the top 52 bits m become the mantissa of 1 + m * 2**-52, and
    # subtracting 1 - 2**-53 leaves exactly (m + 0.5) * 2**-52 (Sterbenz)
    raw >>= _SHIFT
    raw |= _ONE_BITS
    u = raw.view(np.float64)
    u -= _ONE_MINUS_HALF_GRAIN
    return u


def _derive_key(seed: int, path: tuple[int, ...]) -> tuple[int, int]:
    """Map (seed, path) to a 128-bit Philox key, one mixing round per component."""
    k = _splitmix64(seed)
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
        Master seed in [0, 2**64); any other integer raises
        ``ParameterError``.  Two streams with the same seed and path are
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
        self.seed = _root_seed(int(seed))
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
        return _to_uniforms(self._bitgen.random_raw(n))

    def unit_uniforms(self, units, k: int) -> np.ndarray:
        """A (len(units), k) block whose row r is ``self.substream(units[r]).uniforms(k)``.

        The keys of several units are derived in one pass over a uint64 array.
        Below ``_VECTOR_K_MAX`` draws per unit, their Philox words come from
        one vectorized pass (``_philox_words``) and are converted in place;
        from there up, and for a single unit, one row generator, made on the
        first call and kept by this stream, is re-keyed for each row.  Both
        give the same bits.  This stream's own position is not touched.
        """
        k = operator.index(k)
        if k < 0:
            raise ValueError("k must be nonnegative")
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
        if k < _VECTOR_K_MAX:
            return _to_uniforms(_philox_words(keys, k))
        block = np.empty((units.size, k))
        for r, key in enumerate(keys):
            rekey(key)
            block[r] = row.uniforms(k)
        return block
