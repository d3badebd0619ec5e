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
# round multipliers of c0 and c2, whole and as 32-bit halves, and the two Weyl
# key increments, shaped (2, 1, 1) to act on the key pair (k0, k1)
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_M0, _M1 = (np.uint64(m) for m in _PHILOX_M)
_M0_LO, _M1_LO = (np.uint64(m & 0xFFFFFFFF) for m in _PHILOX_M)
_M0_HI, _M1_HI = (np.uint64(m >> 32) for m in _PHILOX_M)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], np.uint64).reshape(2, 1, 1)
# splitmix64's increment and multipliers, and the salt of a key's second word
_SPLITMIX = [np.uint64(c) for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)]
_KEY1_SALT = 0xA5A5A5A5A5A5A5A5
# unit_uniforms draws several units at once below _VECTOR_K_MAX draws per unit, and
# from there up re-keys NumPy's Philox per row, where RandomStream.uniforms sees every
# draw; re-keying is faster only from about K = 120-160 (ROADMAP item 7), but no
# workload draws between 80 and there
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


def _splitmix64_inplace(x: np.ndarray, scratch: np.ndarray) -> None:
    """``_splitmix64`` on every word of the uint64 array ``x``, in place; products
    wrap modulo 2**64 alike.  ``scratch`` is a uint64 array of ``x``'s shape."""
    x += _SPLITMIX[0]
    for shift, multiplier in ((30, _SPLITMIX[1]), (27, _SPLITMIX[2])):
        np.right_shift(x, shift, out=scratch)
        x ^= scratch
        x *= multiplier
    np.right_shift(x, 31, out=scratch)
    x ^= scratch


def _philox_words(keys: np.ndarray, k: int) -> np.ndarray:
    """The first k words of a Philox keyed by each row of the (n, 2) uint64 ``keys``.

    Row r equals ``np.random.Philox(key=keys[r]).random_raw(k)``: block j of
    a fresh key is the ten-round Philox4x64 of the counter (j + 1, 0, 0, 0),
    since NumPy's Philox increments its counter before it generates.  The
    counter words are held as the pairs (c0, c2) and (c1, c3), each shaped
    (2, blocks, n): the unit axis is innermost, so a key broadcasts along
    contiguous words.  Round 1 is written in closed form, and rounds 2 to 10
    run in place in seven such arrays.  Each product acts on one contiguous
    half with a scalar multiplier, which NumPy runs as one flat loop.
    """
    n, blocks = len(keys), -(-k // 4)
    key = keys.T.reshape(2, 1, n).copy()  # (k0, k1), bumped in place each round
    # round 1 on (j + 1, 0, 0, 0) gives (k0, 0, hi(M0 (j + 1)) ^ k1, lo(M0 (j + 1)))
    products = [_PHILOX_M[0] * (j + 1) for j in range(blocks)]
    even = np.empty((2, blocks, n), np.uint64)  # (c0, c2)
    even[0] = key[0]
    np.bitwise_xor(np.array([p >> 64 for p in products], np.uint64)[:, None], key[1],
                   out=even[1])
    odd = np.zeros_like(even)  # (c1, c3)
    odd[1] = np.array([p & _MASK64 for p in products], np.uint64)[:, None]
    # each array with its two halves, made once: a product acts on one half
    even, odd, spare, (hh, hh0, hh1), (ll, ll0, ll1), (lh, lh0, lh1) = (
        (x, *x) for x in (even, odd, *(np.empty_like(even) for _ in range(4))))
    for _ in range(9):
        key += _PHILOX_W
        (e, e0, e1), (o, o0, o1), (hl, hl0, hl1) = even, odd, spare
        # hi(M x) from the four products of 32-bit halves, ll = x_lo M_lo,
        # lh = x_lo M_hi, hl = x_hi M_lo and hh = x_hi M_hi (Hacker's Delight,
        # 8-2): t = hl + (ll >> 32) and w = lh + (t & LO32) do not overflow,
        # and hi = hh + (t >> 32) + (w >> 32)
        np.bitwise_and(e, _LO32, out=ll)
        np.right_shift(e, _S32, out=hh)
        np.multiply(ll0, _M0_HI, out=lh0)
        np.multiply(ll1, _M1_HI, out=lh1)
        np.multiply(hh0, _M0_LO, out=hl0)
        np.multiply(hh1, _M1_LO, out=hl1)
        ll0 *= _M0_LO
        ll1 *= _M1_LO
        hh0 *= _M0_HI
        hh1 *= _M1_HI
        ll >>= _S32
        hl += ll  # t
        np.bitwise_and(hl, _LO32, out=ll)
        lh += ll  # w
        hl >>= _S32
        lh >>= _S32
        hh += hl
        hh += lh  # (hi0, hi1)
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0): the new
        # (c0, c2) overwrites odd, and the spare array takes (lo1, lo0)
        o0 ^= hh1
        o1 ^= hh0
        o ^= key
        np.multiply(e0, _M0, out=hl1)
        np.multiply(e1, _M1, out=hl0)
        even, odd, spare = odd, spare, even
    # word i of block j is column 4j + i
    words = np.empty((n, k), np.uint64)
    for i, word in enumerate((even[1], odd[1], even[2], odd[2])):
        words[:, i::4] = word[:len(range(i, k, 4))].T
    return words


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
    return k, _splitmix64(k ^ _KEY1_SALT)


def _derive_keys(key0: int, last: np.ndarray) -> np.ndarray:
    """``_derive_key(seed, path + (c,))`` for every c in the integer array ``last``,
    given ``key0 = _derive_key(seed, path)[0]``, as a (len, 2) uint64 array."""
    k0, k1, scratch = keys = np.empty((3, len(last)), np.uint64)
    k0[...] = last  # wraps like c & _MASK64
    _splitmix64_inplace(k0, scratch)
    k0 ^= np.uint64(key0)
    _splitmix64_inplace(k0, scratch)
    np.bitwise_xor(k0, np.uint64(_KEY1_SALT), out=k1)
    _splitmix64_inplace(k1, scratch)
    return keys[:2].T


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
        self._key = _derive_key(self.seed, _path)
        self._bitgen = np.random.Philox(key=np.array(self._key, dtype=np.uint64))
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
        keys = _derive_keys(self._key[0], units)
        if k < _VECTOR_K_MAX:
            return _to_uniforms(_philox_words(keys, k))
        block = np.empty((units.size, k))
        for r, key in enumerate(keys):
            rekey(key)
            block[r] = row.uniforms(k)
        return block
