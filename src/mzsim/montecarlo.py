"""Count-level Monte Carlo for the three experiments.

Every particle follows a short branch tree: excited or not, decayed
before, inside or after the interferometer, routed to which counter.
A chunk of particles is split along that tree with nested binomials,
one draw per branch, so a chunk costs O(1) draws whatever its size and
the tallies follow the same multinomial law as sampling each particle
on its own (Davis 1993, *Comput. Stat. Data Anal.* 16:205).  Branch
probabilities come from :func:`~mzsim.core.survival_fraction` and the
50/50 splitters, never from :mod:`mzsim.predict`, so the predictors
stay an independent statistical oracle for these samplers.

Particles are partitioned into fixed-size chunks and every chunk gets
its own RNG substream: the PCG64 state that
``np.random.SeedSequence(entropy=seed, spawn_key=(chunk index,))``
gives.  This module imports no numpy.  It ports the three numpy
algorithms the stream rests on, on Python ints and floats: the
``SeedSequence`` hashes that give the seed's entropy pool and each
chunk's state, PCG64 (O'Neill 2014, HMC-CS-2014-0905), and numpy's
``random_binomial``, inversion or BTPE (Kachitvichyanukul & Schmeiser
1988, *Comm. ACM* 31(2):216).  Every draw is bit for bit the one
``numpy.random.Generator.binomial`` makes from the same state, and the
stream does not depend on the installed numpy.  The chunk states are
derived a block of chunks at a time: each ``SeedSequence`` hash and mix
runs once over a block, on one Python int that holds a chunk per 64-bit
lane.  They are loaded one after another into a single
:class:`_Sampler`, and chunk tallies are summed, so the result is a
pure function of ``(seed, chunk_size, parameters)``.  The per-``(n,
p)`` binomial set-ups are cached across chunks; the cache holds the
window of ``n`` that a run's nested draws visit, so each set-up is
computed about once per run.  :class:`SimConfig` lives in
:mod:`mzsim.core` so that parsing a configuration needs no sampler; it
is re-exported here.
"""

import struct
from functools import lru_cache
from math import exp, floor, log, log1p, sqrt

from .core import (
    EXPERIMENTS,
    CountTable,
    DecayParams,
    ExcitationParams,
    Hypothesis,
    PhotonParams,
    SimConfig,
    survival_fraction,
)
from .errors import DomainError

__all__ = [
    "SimConfig",
    "chunk_rng",
    "simulate_excitation",
    "simulate_decay",
    "simulate_photon",
]

# np.random.SeedSequence's constants (numpy/random/bit_generator.pyx); the
# tests compare the pool and the derived states with numpy's own
_M32 = 0xFFFF_FFFF
_MIX_L = 0xCA01F9DD
_MIX_R = -0x4973F715 & _M32  # the mix subtracts; add its negation mod 2**32
# the hash constant steps once per hash: the pool takes steps 0-15 of the
# _HASH_A walk (4 entropy words, 12 cross-mixes), the 4 spawn-word mixes
# steps 16-20; the 8 state words walk _HASH_B
_HASH_A = [0x43B0D7E5 * pow(0x931E8875, k, 2**32) & _M32 for k in range(21)]
_HASH_B = [0x8B51F9DD * pow(0x58F38DED, k, 2**32) & _M32 for k in range(9)]
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M53 = 2**53 - 1
_M64 = 2**64 - 1
_M128 = 2**128 - 1
_INT64 = 2**63
# chunk states are derived this many chunks at a time, one 64-bit lane each
_STATE_BLOCK = 512
# per-(n, p) binomial set-ups kept: a run's nested draws take n from a window
# around each branch's mean that grows as sqrt(chunk_size); 3000 decay-CCQI
# chunks of 2**20 need 4201 set-ups, ~2.8 MB, so a full cache stays near 11 MB
_SETUP_CACHE = 2**14


def _hash(value: int, xor: int, mult: int) -> int:
    """SeedSequence's 32-bit hash of one word."""
    value = (value ^ xor) * mult & _M32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    """SeedSequence's 32-bit mix of two words."""
    value = (_MIX_L * x + _MIX_R * y) & _M32
    return value ^ value >> 16


def _seed_pool(seed: int) -> list[int]:
    """``np.random.SeedSequence(seed).pool``, for ``0 <= seed < 2**64``.

    The seed's little-endian 32-bit words fill the four-word pool, the
    missing words hashed as zeros, and every word is then mixed into
    every other.
    """
    seed = int(seed)
    pool = [_hash(seed >> 32 * k & _M32, _HASH_A[k], _HASH_A[k + 1]) for k in range(4)]
    step = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], _HASH_A[step], _HASH_A[step + 1]))
                step += 1
    return pool


def _lanes(values) -> int:
    """``values`` as the 64-bit lanes of one int, the first lane lowest."""
    return int.from_bytes(struct.pack(f"<{len(values)}Q", *values), "little")


def _unlanes(packed: int, count: int) -> tuple[int, ...]:
    """The ``count`` 64-bit lanes of ``packed``, the inverse of :func:`_lanes`."""
    return struct.unpack(f"<{count}Q", packed.to_bytes(8 * count, "little"))


def _pcg64_states(seed: int, start: int, stop: int):
    """Yield the PCG64 ``(state, inc)`` of chunks ``start`` to ``stop - 1``.

    Each equals ``np.random.PCG64(np.random.SeedSequence(entropy=seed,
    spawn_key=(index,))).state``, for ``seed < 2**64`` and
    ``index < 2**32`` (one spawn word): the spawn word is mixed into
    each word of the seed's pool, and eight state words are hashed from
    the result.

    The hashes and mixes run on :data:`_STATE_BLOCK` chunks at once,
    one chunk per 64-bit lane of a Python int.  Every lane holds a
    32-bit word and every product is 32 by 32 bits, so no carry crosses
    into the next lane; each shift is masked back to 32 bits for the
    same reason.
    """
    # _MIX_L * pool word reduced mod 2**32, so that the mix's sum stays below 2**64
    left = [_MIX_L * p & _M32 for p in _seed_pool(seed)]
    for lo in range(start, stop, _STATE_BLOCK):
        count = min(_STATE_BLOCK, stop - lo)
        ones = _lanes([1] * count)
        m32 = _M32 * ones
        index = _lanes(range(lo, lo + count))
        mixed = []
        for k, pool_word in enumerate(left):
            h = (index ^ _HASH_A[16 + k] * ones) * _HASH_A[17 + k] & m32
            h ^= h >> 16 & m32
            x = (h * _MIX_R + pool_word * ones) & m32
            mixed.append(x ^ x >> 16 & m32)
        w = []
        for k in range(8):
            h = (mixed[k % 4] ^ _HASH_B[k] * ones) * _HASH_B[k + 1] & m32
            w.append(h ^ h >> 16 & m32)
        # PCG64 reads the words as four little-endian uint64s: state hi, lo, inc hi, lo
        words = [_unlanes(w[k + 1] << 32 | w[k], count) for k in (0, 2, 4, 6)]
        for state_hi, state_lo, inc_hi, inc_lo in zip(*words):
            state = state_hi << 64 | state_lo
            inc = (inc_hi << 65 | inc_lo << 1 | 1) & _M128
            # pcg64 srandom: two LCG steps from state 0, the seed added between them
            yield ((inc + state) * _PCG_MULT + inc) & _M128, inc


def _wrap64(x: int) -> int:
    """``x`` as C's int64 arithmetic leaves it: reduced mod 2**64 into [-2**63, 2**63)."""
    return (x + _INT64 & _M64) - _INT64


@lru_cache(maxsize=_SETUP_CACHE)
def _inversion_setup(n: int, p: float):
    """numpy's per-(n, p) inversion constants: q, q**n and the search bound."""
    q = 1.0 - p
    np_ = n * p
    bound = np_ + 10.0 * sqrt(np_ * q + 1)
    # C's MIN(n, bound) compares and returns doubles before the cast
    return q, exp(n * log1p(-p)), n if n < bound else int(bound)


@lru_cache(maxsize=_SETUP_CACHE)
def _btpe_setup(n: int, p: float):
    """numpy's per-(n, p) BTPE constants, including ``s`` and ``a = s * (n + 1)``.

    ``p <= 0.5``, so numpy's ``r = min(p, 1 - p)`` is ``p``.
    """
    r = p
    q = 1.0 - r
    fm = n * r + r
    m = floor(fm)
    p1 = floor(2.195 * sqrt(n * r * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl = xm - p1
    xr = xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    s = r / q
    # int64 n + 1 wraps at n = 2**63 - 1
    return (r, q, m, p1, xm, xl, xr, c, laml, lamr, p2, p3, p4, n * r * q, s,
            s * _wrap64(n + 1))


class _Sampler:
    """A PCG64 generator whose ``binomial`` is numpy's, draw for draw.

    ``state`` and ``inc`` are the 128-bit PCG64 state and increment, as
    ``np.random.PCG64().state["state"]`` holds them.
    """

    __slots__ = ("state", "inc")

    def __init__(self, state: int = 0, inc: int = 1):
        self.state = state
        self.inc = inc

    def next_double(self) -> float:
        """One LCG step, the XSL-RR output, and its top 53 bits as a double in [0, 1)."""
        state = self.state = (self.state * _PCG_MULT + self.inc) & _M128
        x = (state >> 64 ^ state) & _M64
        # rotate right by the top 6 bits, then keep the top 53 of the 64
        return ((x | x << 64) >> (state >> 122) + 11 & _M53) * 2.0**-53

    def binomial(self, n: int, p: float) -> int:
        """numpy's ``random_binomial(n, p)``: reflect p > 0.5, then inversion or BTPE."""
        if n == 0 or p == 0.0:
            return 0
        if p <= 0.5:
            return self._inversion(n, p) if p * n <= 30.0 else self._btpe(n, p)
        q = 1.0 - p
        return n - (self._inversion(n, q) if q * n <= 30.0 else self._btpe(n, q))

    def _inversion(self, n: int, p: float) -> int:
        q, qn, bound = _inversion_setup(n, p)
        x = 0
        px = qn
        u = self.next_double()
        while u > px:
            x += 1
            if x > bound:
                x = 0
                px = qn
                u = self.next_double()
            else:
                u -= px
                px = ((n - x + 1) * p * px) / (x * q)
        return x

    def _btpe(self, n: int, p: float) -> int:
        """BTPE as numpy's C code runs it, int64 wraps included; p <= 0.5."""
        r, q, m, p1, xm, xl, xr, c, laml, lamr, p2, p3, p4, nrq, s, a = _btpe_setup(n, p)
        next_double = self.next_double
        while True:
            u = next_double() * p4
            v = next_double()
            if u <= p1:
                return floor(xm - p1 * v + u)
            if u <= p2:
                x = xl + (u - p1) / c
                v = v * c + 1.0 - abs(m - x + 0.5) / p1
                if v > 1.0:
                    continue
                y = floor(x)
            elif u <= p3:
                if v == 0.0:
                    continue
                y = floor(xl + log(v) / laml)
                if y < 0:
                    continue
                v = v * (u - p2) * laml
            else:
                if v == 0.0:
                    continue
                y = floor(xr - log(v) / lamr)
                if y > n:
                    continue
                v = v * (u - p3) * lamr
            k = abs(y - m)
            if not (k > 20 and k < nrq / 2.0 - 1):
                f = 1.0
                if m < y:
                    for i in range(m + 1, y + 1):
                        f *= a / i - s
                elif m > y:
                    for i in range(y + 1, m + 1):
                        f /= a / i - s
                if v > f:
                    continue
                return y
            # C takes log(v) of v <= 0 as -inf or NaN, and both accept
            if v <= 0.0:
                return y
            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
            # int64 -k*k wraps for k above 2**31.5
            t = _wrap64(-k * k) / (2 * nrq)
            big_a = log(v)
            if big_a < t - rho:
                return y
            if big_a > t + rho:
                continue
            # numpy adds these in doubles, n + 1 included
            x1 = y + 1.0
            f1 = m + 1.0
            z = float(n) + 1.0 - m
            w = float(n) - y + 1.0
            x2 = x1 * x1
            f2 = f1 * f1
            z2 = z * z
            w2 = w * w
            if big_a > (
                xm * log(f1 / x1)
                + (n - m + 0.5) * log(z / w)
                + (y - m) * log(w * r / (x1 * q))
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / f2) / f2) / f2) / f2) / f1 / 166320.0
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / z2) / z2) / z2) / z2) / z / 166320.0
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x1 / 166320.0
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / w2) / w2) / w2) / w2) / w / 166320.0
            ):
                continue
            return y


def chunk_rng(seed: int, index: int):
    """Independent substream for one chunk, a pure function of (seed, index).

    It is the :class:`numpy.random.Generator` that
    ``np.random.default_rng(np.random.SeedSequence(entropy=seed,
    spawn_key=(index,)))`` would give, its state derived as the
    simulator derives the substreams of a whole run.  The simulator
    itself draws from :class:`_Sampler` and needs no numpy; this is the
    numpy handle on a chunk's substream, kept so that tests and callers
    can check the pure-Python draws against numpy's own, and it imports
    numpy on its first call.
    """
    if not (0 <= seed < 2**64 and 0 <= index < 2**32):
        raise DomainError(
            f"chunk_rng needs 0 <= seed < 2**64 and 0 <= index < 2**32, got {seed}, {index}"
        )
    import numpy as np

    state, inc = next(_pcg64_states(seed, index, index + 1))
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bitgen)


def _run_chunked(name: str, h: Hypothesis, n0: int, cfg: SimConfig, kernel) -> CountTable:
    """Experiment ``name``'s count table for a run of ``n0`` particles under ``h``.

    ``kernel(rng, size)`` tallies one chunk in the experiment's label
    order; the tallies are summed one chunk at a time.
    """
    EXPERIMENTS[name].check(h)
    labels = EXPERIMENTS[name].labels
    total = [0] * len(labels)
    rng = _Sampler()
    states = _pcg64_states(cfg.seed, 0, cfg.chunk_count(n0))
    for index, (rng.state, rng.inc) in enumerate(states):
        size = min(cfg.chunk_size, n0 - index * cfg.chunk_size)
        tally = kernel(rng, size)
        total = [a + b for a, b in zip(total, tally)]
    table = CountTable(*total, labels=labels)
    assert table.total == n0
    return table


def simulate_excitation(
    p: ExcitationParams, h: Hypothesis, cfg: SimConfig = SimConfig()
) -> CountTable:
    """Sample one run of the cavity-excitation experiment.

    Each atom is excited with probability ``epsilon``; an excited atom
    is still excited at the counters with probability
    ``exp(-lam * t)``.  Under CCQI every excited atom, alive or decayed,
    routes 50/50 to either counter.  Excited survivors land in the "2"
    column of their counter, everything else in the "1" column.
    """
    s = survival_fraction(p.lam, p.t)
    collapse = h is Hypothesis.CCQI

    def kernel(rng, size):
        excited = rng.binomial(size, p.epsilon)
        alive = rng.binomial(excited, s)
        if not collapse:
            return size - alive, alive, 0, 0
        nb2 = rng.binomial(alive, 0.5)
        nb1 = rng.binomial(excited - alive, 0.5)
        return size - alive - nb1, alive - nb2, nb1, nb2

    return _run_chunked("excitation", h, p.n0, cfg, kernel)


def simulate_decay(
    p: DecayParams, h: Hypothesis, cfg: SimConfig = SimConfig()
) -> CountTable:
    """Sample one run of the in-flight-decay experiment.

    An excited atom survives the three flight segments one after the
    other (memorylessness of the exponential law), the in-arm segment
    at rate ``lam_prime`` under MODIFIED_RATE and at ``lam`` otherwise.
    Atoms that decay inside the interferometer route 50/50 under CCQI;
    every other atom reaches counter a, and excited arrivals land in
    ``na2``.  A source purity ``mu`` below 1 is first folded into a
    longer ``t1`` (:meth:`DecayParams.with_purity_folded`).
    """
    p = p.with_purity_folded()
    modified = h is Hypothesis.MODIFIED_RATE
    if modified and p.lam_prime is None:
        raise DomainError("lam_prime is required under MODIFIED_RATE")
    collapse = h is Hypothesis.CCQI
    s1 = survival_fraction(p.lam, p.t1)
    s2 = survival_fraction(p.lam_prime if modified else p.lam, p.t2)
    s3 = survival_fraction(p.lam, p.t3)

    def kernel(rng, size):
        entered = rng.binomial(size, s1)
        left = rng.binomial(entered, s2)
        na2 = rng.binomial(left, s3)
        nb1 = rng.binomial(entered - left, 0.5) if collapse else 0
        return size - na2 - nb1, na2, nb1, 0

    return _run_chunked("decay", h, p.n0, cfg, kernel)


def simulate_photon(
    p: PhotonParams, h: Hypothesis, cfg: SimConfig = SimConfig()
) -> CountTable:
    """Sample one run of the pair-splitting photon experiment.

    POS: with probability ``u*d`` the device-arm component survives the
    split-and-recombine stage and the photon exits at counter 1 by
    constructive interference; otherwise only empty-arm flux remains
    and the photon is lost with probability 1/2 or reaches either
    counter with probability 1/4.

    CCQI: the photon commits to one arm.  Device-arm photons survive
    the crystals with probability ``u*d`` or are lost; every surviving
    photon then routes 50/50 at the exit splitter.
    """
    ud = p.u * p.d
    coherent = h is Hypothesis.POS

    def kernel(rng, size):
        if coherent:
            recombined = rng.binomial(size, ud)
            lost = rng.binomial(size - recombined, 0.5)
            stray = rng.binomial(size - recombined - lost, 0.5)
            return recombined + stray, size - recombined - lost - stray, lost
        device = rng.binomial(size, 0.5)
        survivors = size - device + rng.binomial(device, ud)
        counter1 = rng.binomial(survivors, 0.5)
        return counter1, survivors - counter1, size - survivors

    return _run_chunked("photon", h, p.n0, cfg, kernel)
