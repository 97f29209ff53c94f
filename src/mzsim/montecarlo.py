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
:class:`_Sampler`, and each kernel adds up its chunks' draws, so the
result is a pure function of ``(seed, chunk_size, parameters)``.  A
draw is one Python call: :meth:`_Sampler.binomial` steps PCG64 inline
and returns from inversion or BTPE's fast region itself.  A run's
sampler keeps its per-``(n, p)`` set-ups by p, then n; they hold the
window of ``n`` that the nested draws visit, so each set-up is
computed once per run.  :class:`SimConfig` lives in
:mod:`mzsim.core` so that parsing a configuration needs no sampler; it
is re-exported here.
"""

import struct
from collections import defaultdict
from itertools import chain, repeat
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
_ROTATE = 2**64 + 1
_INT64 = 2**63
# chunk states are derived this many chunks at a time, one 64-bit lane each
_STATE_BLOCK = 512
# binomial set-ups a run keeps per p, of which it draws at most four: its nested
# draws take n from a window around each branch's mean that grows as sqrt(chunk_size);
# 3000 decay-CCQI chunks of 2**20 need 4190 set-ups, at most 1540 for one p, ~2.8 MB,
# so four full tables stay near 11 MB
_SETUP_CACHE = 2**12


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


def _inversion_setup(n: int, p: float):
    """numpy's per-(n, p) inversion constants: q, q**n and the search bound."""
    q = 1.0 - p
    np_ = n * p
    bound = np_ + 10.0 * sqrt(np_ * q + 1)
    # C's MIN(n, bound) compares and returns doubles before the cast
    return q, exp(n * log1p(-p)), n if n < bound else int(bound)


def _btpe_setup(n: int, p: float):
    """numpy's per-(n, p) BTPE constants: ``p1``, ``xm`` and ``p4`` for the fast
    region, then the tuple :func:`_btpe_tail` takes, with ``a = s * (n + 1)``.

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
    return p1, xm, p4, (r, q, m, p1, xm, xl, xr, c, laml, lamr, p2, p3, n * r * q, s,
                        s * _wrap64(n + 1))


def _setup(table: dict, n: int, p: float):
    """Compute the set-up of Bin(n, p), p <= 0.5, and keep it in ``table[n]``."""
    if len(table) >= _SETUP_CACHE:
        table.clear()
    table[n] = setup = _inversion_setup(n, p) if p * n <= 30.0 else _btpe_setup(n, p)
    return setup


def _btpe_tail(n: int, u: float, v: float, setup: tuple):
    """BTPE's draw from a proposal ``(u, v)`` outside its fast region, or None
    if it is rejected: numpy's C code, int64 wraps included; p <= 0.5."""
    r, q, m, p1, xm, xl, xr, c, laml, lamr, p2, p3, nrq, s, a = setup
    if u <= p2:
        x = xl + (u - p1) / c
        v = v * c + 1.0 - abs(m - x + 0.5) / p1
        if v > 1.0:
            return None
        y = floor(x)
    elif u <= p3:
        if v == 0.0:
            return None
        y = floor(xl + log(v) / laml)
        if y < 0:
            return None
        v = v * (u - p2) * laml
    else:
        if v == 0.0:
            return None
        y = floor(xr - log(v) / lamr)
        if y > n:
            return None
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
        return None if v > f else y
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
        return None
    # numpy adds these in doubles, n + 1 included
    x1 = y + 1.0
    f1 = m + 1.0
    z = float(n) + 1.0 - m
    w = float(n) - y + 1.0
    x2 = x1 * x1
    f2 = f1 * f1
    z2 = z * z
    w2 = w * w
    return None if big_a > (
        xm * log(f1 / x1)
        + (n - m + 0.5) * log(z / w)
        + (y - m) * log(w * r / (x1 * q))
        + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / f2) / f2) / f2) / f2) / f1 / 166320.0
        + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / z2) / z2) / z2) / z2) / z / 166320.0
        + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x1 / 166320.0
        + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / w2) / w2) / w2) / w2) / w / 166320.0
    ) else y


class _Sampler:
    """A PCG64 generator whose ``binomial`` is numpy's, draw for draw.

    ``state`` and ``inc`` are the 128-bit PCG64 state and increment, as
    ``np.random.PCG64().state["state"]`` holds them.  ``setups`` maps
    each reflected p and n to the draw's set-up (:func:`_setup`).
    """

    __slots__ = ("state", "inc", "setups")

    def __init__(self, state: int = 0, inc: int = 1):
        self.state = state
        self.inc = inc
        self.setups = defaultdict(dict)

    def binomial(self, n: int, p: float) -> int:
        """numpy's ``random_binomial(n, p)``: reflect p > 0.5, then inversion or BTPE.

        The PCG64 steps run inline on a local state: one LCG step, the
        XSL-RR output (``x * (2**64 + 1)`` is ``x | x << 64``, rotated
        right by the top 6 bits), and its top 53 bits as a double in [0, 1).
        Only BTPE's proposals outside its fast region call :func:`_btpe_tail`.
        """
        if n == 0 or p == 0.0:
            return 0
        flip = p > 0.5
        if flip:
            p = 1.0 - p
        table = self.setups[p]
        setup = table.get(n) or _setup(table, n, p)
        state, inc = self.state, self.inc
        inversion = p * n <= 30.0
        while True:
            state = state * _PCG_MULT + inc & _M128
            xsl = (state >> 64 ^ state) & _M64
            u = (xsl * _ROTATE >> (state >> 122) + 11 & _M53) * 2.0**-53
            if inversion:
                # search up from 0; past the bound, start again with a new u
                q, px, bound = setup
                x = 0
                while u > px and x < bound:
                    x += 1
                    u -= px
                    px = ((n - x + 1) * p * px) / (x * q)
                if u <= px:
                    break
            else:
                p1, xm, p4, tail = setup
                u *= p4
                state = state * _PCG_MULT + inc & _M128
                xsl = (state >> 64 ^ state) & _M64
                v = (xsl * _ROTATE >> (state >> 122) + 11 & _M53) * 2.0**-53
                if u <= p1:
                    x = floor(xm - p1 * v + u)
                    break
                x = _btpe_tail(n, u, v, tail)
                if x is not None:
                    break
        self.state = state
        return n - x if flip else x


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

    ``kernel(rng, chunks)`` returns the run's tallies in the experiment's
    label order.  ``chunks`` yields each chunk's ``(size, (state, inc))``
    in order; the kernel loads the state into the sampler ``rng`` and
    adds up the chunk's draws.
    """
    EXPERIMENTS[name].check(h)
    full, last = divmod(n0, cfg.chunk_size)
    sizes = chain(repeat(cfg.chunk_size, full), [last] if last else [])
    chunks = zip(sizes, _pcg64_states(cfg.seed, 0, cfg.chunk_count(n0)))
    return CountTable(*kernel(_Sampler(), chunks), labels=EXPERIMENTS[name].labels)


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
    n0, epsilon, s = p.n0, p.epsilon, survival_fraction(p.lam, p.t)
    collapse = h is Hypothesis.CCQI

    def kernel(rng, chunks):
        alive = nb1 = nb2 = 0
        for size, (rng.state, rng.inc) in chunks:
            excited = rng.binomial(size, epsilon)
            survivors = rng.binomial(excited, s)
            alive += survivors
            if collapse:
                nb2 += rng.binomial(survivors, 0.5)
                nb1 += rng.binomial(excited - survivors, 0.5)
        return n0 - alive - nb1, alive - nb2, nb1, nb2

    return _run_chunked("excitation", h, n0, cfg, kernel)


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
    n0 = p.n0

    def kernel(rng, chunks):
        na2 = nb1 = 0
        for size, (rng.state, rng.inc) in chunks:
            entered = rng.binomial(size, s1)
            left = rng.binomial(entered, s2)
            na2 += rng.binomial(left, s3)
            if collapse:
                nb1 += rng.binomial(entered - left, 0.5)
        return n0 - na2 - nb1, na2, nb1, 0

    return _run_chunked("decay", h, n0, cfg, kernel)


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
    n0, ud = p.n0, p.u * p.d
    coherent = h is Hypothesis.POS

    def kernel(rng, chunks):
        counter1 = lost = 0
        for size, (rng.state, rng.inc) in chunks:
            if coherent:
                recombined = rng.binomial(size, ud)
                missed = rng.binomial(size - recombined, 0.5)
                counter1 += recombined + rng.binomial(size - recombined - missed, 0.5)
            else:
                device = rng.binomial(size, 0.5)
                missed = device - rng.binomial(device, ud)
                counter1 += rng.binomial(size - missed, 0.5)
            lost += missed
        return counter1, n0 - counter1 - lost, lost

    return _run_chunked("photon", h, n0, cfg, kernel)
