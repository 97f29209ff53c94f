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
gives.  The seed's part of that derivation is numpy's own
``SeedSequence(seed).pool``, read once per run; the chunk indices' part
is derived in bulk, a block of indices per numpy pass, and the states
are loaded one after another into a single reused generator, so a
chunk costs a state assignment rather than a ``SeedSequence`` and a
new generator.  Chunk tallies are summed, so the
result is a pure function of ``(seed, chunk_size, parameters)``.
:class:`SimConfig` lives in :mod:`mzsim.core` so that parsing a
configuration never loads numpy; it is re-exported here.
"""

import numpy as np

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
# tests compare the derived states with numpy's own
_M32 = 0xFFFF_FFFF
_MIX_L = 0xCA01F9DD
_MIX_R = -0x4973F715 & _M32  # the mix subtracts; add its negation mod 2**32
# the hash constant steps once per hash: numpy's pool takes steps 0-15 of
# the _HASH_A walk (4 entropy words, 12 cross-mixes), the 4 spawn-word mixes
# steps 16-20, listed here; the 8 state words walk _HASH_B
_HASH_A = [0x43B0D7E5 * pow(0x931E8875, k, 2**32) & _M32 for k in range(16, 21)]
_HASH_B = [0x8B51F9DD * pow(0x58F38DED, k, 2**32) & _M32 for k in range(9)]
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = 2**128 - 1
# chunk indices whose states are derived in one numpy pass; memory is
# O(1) in the chunk count
_STATE_BLOCK = 4096


def _hash(value, xor: int, mult: int):
    """SeedSequence's 32-bit hash, on a uint64 array."""
    value = (value ^ xor) * mult & _M32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's 32-bit mix of two words, on Python ints or uint64 arrays."""
    value = ((_MIX_L * x & _M32) + (_MIX_R * y & _M32)) & _M32
    return value ^ value >> 16


def _pcg64_states(seed: int, start: int, stop: int):
    """Yield the PCG64 ``(state, inc)`` of chunks ``start`` to ``stop - 1``.

    Each equals ``np.random.PCG64(np.random.SeedSequence(entropy=seed,
    spawn_key=(index,))).state``, for ``seed < 2**64`` and
    ``index < 2**32`` (one spawn word).  The seed's part of the pool is
    numpy's ``SeedSequence(seed).pool``, read once; the rest is derived
    :data:`_STATE_BLOCK` indices at a time.
    """
    pool = np.random.SeedSequence(int(seed)).pool.tolist()
    for first in range(start, stop, _STATE_BLOCK):
        yield from _block_states(pool, first, min(first + _STATE_BLOCK, stop))


def _block_states(pool: list[int], start: int, stop: int):
    """The spawn word's four mixes and the eight state words, vectorised over indices."""
    spawn = np.arange(start, stop, dtype=np.uint64)
    mixed = [_mix(p, _hash(spawn, _HASH_A[k], _HASH_A[k + 1]))
             for k, p in enumerate(pool)]
    words = [_hash(mixed[k % 4], _HASH_B[k], _HASH_B[k + 1]) for k in range(8)]
    # PCG64 reads the words as four little-endian uint64s: state hi, lo, inc hi, lo
    halves = [(words[k] | words[k + 1] << 32).tolist() for k in range(0, 8, 2)]
    for s_hi, s_lo, i_hi, i_lo in zip(*halves):
        # pcg64 srandom: two LCG steps from state 0, the seed added between them
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        yield ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128, inc


def _substreams(seed: int, start: int, stop: int):
    """Yield one generator per chunk index in ``range(start, stop)``.

    The same :class:`numpy.random.Generator` is yielded every time, its
    PCG64 state set to that chunk's substream, so each generator is only
    valid until the next one is drawn.
    """
    bitgen = np.random.PCG64()
    rng = np.random.Generator(bitgen)
    state = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    for state["state"], state["inc"] in _pcg64_states(seed, start, stop):
        bitgen.state = full
        yield rng


def chunk_rng(seed: int, index: int) -> np.random.Generator:
    """Independent substream for one chunk, a pure function of (seed, index).

    It is the generator ``np.random.default_rng(np.random.SeedSequence(
    entropy=seed, spawn_key=(index,)))`` would give, derived as the
    simulator derives the substreams of a whole run.
    """
    if not (0 <= seed < 2**64 and 0 <= index < 2**32):
        raise DomainError(
            f"chunk_rng needs 0 <= seed < 2**64 and 0 <= index < 2**32, got {seed}, {index}"
        )
    return next(_substreams(seed, index, index + 1))


def _run_chunked(name: str, n0: int, cfg: SimConfig, kernel) -> CountTable:
    """Experiment ``name``'s count table for a run of ``n0`` particles.

    ``kernel(rng, size)`` tallies one chunk in the experiment's label
    order; the tallies are summed one chunk at a time.
    """
    labels = EXPERIMENTS[name].labels
    total = [0] * len(labels)
    chunks = _substreams(cfg.seed, 0, cfg.chunk_count(n0))
    for index, rng in enumerate(chunks):
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
    EXPERIMENTS["excitation"].check(h)
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

    return _run_chunked("excitation", p.n0, cfg, kernel)


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

    return _run_chunked("decay", p.n0, cfg, kernel)


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
    EXPERIMENTS["photon"].check(h)
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

    return _run_chunked("photon", p.n0, cfg, kernel)
