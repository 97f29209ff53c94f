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
its own RNG substream derived from ``(seed, chunk index)``.  Chunk
tallies are summed, so the result is a pure function of
``(seed, chunk_size, parameters)``.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    EXPERIMENTS,
    PHOTON_LABELS,
    CountTable,
    DecayParams,
    ExcitationParams,
    Hypothesis,
    PhotonParams,
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

_MAX_SEED = 2**64
# the largest number of trials numpy's binomial sampler accepts
_MAX_CHUNK = 2**63 - 1
# chunks run one after another in Python at ~20 us each, so this many
# take about 20 s; a run needing more must use larger chunks
_MAX_CHUNKS = 2**20


@dataclass(frozen=True)
class SimConfig:
    """Reproducibility contract for a simulation run.

    ``chunk_size`` fixes the substream layout: changing it changes the
    sampled tallies.  A run may span at most 2**20 chunks.
    """

    seed: int = 0
    chunk_size: int = 65536

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < _MAX_SEED:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not 1 <= self.chunk_size <= _MAX_CHUNK:
            raise DomainError(f"chunk_size must be in [1, 2**63 - 1], got {self.chunk_size}")


def chunk_rng(seed: int, index: int) -> np.random.Generator:
    """Independent substream for one chunk, a pure function of (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _run_chunked(n0: int, cfg: SimConfig, kernel, ncat: int) -> list[int]:
    """Sum kernel tallies over the chunks of ``n0`` particles, one chunk at a time."""
    chunks = -(-n0 // cfg.chunk_size)
    if chunks > _MAX_CHUNKS:
        raise DomainError(
            f"n0 = {n0} at chunk_size = {cfg.chunk_size} needs {chunks} chunks, "
            f"more than the limit of 2**20; raise chunk_size to at least "
            f"{-(-n0 // _MAX_CHUNKS)}"
        )
    total = [0] * ncat
    for index in range(chunks):
        size = min(cfg.chunk_size, n0 - index * cfg.chunk_size)
        tally = kernel(chunk_rng(cfg.seed, index), size)
        total = [a + b for a, b in zip(total, tally)]
    return total


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

    table = CountTable(*_run_chunked(p.n0, cfg, kernel, 4))
    assert table.total == p.n0
    return table


def simulate_decay(
    p: DecayParams, h: Hypothesis, cfg: SimConfig = SimConfig()
) -> CountTable:
    """Sample one run of the in-flight-decay experiment.

    An excited atom survives the three flight segments one after the
    other (memorylessness of the exponential law), the in-arm segment
    at rate ``lam_prime`` under MODIFIED_RATE and at ``lam`` otherwise.
    Atoms that decay inside the interferometer route 50/50 under CCQI;
    every other atom reaches counter a, and excited arrivals land in
    ``na2``.  ``p.t1`` must already include any source-purity offset.
    """
    if p.mu != 1.0:
        raise DomainError(
            "fold the source purity into t1 first (DecayParams.with_purity_folded)"
        )
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

    table = CountTable(*_run_chunked(p.n0, cfg, kernel, 4))
    assert table.total == p.n0
    return table


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

    table = CountTable(*_run_chunked(p.n0, cfg, kernel, 3), labels=PHOTON_LABELS)
    assert table.total == p.n0
    return table
