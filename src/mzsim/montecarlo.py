"""Event-level Monte Carlo for the three experiments.

Each particle is simulated with a few uniform draws whose expectations
reproduce the closed-form tables in :mod:`mzsim.predict`, so the
predictors double as the statistical oracle for these samplers.

Events are partitioned into fixed-size chunks and every chunk gets its
own RNG substream derived from ``(seed, chunk index)``.  Chunk tallies
are combined by integer addition, which is order independent, so the
result depends on ``(seed, chunk_size, parameters)`` and never on how
many workers execute the chunks.
"""

from concurrent.futures import ThreadPoolExecutor
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
    "exponential_decay_times",
    "simulate_excitation",
    "simulate_decay",
    "simulate_photon",
]

_MAX_SEED = 2**64


@dataclass(frozen=True)
class SimConfig:
    """Reproducibility contract for a simulation run.

    ``chunk_size`` fixes the substream layout: changing it changes the
    sampled tallies; changing ``workers`` never does.
    """

    seed: int = 0
    chunk_size: int = 65536
    workers: int = 1

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < _MAX_SEED:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.chunk_size < 1:
            raise DomainError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.workers < 1:
            raise DomainError(f"workers must be >= 1, got {self.workers}")


def chunk_rng(seed: int, index: int) -> np.random.Generator:
    """Independent substream for one chunk, a pure function of (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def exponential_decay_times(rng: np.random.Generator, lam: float, size: int) -> np.ndarray:
    """Spontaneous-decay times at rate ``lam``, sampled by inverse transform.

    The empirical survival beyond ``t`` follows ``exp(-lam * t)``.  A
    zero rate yields ``+inf`` everywhere (the atom never decays).
    """
    if not lam >= 0:
        raise DomainError(f"decay rate must be >= 0, got {lam}")
    u = rng.random(size)
    if lam == 0.0:
        return np.full(size, np.inf)
    return -np.log1p(-u) / lam


def _chunk_sizes(n0: int, chunk_size: int) -> list[int]:
    full, rem = divmod(n0, chunk_size)
    sizes = [chunk_size] * full
    if rem:
        sizes.append(rem)
    return sizes


def _run_chunked(n0: int, cfg: SimConfig, kernel, ncat: int) -> np.ndarray:
    """Sum kernel tallies over all chunks; worker count cannot change the result."""
    sizes = _chunk_sizes(n0, cfg.chunk_size)

    def one(item):
        index, size = item
        return kernel(chunk_rng(cfg.seed, index), size)

    total = np.zeros(ncat, dtype=np.int64)
    if cfg.workers == 1 or len(sizes) <= 1:
        for item in enumerate(sizes):
            total += one(item)
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            for tally in pool.map(one, enumerate(sizes)):
                total += tally
    return total


def simulate_excitation(
    p: ExcitationParams, h: Hypothesis, cfg: SimConfig = SimConfig()
) -> CountTable:
    """Sample one run of the cavity-excitation experiment.

    Per atom: one draw decides excitation (probability ``epsilon``), one
    decides whether an excited atom is still excited at the counters
    (probability ``exp(-lam * t)``), and under CCQI one routes the
    collapsed atom to either counter.  Excited survivors land in the
    "2" column of their counter, everything else in the "1" column.
    """
    EXPERIMENTS["excitation"].check(h)
    s = survival_fraction(p.lam, p.t)
    collapse = h is Hypothesis.CCQI

    def kernel(rng, size):
        excited = rng.random(size) < p.epsilon
        alive = excited & (rng.random(size) < s)
        if collapse:
            to_b = excited & (rng.random(size) < 0.5)
        else:
            to_b = np.zeros(size, dtype=bool)
        na2 = np.count_nonzero(alive & ~to_b)
        nb2 = np.count_nonzero(alive & to_b)
        nb1 = np.count_nonzero(to_b & ~alive)
        return np.array([size - na2 - nb1 - nb2, na2, nb1, nb2], dtype=np.int64)

    table = CountTable(*(int(x) for x in _run_chunked(p.n0, cfg, kernel, 4)))
    assert table.total == p.n0
    return table


def simulate_decay(
    p: DecayParams, h: Hypothesis, cfg: SimConfig = SimConfig()
) -> CountTable:
    """Sample one run of the in-flight-decay experiment.

    Decay times come from :func:`exponential_decay_times`; under
    MODIFIED_RATE the three flight segments are sampled one at a time
    (memorylessness of the exponential law) with the in-arm segment at
    rate ``lam_prime``.  Atoms that decay inside the interferometer
    route 50/50 under CCQI; every other atom reaches counter a, and
    excited arrivals land in ``na2``.  ``p.t1`` must already include
    any source-purity offset.
    """
    if p.mu != 1.0:
        raise DomainError(
            "fold the source purity into t1 first (DecayParams.with_purity_folded)"
        )
    modified = h is Hypothesis.MODIFIED_RATE
    if modified and p.lam_prime is None:
        raise DomainError("lam_prime is required under MODIFIED_RATE")
    collapse = h is Hypothesis.CCQI

    def kernel(rng, size):
        if modified:
            pre = exponential_decay_times(rng, p.lam, size) < p.t1
            inside = ~pre & (exponential_decay_times(rng, p.lam_prime, size) < p.t2)
            after = ~pre & ~inside & (exponential_decay_times(rng, p.lam, size) < p.t3)
        else:
            t = exponential_decay_times(rng, p.lam, size)
            pre = t < p.t1
            inside = ~pre & (t < p.t1 + p.t2)
            after = ~pre & ~inside & (t < p.total_time)
        excited = ~(pre | inside | after)
        if collapse:
            nb1 = np.count_nonzero(inside & (rng.random(size) < 0.5))
        else:
            nb1 = 0
        na2 = np.count_nonzero(excited)
        return np.array([size - na2 - nb1, na2, nb1, 0], dtype=np.int64)

    table = CountTable(*(int(x) for x in _run_chunked(p.n0, cfg, kernel, 4)))
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

    if h is Hypothesis.POS:

        def kernel(rng, size):
            recombined = rng.random(size) < ud
            u_cat = rng.random(size)
            rest = ~recombined
            lost = rest & (u_cat < 0.5)
            c1 = recombined | (rest & (u_cat >= 0.5) & (u_cat < 0.75))
            n1 = np.count_nonzero(c1)
            nlost = np.count_nonzero(lost)
            return np.array([n1, size - n1 - nlost, nlost], dtype=np.int64)

    else:

        def kernel(rng, size):
            device = rng.random(size) < 0.5
            survives = ~device | (rng.random(size) < ud)
            to_c1 = survives & (rng.random(size) < 0.5)
            n1 = np.count_nonzero(to_c1)
            n2 = np.count_nonzero(survives & ~to_c1)
            return np.array([n1, n2, size - n1 - n2], dtype=np.int64)

    tally = _run_chunked(p.n0, cfg, kernel, 3)
    table = CountTable(*(int(x) for x in tally), labels=PHOTON_LABELS)
    assert table.total == p.n0
    return table
