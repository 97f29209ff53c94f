"""Count-level Monte Carlo for the three experiments.

Every particle follows a short branch tree: excited or not, decayed
before, inside or after the interferometer, routed to which counter.
A run splits all ``n0`` particles along that tree with nested
binomials, one draw per branch, so a run costs at most four draws
whatever its size and the tallies follow the same multinomial law as
sampling each particle on its own (Davis 1993, *Comput. Stat. Data
Anal.* 16:205).  Branch probabilities come from
:func:`~mzsim.core.survival_fraction` and the 50/50 splitters, never
from :mod:`mzsim.predict`, so the predictors stay an independent
statistical oracle for these samplers.

A run draws its branches depth first from one PCG64 state, the one
``np.random.default_rng(seed)`` starts from, so its tallies are a pure
function of ``(seed, parameters)``; ``SimConfig.chunk_size`` is
range-checked and ignored, as the ``workers`` key is.  This module
imports no numpy.  It ports the three numpy algorithms the stream
rests on, on Python ints and floats: the ``SeedSequence`` hashes that
turn the seed into that state, PCG64 (O'Neill 2014, HMC-CS-2014-0905),
and numpy's ``random_binomial``, inversion or BTPE (Kachitvichyanukul
& Schmeiser 1988, *Comm. ACM* 31(2):216).  Every draw is bit for bit
the one ``numpy.random.Generator.binomial`` makes from the same state,
and the stream does not depend on the installed numpy.
:class:`_Sampler` ports numpy's C code routine by routine, so that it
reads line by line against numpy's ``distributions.c``:
:meth:`_Sampler.double` steps PCG64 once, and
:meth:`_Sampler.binomial` reflects p > 0.5 and hands the draw to one
method per algorithm, inversion or BTPE.  numpy's draws take at most
2**63 - 1 trials, so a run of more particles is refused.
:class:`SimConfig` lives in :mod:`mzsim.core` so that parsing a
configuration needs no sampler; it is re-exported here.
"""

from math import exp, floor, log, log1p, sqrt

from .core import (
    ATOM_LABELS,
    EXPERIMENTS,
    PHOTON_LABELS,
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
# tests compare the pool and the run's state with numpy's own
_M32 = 0xFFFF_FFFF
_MIX_L = 0xCA01F9DD
_MIX_R = -0x4973F715 & _M32  # the mix subtracts; add its negation mod 2**32
# the hash constant steps once per hash: the pool takes steps 0-15 of the
# _HASH_A walk (4 entropy words, 12 cross-mixes), the 8 state words walk _HASH_B
_HASH_A = [0x43B0D7E5 * pow(0x931E8875, k, 2**32) & _M32 for k in range(17)]
_HASH_B = [0x8B51F9DD * pow(0x58F38DED, k, 2**32) & _M32 for k in range(9)]
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M53 = 2**53 - 1
_M64 = 2**64 - 1
_M128 = 2**128 - 1
_ROTATE = 2**64 + 1
_INT64 = 2**63


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


def _run_state(seed: int) -> tuple[int, int]:
    """The PCG64 ``(state, inc)`` of ``np.random.default_rng(seed)``, for
    ``0 <= seed < 2**64``: eight words hashed from the seed's pool, then srandom."""
    pool = _seed_pool(seed)
    w = [_hash(pool[k % 4], _HASH_B[k], _HASH_B[k + 1]) for k in range(8)]
    # PCG64 reads the words as four little-endian uint64s: state hi, lo, inc hi, lo
    state = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    inc = (w[5] << 97 | w[4] << 65 | w[7] << 33 | w[6] << 1 | 1) & _M128
    # pcg64 srandom: two LCG steps from state 0, the seed added between them
    return ((inc + state) * _PCG_MULT + inc) & _M128, inc


def _wrap64(x: int) -> int:
    """``x`` as C's int64 arithmetic leaves it: reduced mod 2**64 into [-2**63, 2**63)."""
    return (x + _INT64 & _M64) - _INT64


class _Sampler:
    """A PCG64 generator whose ``binomial`` is numpy's, draw for draw.

    ``state`` and ``inc`` are the 128-bit PCG64 state and increment, as
    ``np.random.PCG64().state["state"]`` holds them.  The methods port
    numpy's ``next_double``, ``random_binomial``,
    ``random_binomial_inversion`` and ``random_binomial_btpe``
    (``numpy/random/src/distributions/distributions.c``) in the C code's
    order, C's int64 wraps included.
    """

    __slots__ = ("state", "inc")

    def __init__(self, state: int = 0, inc: int = 1):
        self.state = state
        self.inc = inc

    def double(self) -> float:
        """One PCG64 step: the LCG step, the XSL-RR output (``x * (2**64 + 1)``
        is ``x | x << 64``, rotated right by the top 6 bits of the state) and
        its top 53 bits as a double in [0, 1)."""
        self.state = state = self.state * _PCG_MULT + self.inc & _M128
        xsl = (state >> 64 ^ state) & _M64
        return (xsl * _ROTATE >> (state >> 122) + 11 & _M53) * 2.0**-53

    def binomial(self, n: int, p: float) -> int:
        """numpy's ``random_binomial(n, p)``: reflect p > 0.5, then inversion or BTPE."""
        if n == 0 or p == 0.0:
            return 0
        if p <= 0.5:
            return self._inversion(n, p) if p * n <= 30.0 else self._btpe(n, p)
        q = 1.0 - p
        return n - (self._inversion(n, q) if q * n <= 30.0 else self._btpe(n, q))

    def _inversion(self, n: int, p: float) -> int:
        """numpy's ``random_binomial_inversion``: search up from 0 for the draw;
        past the bound, start again with a new double."""
        q = 1.0 - p
        qn = exp(n * log1p(-p))
        np_ = n * p
        # C's MIN(n, bound) compares and returns doubles before the cast
        bound = int(min(n, np_ + 10.0 * sqrt(np_ * q + 1)))
        x, px, u = 0, qn, self.double()
        while u > px:
            x += 1
            if x > bound:
                x, px, u = 0, qn, self.double()
            else:
                u -= px
                px = ((n - x + 1) * p * px) / (x * q)
        return x

    def _btpe(self, n: int, p: float) -> int:
        """numpy's ``random_binomial_btpe`` for p <= 0.5, so that its
        ``r = min(p, 1 - p)`` is ``p``: steps 10-60 of Kachitvichyanukul &
        Schmeiser, one proposal ``(u, v)`` per pass of the loop."""
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
        nrq = n * r * q
        while True:
            # step 10: the triangle accepts at once
            u = self.double() * p4
            v = self.double()
            if u <= p1:
                return floor(xm - p1 * v + u)
            if u <= p2:
                # step 20: the parallelograms
                x = xl + (u - p1) / c
                v = v * c + 1.0 - abs(m - x + 0.5) / p1
                if v > 1.0:
                    continue
                y = floor(x)
            elif u <= p3:
                # step 30: the left tail; numpy rejects v == 0, whose log it cannot cast
                if v == 0.0:
                    continue
                y = floor(xl + log(v) / laml)
                if y < 0:
                    continue
                v = v * (u - p2) * laml
            else:
                # step 40: the right tail
                if v == 0.0:
                    continue
                y = floor(xr - log(v) / lamr)
                if y > n:
                    continue
                v = v * (u - p3) * lamr
            k = abs(y - m)
            if not (k > 20 and k < nrq / 2.0 - 1):
                # step 50: f(y) / f(m) by the recurrence; int64 n + 1 wraps at 2**63 - 1
                s = r / q
                a = s * _wrap64(n + 1)
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
            # step 52: squeeze log(v) against bounds on log(f(y) / f(m))
            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
            # int64 -k*k wraps for k above 2**31.5
            t = _wrap64(-k * k) / (2 * nrq)
            # C takes log(v) of v <= 0 as -inf or NaN, and both accept
            if v <= 0.0:
                return y
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
                + (13680. - (462. - (132. - (99. - 140. / f2) / f2) / f2) / f2) / f1 / 166320.
                + (13680. - (462. - (132. - (99. - 140. / z2) / z2) / z2) / z2) / z / 166320.
                + (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x1 / 166320.
                + (13680. - (462. - (132. - (99. - 140. / w2) / w2) / w2) / w2) / w / 166320.
            ):
                continue
            return y


def chunk_rng(seed: int):
    """The numpy generator whose chained ``binomial`` calls are a run's draws.

    It is ``np.random.default_rng(seed)``: a run seeded with ``seed``
    starts from its PCG64 state, and each ``simulate_*`` draws its
    branches from that one state in the order its code lists them.  The
    simulator itself draws from :class:`_Sampler` and needs no numpy;
    this is the numpy handle on a run's stream, kept so that tests and
    callers can check the pure-Python draws against numpy's own, and it
    imports numpy on its call.  The name is kept for API stability.
    """
    if not 0 <= seed < 2**64:
        raise DomainError(f"chunk_rng needs 0 <= seed < 2**64, got {seed}")
    import numpy as np

    return np.random.default_rng(seed)


def _run(name: str, h: Hypothesis, n0: int, cfg: SimConfig) -> _Sampler:
    """The sampler of a run of ``n0`` particles of experiment ``name`` under
    ``h``, at the state of ``cfg.seed``.

    Refuses a hypothesis the experiment lacks, then an ``n0`` above
    2**63 - 1, the most trials numpy's binomial takes.
    """
    EXPERIMENTS[name].check(h)
    if n0 >= _INT64:
        raise DomainError(f"n0 must be at most 2**63 - 1 to be simulated, got {n0}")
    return _Sampler(*_run_state(cfg.seed))


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
    rng = _run("excitation", h, p.n0, cfg)
    excited = rng.binomial(p.n0, p.epsilon)
    alive = rng.binomial(excited, s)
    nb1 = nb2 = 0
    if h is Hypothesis.CCQI:
        nb2 = rng.binomial(alive, 0.5)
        nb1 = rng.binomial(excited - alive, 0.5)
    return CountTable(p.n0 - alive - nb1, alive - nb2, nb1, nb2, labels=ATOM_LABELS)


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
    s1 = survival_fraction(p.lam, p.t1)
    s2 = survival_fraction(p.lam_prime if modified else p.lam, p.t2)
    s3 = survival_fraction(p.lam, p.t3)
    rng = _run("decay", h, p.n0, cfg)
    entered = rng.binomial(p.n0, s1)
    left = rng.binomial(entered, s2)
    na2 = rng.binomial(left, s3)
    nb1 = rng.binomial(entered - left, 0.5) if h is Hypothesis.CCQI else 0
    return CountTable(p.n0 - na2 - nb1, na2, nb1, 0, labels=ATOM_LABELS)


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
    n0 = p.n0
    rng = _run("photon", h, n0, cfg)
    if h is Hypothesis.POS:
        recombined = rng.binomial(n0, p.u * p.d)
        lost = rng.binomial(n0 - recombined, 0.5)
        counter1 = recombined + rng.binomial(n0 - recombined - lost, 0.5)
    else:
        device = rng.binomial(n0, 0.5)
        lost = device - rng.binomial(device, p.u * p.d)
        # the device arm's survivors and the empty arm meet at the exit splitter
        counter1 = rng.binomial(n0 - lost, 0.5)
    return CountTable(counter1, n0 - counter1 - lost, lost, labels=PHOTON_LABELS)
