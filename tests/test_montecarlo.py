import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from mzsim import montecarlo
from mzsim.core import EXPERIMENTS, DecayParams, ExcitationParams, Hypothesis, PhotonParams
from mzsim.errors import DomainError, UnsupportedHypothesisError
from mzsim.montecarlo import (
    SimConfig,
    _run_state,
    _Sampler,
    _seed_pool,
    chunk_rng,
    simulate_decay,
    simulate_excitation,
    simulate_photon,
)
from mzsim.predict import predict_decay, predict_excitation, predict_photon

LN2 = math.log(2.0)
MILLION = 10**6


def assert_within_5_sigma(table, predicted, n0):
    """Each category within 5 binomial sigma of its expectation; exact where sigma is 0."""
    for tally, expected in zip(table.values(), predicted.values()):
        p = expected / n0
        sigma = math.sqrt(n0 * p * (1.0 - p))
        if sigma == 0.0:
            assert tally == expected
        else:
            assert abs(tally - expected) <= 5.0 * sigma


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert (cfg.seed, cfg.chunk_size) == (0, 65536)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(seed=-1), dict(seed=2**64), dict(chunk_size=0), dict(chunk_size=2**63),
            dict(chunk_size=2.5), dict(chunk_size="7"), dict(seed=True), dict(chunk_size=True),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        (field,) = kwargs
        with pytest.raises(DomainError, match=field):
            SimConfig(**kwargs)

    def test_numpy_integers_become_ints(self):
        cfg = SimConfig(seed=np.uint64(7), chunk_size=np.uint64(5))
        assert cfg == SimConfig(seed=7, chunk_size=5)

    def test_chunk_rng_is_a_pure_function(self):
        a = chunk_rng(42).random(8)
        b = chunk_rng(42).random(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, chunk_rng(43).random(8))


class TestExcitationSim:
    def test_no_excitation_is_deterministic(self):
        p = ExcitationParams(n0=1000, epsilon=0.0, lam=1.0, t=1.0)
        for h in (Hypothesis.POS, Hypothesis.CCQI):
            assert simulate_excitation(p, h, SimConfig(seed=5)).values() == (1000, 0, 0, 0)

    @pytest.mark.parametrize("h", [Hypothesis.POS, Hypothesis.CCQI])
    def test_concentrates_on_prediction(self, h):
        p = ExcitationParams(n0=MILLION, epsilon=0.2, lam=1.0, t=LN2)
        table = simulate_excitation(p, h, SimConfig(seed=31))
        assert_within_5_sigma(table, predict_excitation(p, h), p.n0)

    def test_counter_b_fraction_is_half_epsilon(self):
        p = ExcitationParams(n0=MILLION, epsilon=0.2, lam=1.0, t=LN2)
        table = simulate_excitation(p, Hypothesis.CCQI, SimConfig(seed=32))
        frac = (table.nb1 + table.nb2) / p.n0
        assert abs(frac - 0.1) <= 5.0 * math.sqrt(0.1 * 0.9 / MILLION)

    def test_rejects_modified_rate(self):
        p = ExcitationParams(n0=10, epsilon=0.5, lam=1.0, t=1.0)
        with pytest.raises(UnsupportedHypothesisError):
            simulate_excitation(p, Hypothesis.MODIFIED_RATE)


class TestDecaySim:
    def test_zero_transit_time(self):
        p = DecayParams(n0=500, lam=1.0, t1=0.0, t2=0.0, t3=0.0, lam_prime=0.5)
        for h in Hypothesis:
            assert simulate_decay(p, h, SimConfig(seed=6)).values() == (0, 500, 0, 0)

    def test_zero_rate_never_decays(self):
        p = DecayParams(n0=500, lam=0.0, t1=1.0, t2=1.0, t3=1.0, lam_prime=0.0)
        for h in Hypothesis:
            assert simulate_decay(p, h, SimConfig(seed=8)).values() == (0, 500, 0, 0)

    @pytest.mark.parametrize("h", list(Hypothesis))
    def test_concentrates_on_prediction(self, h):
        p = DecayParams(n0=MILLION, lam=1.0, t1=LN2, t2=LN2, t3=LN2, lam_prime=2.0)
        table = simulate_decay(p, h, SimConfig(seed=33))
        assert_within_5_sigma(table, predict_decay(p, h), p.n0)

    def test_modified_rate_with_equal_rates_matches_pos_table(self):
        p = DecayParams(n0=MILLION, lam=0.8, t1=0.3, t2=0.9, t3=0.2, lam_prime=0.8)
        table = simulate_decay(p, Hypothesis.MODIFIED_RATE, SimConfig(seed=34))
        assert_within_5_sigma(table, predict_decay(p, Hypothesis.POS), p.n0)

    @pytest.mark.parametrize("h", list(Hypothesis))
    def test_folds_source_purity_itself(self, h):
        p = DecayParams(n0=10_000, lam=1.0, t1=0.1, t2=0.2, t3=0.3, lam_prime=0.4, mu=0.5)
        cfg = SimConfig(seed=35, chunk_size=4096)
        assert simulate_decay(p, h, cfg) == simulate_decay(p.with_purity_folded(), h, cfg)

    def test_modified_rate_requires_lam_prime(self):
        p = DecayParams(n0=100, lam=1.0, t1=0.1, t2=0.2, t3=0.3)
        with pytest.raises(DomainError):
            simulate_decay(p, Hypothesis.MODIFIED_RATE)


class TestPhotonSim:
    def test_perfect_recombination_under_pos(self):
        p = PhotonParams(n0=1000, d=1.0, u=1.0)
        assert simulate_photon(p, Hypothesis.POS, SimConfig(seed=7)).values() == (1000, 0, 0)

    @pytest.mark.parametrize(
        "h,counter1_frac",
        [(Hypothesis.POS, 0.4375), (Hypothesis.CCQI, 0.3125)],
    )
    def test_counter1_fraction(self, h, counter1_frac):
        p = PhotonParams(n0=16 * 10**5, d=0.5, u=0.5)
        table = simulate_photon(p, h, SimConfig(seed=35))
        sigma = math.sqrt(counter1_frac * (1 - counter1_frac) / p.n0)
        assert abs(table.counter1 / p.n0 - counter1_frac) <= 5.0 * sigma
        assert_within_5_sigma(table, predict_photon(p, h), p.n0)

    def test_rejects_modified_rate(self):
        with pytest.raises(UnsupportedHypothesisError):
            simulate_photon(PhotonParams(n0=10, d=0.5, u=0.5), Hypothesis.MODIFIED_RATE)


@pytest.mark.parametrize(
    "simulate,params",
    [(simulate_excitation, ExcitationParams(n0=10, epsilon=0.5, lam=1.0, t=1.0)),
     (simulate_decay, DecayParams(n0=1000, lam=1.0, t1=0.1, t2=0.5, t3=0.1)),
     (simulate_photon, PhotonParams(n0=10, d=0.5, u=0.5))],
)
def test_every_sampler_refuses_an_unknown_hypothesis(simulate, params):
    # a hypothesis name, not a Hypothesis, as the predictors refuse it too
    with pytest.raises(UnsupportedHypothesisError, match="not ccqi"):
        simulate(params, "ccqi")


class TestReproducibility:
    def test_identical_configs_give_identical_tallies(self):
        p = ExcitationParams(n0=100_000, epsilon=0.3, lam=0.5, t=0.8)
        cfg = SimConfig(seed=77, chunk_size=4096)
        a = simulate_excitation(p, Hypothesis.CCQI, cfg)
        b = simulate_excitation(p, Hypothesis.CCQI, cfg)
        assert a.values() == b.values()

    def test_seed_changes_tallies(self):
        p = PhotonParams(n0=100_000, d=0.5, u=0.5)
        a = simulate_photon(p, Hypothesis.CCQI, SimConfig(seed=1))
        b = simulate_photon(p, Hypothesis.CCQI, SimConfig(seed=2))
        assert a.values() != b.values()

    def test_tallies_are_ints_that_sum_to_n0(self):
        p = ExcitationParams(n0=100_001, epsilon=0.4, lam=0.3, t=0.5)
        table = simulate_excitation(p, Hypothesis.CCQI, SimConfig(seed=9, chunk_size=65536))
        assert table.total == p.n0
        assert all(isinstance(v, int) for v in table.values())

    @pytest.mark.parametrize(
        "simulate, params, h",
        [
            (simulate_excitation, ExcitationParams(n0=1, epsilon=0.2, lam=1.0, t=LN2),
             Hypothesis.CCQI),
            (simulate_decay, DecayParams(n0=1, lam=1.0, t1=0.1, t2=0.5, t3=0.1, lam_prime=2.0),
             Hypothesis.MODIFIED_RATE),
            (simulate_photon, PhotonParams(n0=1, d=0.5, u=0.5), Hypothesis.POS),
        ],
    )
    def test_n0_up_to_the_int64_bound(self, simulate, params, h):
        # numpy's binomial takes at most 2**63 - 1 trials; one more is refused
        table = simulate(params.replace(n0=2**63 - 1), h, SimConfig(seed=2**64 - 1))
        assert table.total == 2**63 - 1
        with pytest.raises(DomainError, match=r"^n0 must be at most 2\*\*63 - 1"):
            simulate(params.replace(n0=2**63), h)


def _numpy_generator(state: int, inc: int) -> np.random.Generator:
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bitgen)


def _steered(u: float, v: float) -> tuple[int, int, int]:
    """A PCG64 ``(state, inc)`` whose next two doubles are ``u`` and ``v``, each
    rounded down to a multiple of 2**-53, and the state those two steps reach.

    Both steps land on states whose high word is ``hi``, whose top 6 bits
    are 0, so XSL-RR does not rotate and a double is the top 53 bits of
    ``hi ^ lo``.  The increment is what takes the first state to the
    second; bit 0 of the second, which no double reads, makes it odd.
    """
    hi = 0x0123_4567_89AB_CDEF
    first, second = (hi << 64 | hi ^ int(x * 2**53) << 11 for x in (u, v))
    second ^= 1
    mult = montecarlo._PCG_MULT
    inc = (second - first * mult) % 2**128
    return (first - inc) * pow(mult, -1, 2**128) % 2**128, inc, second


_INT64_MAX = 2**63 - 1
_UNIT = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def _near_30(draw):
    """n * p a few ulps either side of 30, where inversion hands over to BTPE."""
    n = draw(st.integers(31, _INT64_MAX))
    p = 30.0 / n
    toward = 1.0 if draw(st.booleans()) else 0.0
    for _ in range(draw(st.integers(0, 4))):
        p = math.nextafter(p, toward)
    return n, (1.0 - p if draw(st.booleans()) else p)


@st.composite
def _tiny_p(draw):
    """p of order 1/n at huge n: inversion's q**n = exp(n * log1p(-p)) and small-nrq BTPE."""
    n = draw(st.sampled_from([_INT64_MAX]) | st.integers(2**60, _INT64_MAX))
    p = draw(st.floats(min_value=0.0, max_value=200.0)) / n
    return n, (1.0 - p if draw(st.booleans()) else p)


_BINOMIAL_STRATA = {
    "any": st.tuples(st.integers(0, _INT64_MAX), _UNIT),
    "moderate": st.tuples(st.integers(0, 10**6), _UNIT),
    "near_30": _near_30(),
    "edges": st.tuples(st.sampled_from([0, 1, 30, 4096, _INT64_MAX]) | st.integers(0, 10**4),
                       st.sampled_from([0.0, 1.0, 0.5])),
    "tiny_p": _tiny_p(),
    "huge_n": st.tuples(st.integers(2**54, _INT64_MAX), _UNIT),
    # BTPE's -k*k overflows int64 once k exceeds 2**31.5, 2 sigma at n = 2**63 and
    # p = 1/2, which every tail proposal beyond p1 = 2.195 sigma passes
    "k_squared_wraps": st.tuples(st.integers(0, 2**61).map(lambda d: _INT64_MAX - d),
                                 st.floats(min_value=0.3, max_value=0.7)),
    # s * (n + 1) with n + 1 wrapping to -2**63; BTPE's product loop needs a small nrq
    "n_plus_1_wraps": st.tuples(st.just(_INT64_MAX),
                                st.floats(min_value=30.0, max_value=120.0).map(
                                    lambda c: c / _INT64_MAX)),
}


# BTPE's first proposal steered into each branch of its steps 20-52: n, p, the
# two doubles (u before BTPE scales it by p4, then v), and whether the proposal
# is accepted.  At n = 70, p = 0.45 (nrq = 17.3) every y is evaluated
# explicitly; at n = 1000, p = 0.4 (nrq = 240) the squeeze takes 20 < |y - m| < 119
_BTPE_BRANCHES = {
    "triangle": (70, 0.45, 0.0, 0.0, True),
    "parallelogram rejects": (70, 0.45, 0.47, 1 - 2**-53, False),
    "left tail at v == 0": (70, 0.45, 0.815, 0.0, False),
    "left tail below 0": (70, 0.45, 0.815, 2**-53, False),
    "right tail at v == 0": (70, 0.45, 0.9, 0.0, False),
    "right tail above n": (70, 0.45, 0.9, 2**-53, False),
    "explicit m < y accepts": (70, 0.45, 0.615, 0.0, True),
    "explicit m < y rejects": (70, 0.45, 0.65, 0.4, False),
    "explicit m > y accepts": (70, 0.45, 0.38, 0.0, True),
    "explicit m > y rejects": (70, 0.45, 0.38, 0.6, False),
    "squeeze accepts early": (1000, 0.4, 0.69, 0.0, True),
    "squeeze rejects early": (1000, 0.4, 0.69, 0.9, False),
    "squeeze bound accepts": (1000, 0.4, 0.69, 0.5, True),
    "squeeze bound rejects": (1000, 0.4, 0.69, 0.6, False),
    # u == p2 exactly, found by a search, puts x at xr, where the parallelogram's
    # v comes out 0 and the squeeze meets log(0)
    "squeeze at v == 0": (141091, 0.2846019374111061, 8620578954757050 * 2**-53, 0.0, True),
}


class TestSampler:
    """The pure-Python sampler reproduces numpy's seed pool and binomial stream."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1])
    def test_seed_pool_is_numpy_s(self, seed):
        # one 32-bit entropy word below 2**32, two from there on
        assert _seed_pool(seed) == np.random.SeedSequence(seed).pool.tolist()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1))
    def test_seed_pool_property(self, seed):
        assert _seed_pool(seed) == np.random.SeedSequence(seed).pool.tolist()

    @pytest.mark.parametrize("stratum", list(_BINOMIAL_STRATA))
    def test_binomial_is_numpy_s(self, stratum):
        @settings(max_examples=300, deadline=None)
        @given(case=_BINOMIAL_STRATA[stratum], state=st.integers(0, 2**128 - 1),
               inc=st.integers(0, 2**127 - 1))
        def check(case, state, inc):
            n, p = case
            inc = inc << 1 | 1
            ours, ref = _Sampler(state, inc), _numpy_generator(state, inc)
            # four draws in a row on one state
            draws = [(ours.binomial(n, p), ref.binomial(n, p)) for _ in range(4)]
            assert all(a == b for a, b in draws), (n, p, draws)
            assert ours.state == ref.bit_generator.state["state"]["state"]

        check()

    @settings(max_examples=300, deadline=None)
    @given(first=st.integers(0, 10**7),
           steps=st.lists(st.tuples(st.none() | st.integers(0, 10**7),
                                    st.floats(min_value=15.0, max_value=60.0), st.booleans()),
                          min_size=3, max_size=6),
           state=st.integers(0, 2**128 - 1), inc=st.integers(0, 2**127 - 1))
    def test_chained_binomials_are_numpy_s(self, first, steps, state, inc):
        # as a kernel draws: each n the last draw or a fresh one, n * p near 30 so
        # that the draws switch between BTPE and inversion, p either side of 0.5
        inc = inc << 1 | 1
        ours, ref = _Sampler(state, inc), _numpy_generator(state, inc)
        last = first
        for fresh, mean, reflect in steps:
            n = last if fresh is None else fresh
            p = min(1.0, mean / n) if n else 0.5
            p = 1.0 - p if reflect else p
            last = ours.binomial(n, p)
            assert last == ref.binomial(n, p), (n, p)
        assert ours.state == ref.bit_generator.state["state"]["state"]

    @pytest.mark.parametrize("n, p", [(1, 0.46), (2, 0.22), (5, 0.78), (12, 0.9), (60, 0.22)])
    def test_inversion_past_its_bound_draws_again(self, n, p):
        # a first double of 1 - 2**-53 lies above the pmf as inversion sums it, so
        # the search passes its bound and starts again with the second double
        state, inc, after = _steered(1 - 2**-53, 0.5)
        ours, ref = _Sampler(state, inc), _numpy_generator(state, inc)
        assert ours.binomial(n, p) == ref.binomial(n, p)
        assert ours.state == ref.bit_generator.state["state"]["state"]
        assert ours.state == after

    # BTPE's squeeze adds n + 1 - m and n - y + 1 in doubles, which an int64
    # sum rounds differently above 2**53: draws found by a random search
    @pytest.mark.parametrize(
        "n, p, state, inc",
        [
            (2083998951854759902, 5.879001057170876e-17,
             31320925525299500909320479113710429093, 275037770604168528908420806219055152703),
            (1672733925935940557, 4.744917094915894e-17,
             316696621388555081066406161709531336377, 211266363313077231038058851494491403391),
        ],
    )
    def test_binomial_squeeze_rounds_as_numpy(self, n, p, state, inc):
        assert _Sampler(state, inc).binomial(n, p) == _numpy_generator(state, inc).binomial(n, p)

    @pytest.mark.parametrize(
        "u, v", [(0.0, 0.0), (2**-53, 1 - 2**-53), (0.5, 0.25), (1 - 2**-53, 2**-53)]
    )
    def test_steered_state_draws_the_chosen_doubles(self, u, v):
        state, inc, after = _steered(u, v)
        ours, ref = _Sampler(state, inc), _numpy_generator(state, inc)
        assert (ours.double(), ours.double()) == (u, v) == tuple(ref.random(2))
        assert ours.state == after

    @pytest.mark.parametrize("n, p, u, v, accepted", list(_BTPE_BRANCHES.values()),
                             ids=list(_BTPE_BRANCHES))
    def test_btpe_branch_is_numpy_s(self, n, p, u, v, accepted):
        state, inc, after = _steered(u, v)
        ours, ref = _Sampler(state, inc), _numpy_generator(state, inc)
        assert ours.binomial(n, p) == ref.binomial(n, p)
        assert ours.state == ref.bit_generator.state["state"]["state"]
        # an accepted proposal is the draw; a rejected one draws again
        assert (ours.state == after) is accepted


_SIMULATE = {"excitation": simulate_excitation, "decay": simulate_decay,
             "photon": simulate_photon}
_PAIRS = [(name, h) for name, e in EXPERIMENTS.items() for h in e.hypotheses]
_N0S = st.integers(1, _INT64_MAX) | st.integers(1, 10**6)
_NONNEGATIVE = st.floats(min_value=0.0, max_value=5.0)
_PARAMS = {
    "excitation": st.builds(ExcitationParams, n0=_N0S, epsilon=_UNIT, lam=_NONNEGATIVE,
                            t=_NONNEGATIVE),
    # lam > 0, so that a purity below 1 folds into a finite t1
    "decay": st.builds(DecayParams, n0=_N0S, lam=st.floats(min_value=0.01, max_value=5.0),
                       t1=_NONNEGATIVE, t2=_NONNEGATIVE, t3=_NONNEGATIVE,
                       lam_prime=_NONNEGATIVE,
                       mu=st.just(1.0) | st.floats(min_value=0.05, max_value=1.0)),
    "photon": st.builds(PhotonParams, n0=_N0S, d=_UNIT, u=_UNIT),
}


def _numpy_chain(name, params, h, seed):
    """A run's tallies drawn by numpy: each experiment's branch chain, depth
    first, on one ``np.random.default_rng(seed)``."""
    draw = np.random.default_rng(seed).binomial
    n0 = params.n0
    if name == "excitation":
        excited = draw(n0, params.epsilon)
        alive = draw(excited, math.exp(-params.lam * params.t))
        nb2 = draw(alive, 0.5) if h is Hypothesis.CCQI else 0
        nb1 = draw(excited - alive, 0.5) if h is Hypothesis.CCQI else 0
        counts = (n0 - alive - nb1, alive - nb2, nb1, nb2)
    elif name == "decay":
        p = params.with_purity_folded()
        in_arm = p.lam_prime if h is Hypothesis.MODIFIED_RATE else p.lam
        entered = draw(n0, math.exp(-p.lam * p.t1))
        left = draw(entered, math.exp(-in_arm * p.t2))
        na2 = draw(left, math.exp(-p.lam * p.t3))
        nb1 = draw(entered - left, 0.5) if h is Hypothesis.CCQI else 0
        counts = (n0 - na2 - nb1, na2, nb1, 0)
    elif h is Hypothesis.POS:
        recombined = draw(n0, params.u * params.d)
        lost = draw(n0 - recombined, 0.5)
        counter1 = recombined + draw(n0 - recombined - lost, 0.5)
        counts = (counter1, n0 - counter1 - lost, lost)
    else:
        device = draw(n0, 0.5)
        lost = device - draw(device, params.u * params.d)
        # photon CCQI's merge node: both arms' survivors meet the exit splitter
        counter1 = draw(n0 - lost, 0.5)
        counts = (counter1, n0 - counter1 - lost, lost)
    return tuple(map(int, counts))


class TestRunStream:
    """A run draws its branches, depth first, from ``np.random.default_rng(seed)``'s state."""

    @pytest.mark.parametrize("seed", [0, 1, 3, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1])
    def test_run_state_is_default_rng_s(self, seed):
        state = np.random.default_rng(seed).bit_generator.state["state"]
        assert _run_state(seed) == (state["state"], state["inc"])

    def test_chunk_rng_is_default_rng(self):
        for seed in (0, 2**64 - 1, np.uint64(5)):
            ours = chunk_rng(seed).binomial(1000, 0.3, size=16)
            assert np.array_equal(ours, np.random.default_rng(seed).binomial(1000, 0.3, size=16))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_chunk_rng_rejects_out_of_range(self, seed):
        with pytest.raises(DomainError, match="seed"):
            chunk_rng(seed)

    def test_run_of_no_particles(self):
        p = PhotonParams(n0=0, d=0.5, u=0.5)
        assert simulate_photon(p, Hypothesis.CCQI, SimConfig(seed=3)).values() == (0, 0, 0)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("name, h", _PAIRS, ids=lambda x: getattr(x, "name", x))
    def test_tallies_are_the_numpy_chain(self, name, h, seed):
        @settings(max_examples=60, deadline=None)
        @given(params=_PARAMS[name], chunk_size=st.integers(1, _INT64_MAX))
        def check(params, chunk_size):
            table = _SIMULATE[name](params, h, SimConfig(seed=seed, chunk_size=chunk_size))
            assert table.values() == _numpy_chain(name, params, h, seed)

        check()


_N0 = 10**6 + 7
_GOLDEN_PARAMS = {
    "excitation": (simulate_excitation, ExcitationParams(n0=_N0, epsilon=0.2, lam=1.0, t=LN2)),
    "decay": (
        simulate_decay,
        DecayParams(n0=_N0, lam=1.0, t1=0.1, t2=0.5, t3=0.1, lam_prime=2.0),
    ),
    "photon": (simulate_photon, PhotonParams(n0=_N0, d=0.5, u=0.8)),
}
# tallies of the count-level sampler on the state of default_rng(seed); the chunk
# size is ignored, so both chunk sizes pin the same tallies
_GOLDEN = {
    ("excitation", "POS", 4096, 0): (899737, 100270, 0, 0),
    ("excitation", "POS", 4096, 2**64 - 1): (900414, 99593, 0, 0),
    ("excitation", "POS", 65536, 0): (899737, 100270, 0, 0),
    ("excitation", "POS", 65536, 2**64 - 1): (900414, 99593, 0, 0),
    ("excitation", "CCQI", 4096, 0): (849694, 50109, 50043, 50161),
    ("excitation", "CCQI", 4096, 2**64 - 1): (849979, 49847, 50435, 49746),
    ("excitation", "CCQI", 65536, 0): (849694, 50109, 50043, 50161),
    ("excitation", "CCQI", 65536, 2**64 - 1): (849979, 49847, 50435, 49746),
    ("decay", "POS", 4096, 0): (503689, 496318, 0, 0),
    ("decay", "POS", 4096, 2**64 - 1): (502553, 497454, 0, 0),
    ("decay", "POS", 65536, 0): (503689, 496318, 0, 0),
    ("decay", "POS", 65536, 2**64 - 1): (502553, 497454, 0, 0),
    ("decay", "CCQI", 4096, 0): (325868, 496318, 177821, 0),
    ("decay", "CCQI", 4096, 2**64 - 1): (324606, 497454, 177947, 0),
    ("decay", "CCQI", 65536, 0): (325868, 496318, 177821, 0),
    ("decay", "CCQI", 65536, 2**64 - 1): (324606, 497454, 177947, 0),
    ("decay", "MODIFIED_RATE", 4096, 0): (698926, 301081, 0, 0),
    ("decay", "MODIFIED_RATE", 4096, 2**64 - 1): (699572, 300435, 0, 0),
    ("decay", "MODIFIED_RATE", 65536, 0): (698926, 301081, 0, 0),
    ("decay", "MODIFIED_RATE", 65536, 2**64 - 1): (699572, 300435, 0, 0),
    ("photon", "POS", 4096, 0): (550493, 149787, 299727),
    ("photon", "POS", 4096, 2**64 - 1): (550334, 150450, 299223),
    ("photon", "POS", 65536, 0): (550493, 149787, 299727),
    ("photon", "POS", 65536, 2**64 - 1): (550334, 150450, 299223),
    ("photon", "CCQI", 4096, 0): (349897, 349760, 300350),
    ("photon", "CCQI", 4096, 2**64 - 1): (349514, 349785, 300708),
    ("photon", "CCQI", 65536, 0): (349897, 349760, 300350),
    ("photon", "CCQI", 65536, 2**64 - 1): (349514, 349785, 300708),
}


@pytest.mark.parametrize("key", list(_GOLDEN), ids=lambda k: "-".join(map(str, k[:3])) + f"-{k[3]:x}")
def test_golden_stream(key):
    """The sample stream is pinned: same (seed, parameters), same tallies."""
    name, hypothesis, chunk_size, seed = key
    simulate, params = _GOLDEN_PARAMS[name]
    cfg = SimConfig(seed=seed, chunk_size=chunk_size)
    assert simulate(params, Hypothesis[hypothesis], cfg).values() == _GOLDEN[key]


# larger and smaller runs at the chunk sizes that once split them into several
# PCG64 state blocks (733 chunks of 4096, 3001 of 100); the chunk size is now
# ignored, so these pin the one-tree stream at those n0
_BLOCK_RUNS = {4096: 3 * 10**6 + 7, 100: 3 * 10**5 + 7}
_GOLDEN_BLOCKS = {
    ("excitation", "POS", 4096, 0): (2699539, 300468, 0, 0),
    ("excitation", "POS", 4096, 2**64 - 1): (2700715, 299292, 0, 0),
    ("excitation", "POS", 100, 0): (269859, 30148, 0, 0),
    ("excitation", "POS", 100, 2**64 - 1): (270229, 29778, 0, 0),
    ("excitation", "CCQI", 4096, 0): (2549466, 150190, 150073, 150278),
    ("excitation", "CCQI", 4096, 2**64 - 1): (2549960, 149735, 150755, 149557),
    ("excitation", "CCQI", 100, 0): (254835, 15060, 15024, 15088),
    ("excitation", "CCQI", 100, 2**64 - 1): (254991, 14917, 15238, 14861),
    ("decay", "POS", 4096, 0): (1510719, 1489288, 0, 0),
    ("decay", "POS", 4096, 2**64 - 1): (1508747, 1491260, 0, 0),
    ("decay", "POS", 100, 0): (151176, 148831, 0, 0),
    ("decay", "POS", 100, 2**64 - 1): (150556, 149451, 0, 0),
    ("decay", "CCQI", 4096, 0): (977015, 1489288, 533704, 0),
    ("decay", "CCQI", 4096, 2**64 - 1): (974823, 1491260, 533924, 0),
    ("decay", "CCQI", 100, 0): (97876, 148831, 53300, 0),
    ("decay", "CCQI", 100, 2**64 - 1): (97187, 149451, 53369, 0),
    ("decay", "MODIFIED_RATE", 4096, 0): (2096621, 903386, 0, 0),
    ("decay", "MODIFIED_RATE", 4096, 2**64 - 1): (2097743, 902264, 0, 0),
    ("decay", "MODIFIED_RATE", 100, 0): (209710, 90297, 0, 0),
    ("decay", "MODIFIED_RATE", 100, 2**64 - 1): (210063, 89944, 0, 0),
    ("photon", "POS", 4096, 0): (1650853, 449630, 899524),
    ("photon", "POS", 4096, 2**64 - 1): (1650577, 450780, 898650),
    ("photon", "POS", 100, 0): (165272, 44884, 89851),
    ("photon", "POS", 100, 2**64 - 1): (165185, 45246, 89576),
    ("photon", "CCQI", 4096, 0): (1049818, 1049583, 900606),
    ("photon", "CCQI", 4096, 2**64 - 1): (1049155, 1049624, 901228),
    ("photon", "CCQI", 100, 0): (104945, 104870, 90192),
    ("photon", "CCQI", 100, 2**64 - 1): (104736, 104883, 90388),
}


@pytest.mark.parametrize("key", list(_GOLDEN_BLOCKS),
                         ids=lambda k: "-".join(map(str, k[:3])) + f"-{k[3]:x}")
def test_golden_stream_across_state_blocks(key):
    """Runs that once spanned several state blocks keep their one-tree tallies."""
    name, hypothesis, chunk_size, seed = key
    simulate, params = _GOLDEN_PARAMS[name]
    params = params.replace(n0=_BLOCK_RUNS[chunk_size])
    cfg = SimConfig(seed=seed, chunk_size=chunk_size)
    assert simulate(params, Hypothesis[hypothesis], cfg).values() == _GOLDEN_BLOCKS[key]


# the runs that once sat at the chunk loop's edges: 1024 full chunks of 100, one
# partial chunk of 3000 below 4096, and 600 chunks of one event; each is now one
# tree whatever its chunk size
_EDGE_RUNS = {100: 1024 * 100, 4096: 3000, 1: 600}
_GOLDEN_EDGES = {
    ("excitation", "POS", 100, 0): (92074, 10326, 0, 0),
    ("excitation", "POS", 100, 2**64 - 1): (92289, 10111, 0, 0),
    ("excitation", "POS", 4096, 0): (2685, 315, 0, 0),
    ("excitation", "POS", 4096, 2**64 - 1): (2719, 281, 0, 0),
    ("excitation", "POS", 1, 0): (544, 56, 0, 0),
    ("excitation", "POS", 1, 2**64 - 1): (547, 53, 0, 0),
    ("excitation", "CCQI", 100, 0): (86940, 5154, 5134, 5172),
    ("excitation", "CCQI", 100, 2**64 - 1): (87030, 5071, 5259, 5040),
    ("excitation", "CCQI", 4096, 0): (2529, 152, 156, 163),
    ("excitation", "CCQI", 4096, 2**64 - 1): (2543, 142, 176, 139),
    ("excitation", "CCQI", 1, 0): (512, 25, 32, 31),
    ("excitation", "CCQI", 1, 2**64 - 1): (524, 26, 23, 27),
    ("decay", "POS", 100, 0): (51636, 50764, 0, 0),
    ("decay", "POS", 100, 2**64 - 1): (51274, 51126, 0, 0),
    ("decay", "POS", 4096, 0): (1523, 1477, 0, 0),
    ("decay", "POS", 4096, 2**64 - 1): (1505, 1495, 0, 0),
    ("decay", "POS", 1, 0): (312, 288, 0, 0),
    ("decay", "POS", 1, 2**64 - 1): (303, 297, 0, 0),
    ("decay", "CCQI", 100, 0): (33468, 50764, 18168, 0),
    ("decay", "CCQI", 100, 2**64 - 1): (33067, 51126, 18207, 0),
    ("decay", "CCQI", 4096, 0): (994, 1477, 529, 0),
    ("decay", "CCQI", 4096, 2**64 - 1): (945, 1495, 560, 0),
    ("decay", "CCQI", 1, 0): (202, 288, 110, 0),
    ("decay", "CCQI", 1, 2**64 - 1): (199, 297, 104, 0),
    ("decay", "MODIFIED_RATE", 100, 0): (71595, 30805, 0, 0),
    ("decay", "MODIFIED_RATE", 100, 2**64 - 1): (71800, 30600, 0, 0),
    ("decay", "MODIFIED_RATE", 4096, 0): (2111, 889, 0, 0),
    ("decay", "MODIFIED_RATE", 4096, 2**64 - 1): (2081, 919, 0, 0),
    ("decay", "MODIFIED_RATE", 1, 0): (416, 184, 0, 0),
    ("decay", "MODIFIED_RATE", 1, 2**64 - 1): (419, 181, 0, 0),
    ("photon", "POS", 100, 0): (56476, 15292, 30632),
    ("photon", "POS", 100, 2**64 - 1): (56425, 15502, 30473),
    ("photon", "POS", 4096, 0): (1679, 436, 885),
    ("photon", "POS", 4096, 2**64 - 1): (1669, 472, 859),
    ("photon", "POS", 1, 0): (349, 78, 173),
    ("photon", "POS", 1, 2**64 - 1): (306, 105, 189),
    ("photon", "CCQI", 100, 0): (35807, 35762, 30831),
    ("photon", "CCQI", 100, 2**64 - 1): (35685, 35770, 30945),
    ("photon", "CCQI", 4096, 0): (1046, 1036, 918),
    ("photon", "CCQI", 4096, 2**64 - 1): (1025, 1038, 937),
    ("photon", "CCQI", 1, 0): (210, 201, 189),
    ("photon", "CCQI", 1, 2**64 - 1): (231, 201, 168),
}


@pytest.mark.parametrize("key", list(_GOLDEN_EDGES),
                         ids=lambda k: "-".join(map(str, k[:3])) + f"-{k[3]:x}")
def test_golden_stream_at_the_chunk_loop_edges(key):
    """Runs of n0 = 102400, 3000 and 600 keep their one-tree tallies, even with
    a chunk size of one event."""
    name, hypothesis, chunk_size, seed = key
    simulate, params = _GOLDEN_PARAMS[name]
    params = params.replace(n0=_EDGE_RUNS[chunk_size])
    cfg = SimConfig(seed=seed, chunk_size=chunk_size)
    assert simulate(params, Hypothesis[hypothesis], cfg).values() == _GOLDEN_EDGES[key]


JOINT_SEEDS = 3000
_EXC = ExcitationParams(n0=3, epsilon=0.9, lam=1.0, t=2 * LN2)
_DEC = DecayParams(n0=3, lam=1.0, t1=0.1, t2=1.5, t3=0.1, lam_prime=0.5)
_PHO = PhotonParams(n0=3, d=0.5, u=0.8)


class TestJointLaw:
    """The whole table, not just its marginals, follows the multinomial law."""

    @pytest.mark.parametrize(
        "simulate, predict, params, h",
        [
            (simulate_excitation, predict_excitation, _EXC, Hypothesis.POS),
            (simulate_excitation, predict_excitation, _EXC, Hypothesis.CCQI),
            (simulate_decay, predict_decay, _DEC, Hypothesis.POS),
            (simulate_decay, predict_decay, _DEC, Hypothesis.CCQI),
            (simulate_decay, predict_decay, _DEC, Hypothesis.MODIFIED_RATE),
            (simulate_photon, predict_photon, _PHO, Hypothesis.POS),
            (simulate_photon, predict_photon, _PHO, Hypothesis.CCQI),
        ],
        ids=[
            "excitation-pos", "excitation-ccqi", "decay-pos", "decay-ccqi",
            "decay-modified_rate", "photon-pos", "photon-ccqi",
        ],
    )
    def test_tables_follow_the_multinomial_pmf(self, simulate, predict, params, h):
        # chunk_size is ignored: every run draws n0 = 3 from its seed's one state
        n0 = params.n0
        probs = np.array(predict(params, h).values()) / n0
        seen = Counter(
            simulate(params, h, SimConfig(seed=seed, chunk_size=2)).values()
            for seed in range(JOINT_SEEDS)
        )
        support = [x for x in itertools.product(range(n0 + 1), repeat=len(probs)) if sum(x) == n0]
        pmf = {x: scipy_stats.multinomial.pmf(x, n0, probs) for x in support}
        assert all(pmf[x] > 0 for x in seen), "an outcome of probability 0 occurred"
        cells = [x for x in support if pmf[x] > 0]
        observed = [seen[x] for x in cells]
        expected = [JOINT_SEEDS * pmf[x] for x in cells]
        assert scipy_stats.chisquare(observed, expected).pvalue > 1e-3
