import itertools
import math
import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from mzsim import montecarlo
from mzsim.core import DecayParams, ExcitationParams, Hypothesis, PhotonParams
from mzsim.errors import DomainError, UnsupportedHypothesisError
from mzsim.montecarlo import (
    _STATE_BLOCK,
    SimConfig,
    _pcg64_states,
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
        assert cfg.chunk_count(11) == 3

    def test_chunk_count_is_capped(self):
        cfg = SimConfig(chunk_size=3)
        assert cfg.chunk_count(0) == 0
        assert cfg.chunk_count(3 * 2**20) == 2**20
        with pytest.raises(DomainError, match="chunk_size"):
            cfg.chunk_count(3 * 2**20 + 1)

    def test_chunk_rng_is_a_pure_function(self):
        a = chunk_rng(42, 3).random(8)
        b = chunk_rng(42, 3).random(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, chunk_rng(42, 4).random(8))


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

    def test_conservation_with_remainder_chunk(self):
        p = ExcitationParams(n0=100_001, epsilon=0.4, lam=0.3, t=0.5)
        table = simulate_excitation(p, Hypothesis.CCQI, SimConfig(seed=9, chunk_size=65536))
        assert table.total == p.n0
        assert all(isinstance(v, int) for v in table.values())

    @pytest.mark.parametrize(
        "simulate, params",
        [
            (simulate_excitation, ExcitationParams(n0=2**22 + 1, epsilon=0.2, lam=1.0, t=LN2)),
            (simulate_decay, DecayParams(n0=2**22 + 1, lam=1.0, t1=0.1, t2=0.5, t3=0.1)),
            (simulate_photon, PhotonParams(n0=2**22 + 1, d=0.5, u=0.5)),
        ],
    )
    def test_more_than_2_to_the_20_chunks_are_refused(self, simulate, params):
        # 2**20 + 1 chunks of 4; chunks of 5 would need only 838861
        with pytest.raises(DomainError, match=r"n0.*chunk_size.*at least 5\b"):
            simulate(params, Hypothesis.POS, SimConfig(chunk_size=4))


class TestSubstreams:
    """Chunk states derived in pure Python equal numpy's per-chunk SeedSequence ones."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, np.uint64(12345)]
    # 2**32 - 1 is the widest lane value that chunk_rng accepts
    INDICES = [0, 1, 4095, 4096, 2**20 - 1, 2**32 - 1]

    @staticmethod
    def numpy_state(seed, index):
        state = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,))).state
        return state["state"]["state"], state["state"]["inc"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_seed_sequence(self, seed):
        for index in self.INDICES:
            assert next(_pcg64_states(seed, index, index + 1)) == self.numpy_state(seed, index)
        # a range, in one pass
        start = 4093
        expected = [self.numpy_state(seed, i) for i in range(start, start + 6)]
        assert list(_pcg64_states(seed, start, start + 6)) == expected

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), length=st.integers(_STATE_BLOCK + 1, 3 * _STATE_BLOCK),
           start=st.integers(0, 2**32 - 1))
    @example(seed=2**64 - 1, length=2 * _STATE_BLOCK + 3, start=2**32 - 1)
    def test_ranges_across_blocks_match_seed_sequence(self, seed, length, start):
        # a range of more than one block, starting anywhere, ending at 2**32 at most
        start = min(start, 2**32 - length)
        expected = [self.numpy_state(seed, i) for i in range(start, start + length)]
        assert list(_pcg64_states(seed, start, start + length)) == expected

    def test_chunk_rng_is_the_seed_sequence_generator(self):
        for seed in (0, 2**64 - 1, np.uint64(5)):
            ours = chunk_rng(seed, 7).binomial(1000, 0.3, size=16)
            ref = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
            assert np.array_equal(ours, ref.binomial(1000, 0.3, size=16))

    @pytest.mark.parametrize("seed, index", [(-1, 0), (2**64, 0), (0, -1), (0, 2**32)])
    def test_chunk_rng_rejects_out_of_range(self, seed, index):
        with pytest.raises(DomainError):
            chunk_rng(seed, index)

    def test_run_of_no_chunks(self):
        assert list(_pcg64_states(3, 0, 0)) == []
        p = PhotonParams(n0=0, d=0.5, u=0.5)
        assert simulate_photon(p, Hypothesis.CCQI, SimConfig(seed=3)).values() == (0, 0, 0)

    def test_memory_does_not_grow_with_the_chunk_count(self):
        def peak(chunks):
            tracemalloc.start()
            try:
                deque(_pcg64_states(2**64 - 1, 0, chunks), maxlen=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 2**16 chunks against 2**12; tracemalloc traces every int the block
        # derivation makes, so these two take ~4 s
        small, large = peak(2**12), peak(2**16)
        assert large < 1.1 * small


class TestSetupCache:
    """A run computes each per-(n, p) binomial set-up once."""

    @staticmethod
    def calls_and_keys(monkeypatch, setup_name, simulate, params, h, chunk_size=4096):
        # the set-ups are kept per run, so no earlier run or test can have cached one
        setup = getattr(montecarlo, setup_name)
        calls = []

        def recording(n, p):
            calls.append((n, p))
            return setup(n, p)

        monkeypatch.setattr(montecarlo, setup_name, recording)
        simulate(params, h, SimConfig(seed=2024, chunk_size=chunk_size))
        return len(calls), len(set(calls))

    def test_btpe_set_ups_of_a_decay_ccqi_run(self, monkeypatch):
        # 2442 chunks; the nested draws take n from a window of hundreds of values
        p = DecayParams(n0=10**7, lam=1.0, t1=0.1, t2=0.5, t3=0.1)
        calls, keys = self.calls_and_keys(monkeypatch, "_btpe_setup", simulate_decay, p,
                                           Hypothesis.CCQI)
        assert keys > 300
        assert calls == keys

    def test_btpe_set_ups_of_large_chunks(self, monkeypatch):
        # 3000 chunks of 65536: the window of nested n holds over a thousand values
        p = DecayParams(n0=3000 * 65536, lam=1.0, t1=0.1, t2=0.5, t3=0.1)
        calls, keys = self.calls_and_keys(monkeypatch, "_btpe_setup", simulate_decay, p,
                                           Hypothesis.CCQI, chunk_size=65536)
        assert keys > 1024
        assert calls == keys

    def test_inversion_set_ups_of_a_small_p_run(self, monkeypatch):
        # s2 and s3 near 1 reflect to p = 0.002, which inversion draws for every n
        p = DecayParams(n0=10**7, lam=1.0, t1=0.1, t2=0.002, t3=0.002)
        calls, keys = self.calls_and_keys(monkeypatch, "_inversion_setup", simulate_decay, p,
                                           Hypothesis.POS)
        assert keys > 100
        assert calls == keys


def _numpy_generator(state: int, inc: int) -> np.random.Generator:
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bitgen)


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
            # repeats reuse the cached per-(n, p) set-up
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
        # a state whose next double is 1 - 2**-53, above the pmf as inversion sums
        # it, so the search passes its bound and starts again with the next double
        inc = 2**90 + 1
        hi = 0x0123_4567_89AB_CDEF  # top 6 bits 0: the output is not rotated
        first = hi << 64 | hi ^ 2**64 - 1
        state = (first - inc) * pow(montecarlo._PCG_MULT, -1, 2**128) % 2**128
        ours, ref = _Sampler(state, inc), _numpy_generator(state, inc)
        assert ours.binomial(n, p) == ref.binomial(n, p)
        assert ours.state == ref.bit_generator.state["state"]["state"]
        assert ours.state == (first * montecarlo._PCG_MULT + inc) % 2**128

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


_N0 = 10**6 + 7  # leaves a remainder chunk at both chunk sizes
_GOLDEN_PARAMS = {
    "excitation": (simulate_excitation, ExcitationParams(n0=_N0, epsilon=0.2, lam=1.0, t=LN2)),
    "decay": (
        simulate_decay,
        DecayParams(n0=_N0, lam=1.0, t1=0.1, t2=0.5, t3=0.1, lam_prime=2.0),
    ),
    "photon": (simulate_photon, PhotonParams(n0=_N0, d=0.5, u=0.8)),
}
# tallies of the count-level sampler on its per-chunk SeedSequence substreams
_GOLDEN = {
    ("excitation", "POS", 4096, 0): (900338, 99669, 0, 0),
    ("excitation", "POS", 4096, 2**64 - 1): (899761, 100246, 0, 0),
    ("excitation", "POS", 65536, 0): (899475, 100532, 0, 0),
    ("excitation", "POS", 65536, 2**64 - 1): (900006, 100001, 0, 0),
    ("excitation", "CCQI", 4096, 0): (850618, 49749, 49720, 49920),
    ("excitation", "CCQI", 4096, 2**64 - 1): (849597, 49880, 50164, 50366),
    ("excitation", "CCQI", 65536, 0): (849304, 50239, 50171, 50293),
    ("excitation", "CCQI", 65536, 2**64 - 1): (849900, 49803, 50106, 50198),
    ("decay", "POS", 4096, 0): (503385, 496622, 0, 0),
    ("decay", "POS", 4096, 2**64 - 1): (503658, 496349, 0, 0),
    ("decay", "POS", 65536, 0): (504456, 495551, 0, 0),
    ("decay", "POS", 65536, 2**64 - 1): (503555, 496452, 0, 0),
    ("decay", "CCQI", 4096, 0): (324961, 496622, 178424, 0),
    ("decay", "CCQI", 4096, 2**64 - 1): (325094, 496349, 178564, 0),
    ("decay", "CCQI", 65536, 0): (325837, 495551, 178619, 0),
    ("decay", "CCQI", 65536, 2**64 - 1): (326026, 496452, 177529, 0),
    ("decay", "MODIFIED_RATE", 4096, 0): (698378, 301629, 0, 0),
    ("decay", "MODIFIED_RATE", 4096, 2**64 - 1): (699043, 300964, 0, 0),
    ("decay", "MODIFIED_RATE", 65536, 0): (698307, 301700, 0, 0),
    ("decay", "MODIFIED_RATE", 65536, 2**64 - 1): (699492, 300515, 0, 0),
    ("photon", "POS", 4096, 0): (549048, 150151, 300808),
    ("photon", "POS", 4096, 2**64 - 1): (551058, 149345, 299604),
    ("photon", "POS", 65536, 0): (550235, 149587, 300185),
    ("photon", "POS", 65536, 2**64 - 1): (550775, 149680, 299552),
    ("photon", "CCQI", 4096, 0): (350611, 350183, 299213),
    ("photon", "CCQI", 4096, 2**64 - 1): (350558, 349011, 300438),
    ("photon", "CCQI", 65536, 0): (350075, 349997, 299935),
    ("photon", "CCQI", 65536, 2**64 - 1): (350288, 349249, 300470),
}


@pytest.mark.parametrize("key", list(_GOLDEN), ids=lambda k: "-".join(map(str, k[:3])) + f"-{k[3]:x}")
def test_golden_stream(key):
    """The sample stream is pinned: same (seed, chunk_size, parameters), same tallies."""
    name, hypothesis, chunk_size, seed = key
    simulate, params = _GOLDEN_PARAMS[name]
    cfg = SimConfig(seed=seed, chunk_size=chunk_size)
    assert simulate(params, Hypothesis[hypothesis], cfg).values() == _GOLDEN[key]


# runs of several state blocks that end in a remainder chunk: 733 chunks of 4096
# and 3001 chunks of 100
_BLOCK_RUNS = {4096: 3 * 10**6 + 7, 100: 3 * 10**5 + 7}
_GOLDEN_BLOCKS = {
    ("excitation", "POS", 4096, 0): (2700758, 299249, 0, 0),
    ("excitation", "POS", 4096, 2**64 - 1): (2699716, 300291, 0, 0),
    ("excitation", "POS", 100, 0): (269745, 30262, 0, 0),
    ("excitation", "POS", 100, 2**64 - 1): (269946, 30061, 0, 0),
    ("excitation", "CCQI", 4096, 0): (2551278, 149529, 149480, 149720),
    ("excitation", "CCQI", 4096, 2**64 - 1): (2549653, 149833, 150063, 150458),
    ("excitation", "CCQI", 100, 0): (254776, 15068, 14969, 15194),
    ("excitation", "CCQI", 100, 2**64 - 1): (254908, 15034, 15038, 15027),
    ("decay", "POS", 4096, 0): (1508911, 1491096, 0, 0),
    ("decay", "POS", 4096, 2**64 - 1): (1509559, 1490448, 0, 0),
    ("decay", "POS", 100, 0): (151192, 148815, 0, 0),
    ("decay", "POS", 100, 2**64 - 1): (151105, 148902, 0, 0),
    ("decay", "CCQI", 4096, 0): (974014, 1491096, 534897, 0),
    ("decay", "CCQI", 4096, 2**64 - 1): (975783, 1490448, 533776, 0),
    ("decay", "CCQI", 100, 0): (97671, 148815, 53521, 0),
    ("decay", "CCQI", 100, 2**64 - 1): (97676, 148902, 53429, 0),
    ("decay", "MODIFIED_RATE", 4096, 0): (2096312, 903695, 0, 0),
    ("decay", "MODIFIED_RATE", 4096, 2**64 - 1): (2096890, 903117, 0, 0),
    ("decay", "MODIFIED_RATE", 100, 0): (209563, 90444, 0, 0),
    ("decay", "MODIFIED_RATE", 100, 2**64 - 1): (210005, 90002, 0, 0),
    ("photon", "POS", 4096, 0): (1648409, 450858, 900740),
    ("photon", "POS", 4096, 2**64 - 1): (1650497, 450007, 899503),
    ("photon", "POS", 100, 0): (165014, 44537, 90456),
    ("photon", "POS", 100, 2**64 - 1): (164998, 44954, 90055),
    ("photon", "CCQI", 4096, 0): (1050205, 1050819, 898983),
    ("photon", "CCQI", 4096, 2**64 - 1): (1050298, 1049355, 900354),
    ("photon", "CCQI", 100, 0): (104669, 105150, 90188),
    ("photon", "CCQI", 100, 2**64 - 1): (104906, 104840, 90261),
}


@pytest.mark.parametrize("key", list(_GOLDEN_BLOCKS),
                         ids=lambda k: "-".join(map(str, k[:3])) + f"-{k[3]:x}")
def test_golden_stream_across_state_blocks(key):
    """Runs whose chunk states span several derivation blocks keep their tallies."""
    name, hypothesis, chunk_size, seed = key
    simulate, params = _GOLDEN_PARAMS[name]
    params = params.replace(n0=_BLOCK_RUNS[chunk_size])
    cfg = SimConfig(seed=seed, chunk_size=chunk_size)
    assert simulate(params, Hypothesis[hypothesis], cfg).values() == _GOLDEN_BLOCKS[key]


# the edges of the chunk loop: 1024 chunks of 100 (two full state blocks, no
# remainder), one partial chunk of 3000 below 4096, and 600 chunks of one event
_EDGE_RUNS = {100: 1024 * 100, 4096: 3000, 1: 600}
_GOLDEN_EDGES = {
    ("excitation", "POS", 100, 0): (92240, 10160, 0, 0),
    ("excitation", "POS", 100, 2**64 - 1): (92068, 10332, 0, 0),
    ("excitation", "POS", 4096, 0): (2741, 259, 0, 0),
    ("excitation", "POS", 4096, 2**64 - 1): (2690, 310, 0, 0),
    ("excitation", "POS", 1, 0): (547, 53, 0, 0),
    ("excitation", "POS", 1, 2**64 - 1): (541, 59, 0, 0),
    ("excitation", "CCQI", 100, 0): (87131, 5054, 5109, 5106),
    ("excitation", "CCQI", 100, 2**64 - 1): (86923, 5239, 5145, 5093),
    ("excitation", "CCQI", 4096, 0): (2611, 128, 130, 131),
    ("excitation", "CCQI", 4096, 2**64 - 1): (2541, 146, 149, 164),
    ("excitation", "CCQI", 1, 0): (511, 28, 36, 25),
    ("excitation", "CCQI", 1, 2**64 - 1): (517, 23, 24, 36),
    ("decay", "POS", 100, 0): (51375, 51025, 0, 0),
    ("decay", "POS", 100, 2**64 - 1): (51729, 50671, 0, 0),
    ("decay", "POS", 4096, 0): (1530, 1470, 0, 0),
    ("decay", "POS", 4096, 2**64 - 1): (1528, 1472, 0, 0),
    ("decay", "POS", 1, 0): (289, 311, 0, 0),
    ("decay", "POS", 1, 2**64 - 1): (326, 274, 0, 0),
    ("decay", "CCQI", 100, 0): (33293, 51025, 18082, 0),
    ("decay", "CCQI", 100, 2**64 - 1): (33452, 50671, 18277, 0),
    ("decay", "CCQI", 4096, 0): (990, 1470, 540, 0),
    ("decay", "CCQI", 4096, 2**64 - 1): (1005, 1472, 523, 0),
    ("decay", "CCQI", 1, 0): (184, 311, 105, 0),
    ("decay", "CCQI", 1, 2**64 - 1): (216, 274, 110, 0),
    ("decay", "MODIFIED_RATE", 100, 0): (71567, 30833, 0, 0),
    ("decay", "MODIFIED_RATE", 100, 2**64 - 1): (71633, 30767, 0, 0),
    ("decay", "MODIFIED_RATE", 4096, 0): (2043, 957, 0, 0),
    ("decay", "MODIFIED_RATE", 4096, 2**64 - 1): (2109, 891, 0, 0),
    ("decay", "MODIFIED_RATE", 1, 0): (436, 164, 0, 0),
    ("decay", "MODIFIED_RATE", 1, 2**64 - 1): (399, 201, 0, 0),
    ("photon", "POS", 100, 0): (56534, 15226, 30640),
    ("photon", "POS", 100, 2**64 - 1): (56279, 15258, 30863),
    ("photon", "POS", 4096, 0): (1710, 459, 831),
    ("photon", "POS", 4096, 2**64 - 1): (1676, 432, 892),
    ("photon", "POS", 1, 0): (327, 91, 182),
    ("photon", "POS", 1, 2**64 - 1): (302, 88, 210),
    ("photon", "CCQI", 100, 0): (35625, 35854, 30921),
    ("photon", "CCQI", 100, 2**64 - 1): (35844, 35717, 30839),
    ("photon", "CCQI", 4096, 0): (1014, 1019, 967),
    ("photon", "CCQI", 4096, 2**64 - 1): (1064, 1026, 910),
    ("photon", "CCQI", 1, 0): (208, 224, 168),
    ("photon", "CCQI", 1, 2**64 - 1): (238, 201, 161),
}


@pytest.mark.parametrize("key", list(_GOLDEN_EDGES),
                         ids=lambda k: "-".join(map(str, k[:3])) + f"-{k[3]:x}")
def test_golden_stream_at_the_chunk_loop_edges(key):
    """Runs without a remainder chunk, of one partial chunk, or of one-event chunks."""
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
        # n0 = 3 with chunk_size = 2 crosses a chunk boundary in every run
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
