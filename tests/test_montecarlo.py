import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats as scipy_stats

from mzsim.core import DecayParams, ExcitationParams, Hypothesis, PhotonParams
from mzsim.errors import DomainError, UnsupportedHypothesisError
from mzsim.montecarlo import (
    SimConfig,
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
        [dict(seed=-1), dict(seed=2**64), dict(chunk_size=0), dict(chunk_size=2**63)],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(DomainError):
            SimConfig(**kwargs)

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

    def test_requires_folded_purity(self):
        p = DecayParams(n0=100, lam=1.0, t1=0.1, t2=0.2, t3=0.3, mu=0.5)
        with pytest.raises(DomainError):
            simulate_decay(p, Hypothesis.POS)

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
