import math

import numpy as np
import pytest

from mzsim.core import DecayParams, ExcitationParams, Hypothesis, PhotonParams
from mzsim.errors import DomainError, UnsupportedHypothesisError
from mzsim.predict import predict_decay, predict_excitation, predict_photon

LN2 = math.log(2.0)


def random_excitation(rng, n0=10_000):
    return ExcitationParams(
        n0=n0,
        epsilon=rng.uniform(0.02, 0.98),
        lam=rng.uniform(0.05, 2.0),
        t=rng.uniform(0.05, 2.0),
    )


def random_decay(rng, n0=10_000):
    return DecayParams(
        n0=n0,
        lam=rng.uniform(0.05, 2.0),
        t1=rng.uniform(0.05, 2.0),
        t2=rng.uniform(0.05, 2.0),
        t3=rng.uniform(0.05, 2.0),
        lam_prime=rng.uniform(0.0, 3.0),
    )


def random_photon(rng, n0=10_000):
    return PhotonParams(n0=n0, d=rng.uniform(0.05, 0.95), u=rng.uniform(0.05, 0.95))


class TestExcitation:
    def test_no_excitation_routes_everything_to_a_ground(self):
        p = ExcitationParams(n0=100, epsilon=0.0, lam=0.7, t=1.3)
        for h in (Hypothesis.POS, Hypothesis.CCQI):
            assert predict_excitation(p, h).values() == (100.0, 0.0, 0.0, 0.0)

    def test_full_excitation_no_decay_splits_evenly_under_collapse(self):
        p = ExcitationParams(n0=100, epsilon=1.0, lam=1.0, t=0.0)
        assert predict_excitation(p, Hypothesis.CCQI).values() == (0.0, 50.0, 0.0, 50.0)

    def test_hand_evaluated_tables(self):
        # epsilon 0.2, survival 0.5, 10000 atoms
        p = ExcitationParams(n0=10_000, epsilon=0.2, lam=1.0, t=LN2)
        pos = predict_excitation(p, Hypothesis.POS)
        assert pos.values() == pytest.approx((9000.0, 1000.0, 0.0, 0.0), rel=1e-12)
        ccqi = predict_excitation(p, Hypothesis.CCQI)
        assert ccqi.values() == pytest.approx((8500.0, 500.0, 500.0, 500.0), rel=1e-12)

    def test_counter_b_load_grows_with_excitation(self):
        rng = np.random.default_rng(21)
        lam, t = 0.8, 0.6
        epsilons = np.sort(rng.uniform(0.0, 1.0, size=50))
        loads = [
            (lambda tab: tab.nb1 + tab.nb2)(
                predict_excitation(
                    ExcitationParams(n0=1000, epsilon=float(e), lam=lam, t=t),
                    Hypothesis.CCQI,
                )
            )
            for e in epsilons
        ]
        assert all(a <= b + 1e-12 for a, b in zip(loads, loads[1:]))

    def test_rejects_modified_rate(self):
        p = ExcitationParams(n0=10, epsilon=0.5, lam=1.0, t=1.0)
        with pytest.raises(UnsupportedHypothesisError):
            predict_excitation(p, Hypothesis.MODIFIED_RATE)


class TestDecay:
    def test_zero_transit_time_keeps_everything_excited_at_a(self):
        p = DecayParams(n0=100, lam=1.0, t1=0.0, t2=0.0, t3=0.0, lam_prime=2.0)
        for h in Hypothesis:
            assert predict_decay(p, h).values() == (0.0, 100.0, 0.0, 0.0)

    def test_hand_evaluated_tables(self):
        # survival 0.5 per leg, total 0.125, 8000 atoms
        p = DecayParams(n0=8000, lam=1.0, t1=LN2, t2=LN2, t3=LN2)
        pos = predict_decay(p, Hypothesis.POS)
        assert pos.values() == pytest.approx((7000.0, 1000.0, 0.0, 0.0), rel=1e-12)
        ccqi = predict_decay(p, Hypothesis.CCQI)
        assert ccqi.values() == pytest.approx((6000.0, 1000.0, 1000.0, 0.0), rel=1e-12)

    def test_hand_evaluated_modified_rate(self):
        # survivors exp(-2*ln2 - 2*ln2) = 1/16
        p = DecayParams(n0=8000, lam=1.0, t1=LN2, t2=LN2, t3=LN2, lam_prime=2.0)
        table = predict_decay(p, Hypothesis.MODIFIED_RATE)
        assert table.values() == pytest.approx((7500.0, 500.0, 0.0, 0.0), rel=1e-12)

    def test_modified_rate_collapses_to_pos_at_equal_rates(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            p = random_decay(rng)
            p = DecayParams(
                n0=p.n0, lam=p.lam, t1=p.t1, t2=p.t2, t3=p.t3, lam_prime=p.lam
            )
            pos = predict_decay(p, Hypothesis.POS).values()
            mod = predict_decay(p, Hypothesis.MODIFIED_RATE).values()
            for a, b in zip(mod, pos):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_all_hypotheses_agree_when_interferometer_is_instant(self):
        p = DecayParams(n0=5000, lam=0.9, t1=0.4, t2=0.0, t3=0.7, lam_prime=2.5)
        tables = [predict_decay(p, h).values() for h in Hypothesis]
        for other in tables[1:]:
            assert other == pytest.approx(tables[0], rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("h", list(Hypothesis))
    def test_folds_source_purity_itself(self, h):
        p = DecayParams(n0=100, lam=1.0, t1=0.1, t2=0.2, t3=0.3, lam_prime=0.4, mu=0.5)
        assert predict_decay(p, h) == predict_decay(p.with_purity_folded(), h)

    def test_modified_rate_requires_lam_prime(self):
        p = DecayParams(n0=100, lam=1.0, t1=0.1, t2=0.2, t3=0.3)
        with pytest.raises(DomainError):
            predict_decay(p, Hypothesis.MODIFIED_RATE)


class TestPhoton:
    def test_no_recombination_quarters_the_counters(self):
        p = PhotonParams(n0=100, d=0.0, u=0.0)
        assert predict_photon(p, Hypothesis.POS).values() == (25.0, 25.0, 50.0)

    def test_perfect_recombination_restores_full_interference(self):
        p = PhotonParams(n0=100, d=1.0, u=1.0)
        assert predict_photon(p, Hypothesis.POS).values() == (100.0, 0.0, 0.0)

    def test_hand_evaluated_tables(self):
        p = PhotonParams(n0=16_000, d=0.5, u=0.5)
        pos = predict_photon(p, Hypothesis.POS)
        assert pos.values() == pytest.approx((7000.0, 3000.0, 6000.0), rel=1e-12)
        ccqi = predict_photon(p, Hypothesis.CCQI)
        assert ccqi.values() == pytest.approx((5000.0, 5000.0, 6000.0), rel=1e-12)

    def test_counter_gap_is_half_ud_n0(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = random_photon(rng)
            pos = predict_photon(p, Hypothesis.POS)
            ccqi = predict_photon(p, Hypothesis.CCQI)
            gap = 0.5 * p.u * p.d * p.n0
            assert pos.counter1 - ccqi.counter1 == pytest.approx(gap, rel=1e-12)
            assert ccqi.counter2 - pos.counter2 == pytest.approx(gap, rel=1e-12)
            assert pos.lost == ccqi.lost

    def test_rejects_modified_rate(self):
        with pytest.raises(UnsupportedHypothesisError):
            predict_photon(PhotonParams(n0=10, d=0.5, u=0.5), Hypothesis.MODIFIED_RATE)


class TestConservation:
    def test_predictions_sum_to_n0(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            n0 = int(rng.integers(1, 10**7))
            p_exc = random_excitation(rng, n0)
            p_dec = random_decay(rng, n0)
            p_pho = random_photon(rng, n0)
            for h in (Hypothesis.POS, Hypothesis.CCQI):
                assert predict_excitation(p_exc, h).total == pytest.approx(n0, rel=1e-9)
                assert predict_photon(p_pho, h).total == pytest.approx(n0, rel=1e-9)
            for h in Hypothesis:
                assert predict_decay(p_dec, h).total == pytest.approx(n0, rel=1e-9)

