import itertools
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from mzsim.core import (
    ATOM_LABELS,
    CountTable,
    DecayParams,
    ExcitationParams,
    Hypothesis,
    PhotonParams,
)
from mzsim.errors import (
    DegenerateComparisonError,
    DomainError,
    ResourceLimitError,
    StructureError,
)
from mzsim.montecarlo import SimConfig, simulate_excitation
from mzsim.stats import (
    EXACT_SUPPORT_CAP,
    CategoryModel,
    DiscriminationReport,
    _rejection_rate,
    build_model,
    discriminate,
    log_likelihood,
    min_sample_size,
)

LN2 = math.log(2.0)
COUNT_LABELS = ATOM_LABELS


def excitation_params(n0=10_000, epsilon=0.2):
    return ExcitationParams(n0=n0, epsilon=epsilon, lam=1.0, t=LN2)


def pos_model(**kwargs):
    return build_model("excitation", excitation_params(), Hypothesis.POS, **kwargs)


def ccqi_model(**kwargs):
    return build_model("excitation", excitation_params(), Hypothesis.CCQI, **kwargs)


def direct_log_likelihood(counts, probs):
    """Plain-python summation oracle for the multinomial log likelihood."""
    total = 0.0
    for n, p in zip(counts, probs):
        if n == 0:
            continue
        if p == 0:
            return float("-inf")
        total += n * math.log(p)
    return total


class TestCategoryModel:
    def test_rejects_bad_probability_vectors(self):
        with pytest.raises(DomainError):
            CategoryModel(("a", "b"), np.array([0.6, 0.6]))
        with pytest.raises(DomainError):
            CategoryModel(("a", "b"), np.array([1.1, -0.1]))
        with pytest.raises(StructureError):
            CategoryModel(("a", "b", "c"), np.array([0.5, 0.5]))


class TestBuildModel:
    def test_excitation_pos_fractions(self):
        model = pos_model()
        assert model.labels == COUNT_LABELS
        assert model.probabilities == pytest.approx([0.9, 0.1, 0.0, 0.0], abs=1e-15)

    def test_fractions_do_not_depend_on_n0(self):
        a = build_model("excitation", excitation_params(n0=100), Hypothesis.CCQI)
        b = build_model("excitation", excitation_params(n0=10**6), Hypothesis.CCQI)
        assert a.probabilities == pytest.approx(b.probabilities, rel=1e-12)

    def test_visibility_mixing_identities(self):
        full = build_model("excitation", excitation_params(), visibility=1.0)
        none = build_model("excitation", excitation_params(), visibility=0.0)
        assert full.probabilities == pytest.approx(pos_model().probabilities, abs=1e-15)
        assert none.probabilities == pytest.approx(ccqi_model().probabilities, abs=1e-15)

    def test_visibility_and_hypothesis_are_exclusive(self):
        with pytest.raises(StructureError):
            build_model(
                "excitation", excitation_params(), Hypothesis.POS, visibility=0.5
            )
        with pytest.raises(StructureError):
            build_model("excitation", excitation_params())

    def test_background_fills_zero_cells_and_renormalizes(self):
        model = pos_model(background=1e-4)
        assert np.all(model.probabilities > 0)
        assert model.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        expected = (np.array([0.9, 0.1, 0.0, 0.0]) + 1e-4) / (1 + 4e-4)
        assert model.probabilities == pytest.approx(expected, rel=1e-12)

    def test_background_budget_is_capped(self):
        with pytest.raises(DomainError):
            pos_model(background=[0.5, 0.5, 0.5, 0.5])
        with pytest.raises(DomainError):
            pos_model(background=-1e-3)

    def test_background_arity_checked(self):
        with pytest.raises(StructureError):
            pos_model(background=[1e-4, 1e-4])

    def test_probabilities_valid_for_random_inputs(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            params = ExcitationParams(
                n0=1000,
                epsilon=rng.uniform(0, 1),
                lam=rng.uniform(0, 2),
                t=rng.uniform(0, 2),
            )
            kwargs = {}
            if rng.random() < 0.5:
                kwargs["background"] = rng.uniform(0, 0.05, size=4)
            if rng.random() < 0.5:
                kwargs["visibility"] = rng.uniform(0, 1)
            else:
                kwargs["hypothesis"] = Hypothesis.POS if rng.random() < 0.5 else Hypothesis.CCQI
            model = build_model("excitation", params, **kwargs)
            assert np.all(model.probabilities >= 0)
            assert model.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_experiment_params_pairing(self):
        with pytest.raises(StructureError):
            build_model("photon", excitation_params(), Hypothesis.POS)
        with pytest.raises(StructureError):
            build_model("interference", excitation_params(), Hypothesis.POS)

    def test_decay_and_photon_models(self):
        decay = build_model(
            "decay",
            DecayParams(n0=100, lam=1.0, t1=LN2, t2=LN2, t3=LN2),
            Hypothesis.CCQI,
        )
        assert decay.probabilities == pytest.approx([0.75, 0.125, 0.125, 0.0], rel=1e-12)
        photon = build_model(
            "photon", PhotonParams(n0=100, d=0.5, u=0.5), Hypothesis.POS
        )
        assert photon.probabilities == pytest.approx([0.4375, 0.1875, 0.375], rel=1e-12)


class TestLogLikelihood:
    def test_all_zero_counts(self):
        assert log_likelihood((0, 0, 0, 0), pos_model()) == 0.0

    def test_certain_category(self):
        model = CategoryModel(("only",), np.array([1.0]))
        assert log_likelihood((10,), model) == 0.0

    def test_matches_direct_summation_oracle(self):
        model = pos_model()
        value = log_likelihood((9000, 1000, 0, 0), model)
        oracle = direct_log_likelihood((9000, 1000, 0, 0), [0.9, 0.1, 0.0, 0.0])
        assert value == pytest.approx(oracle, rel=1e-15)
        assert value == pytest.approx(-3250.8297339144824, rel=1e-12)

    def test_impossible_category_gives_minus_infinity(self):
        assert log_likelihood((9000, 999, 1, 0), pos_model()) == float("-inf")

    def test_structural_checks(self):
        with pytest.raises(StructureError):
            log_likelihood((1, 2, 3), pos_model())
        with pytest.raises(DomainError):
            log_likelihood((1.5, 2, 3, 4), pos_model())
        with pytest.raises(DomainError):
            log_likelihood((-1, 2, 3, 4), pos_model())

    def test_accepts_count_tables(self):
        table = CountTable(9000, 1000, 0, 0)
        assert log_likelihood(table, pos_model()) == log_likelihood(
            (9000, 1000, 0, 0), pos_model()
        )


class TestDiscriminate:
    def test_single_b_click_rejects_pure_pos_outright(self):
        report = discriminate((8999, 1000, 1, 0), pos_model(), ccqi_model(), alpha=0.01)
        assert report.p_value_h0 == 0.0
        assert report.decision == "favor_H1"
        assert math.isinf(report.log_likelihood_ratio)

    def test_counts_at_null_expectation_favor_h0(self):
        report = discriminate(
            (9000, 1000, 0, 0), pos_model(), ccqi_model(), alpha=0.01, seed=3
        )
        assert report.decision == "favor_H0"
        assert report.log_likelihood_ratio < 0
        assert report.p_value_h0 > 0.01

    def test_data_from_h1_rejects_h0(self):
        counts = simulate_excitation(
            excitation_params(), Hypothesis.CCQI, SimConfig(seed=123)
        )
        report = discriminate(counts, pos_model(), ccqi_model(), alpha=0.01)
        assert report.decision == "favor_H1"
        assert report.p_value_h0 < 1e-4

    def test_impossible_under_h1_favors_h0(self):
        # b clicks observed, and this time the zero-cell model is h1
        report = discriminate((8999, 1000, 1, 0), ccqi_model(), pos_model(), alpha=0.01)
        assert report.decision == "favor_H0"
        assert report.p_value_h0 == 1.0
        assert report.log_likelihood_ratio == float("-inf")

    def test_llr_is_antisymmetric_under_model_swap(self):
        model_a = build_model("photon", PhotonParams(n0=100, d=0.5, u=0.5), Hypothesis.POS)
        model_b = build_model("photon", PhotonParams(n0=100, d=0.5, u=0.5), Hypothesis.CCQI)
        counts = (4200, 2100, 3700)
        fwd = discriminate(counts, model_a, model_b, alpha=0.05)
        rev = discriminate(counts, model_b, model_a, alpha=0.05)
        assert fwd.log_likelihood_ratio == -rev.log_likelihood_ratio

    def test_identical_models_are_degenerate(self):
        with pytest.raises(DegenerateComparisonError):
            discriminate((9000, 1000, 0, 0), pos_model(), pos_model(), alpha=0.05)

    def test_alpha_must_be_a_probability(self):
        with pytest.raises(DomainError):
            discriminate((9000, 1000, 0, 0), pos_model(), ccqi_model(), alpha=1.5)

    def test_ties_with_the_observed_statistic_count_as_extreme(self):
        # many null replicates tie (89, 10, 1, 0) up to the last bits of the LLR
        params = ExcitationParams(n0=100, epsilon=0.2, lam=1.0, t=LN2)
        h0 = build_model("excitation", params, Hypothesis.POS, background=1e-3)
        h1 = build_model("excitation", params, Hypothesis.CCQI, background=1e-3)
        report = discriminate((89, 10, 1, 0), h0, h1, alpha=0.11, seed=0)
        assert report.decision != "favor_H1"
        assert report.p_value_h0 > 0.11

    def test_report_validation(self):
        with pytest.raises(DomainError):
            DiscriminationReport(0.0, 0.5, "maybe")
        with pytest.raises(DomainError):
            DiscriminationReport(0.0, 1.5, "favor_H0")


class TestMinSampleSize:
    def test_every_particle_clicking_needs_one(self):
        h0 = CategoryModel(("a", "b"), np.array([1.0, 0.0]))
        h1 = CategoryModel(("a", "b"), np.array([0.0, 1.0]))
        assert min_sample_size(h0, h1, None, 0.95) == 1

    def test_closed_form_example(self):
        h0 = CategoryModel(("a", "b"), np.array([1.0, 0.0]))
        h1 = CategoryModel(("a", "b"), np.array([0.37, 0.63]))
        assert min_sample_size(h0, h1, None, 0.95) == 4
        assert min_sample_size(h0, h1, None, 0.95) == math.ceil(
            math.log(0.05) / math.log(0.37)
        )

    def test_excitation_design_needs_66_atoms(self):
        n = min_sample_size(pos_model(), ccqi_model(), None, 0.999)
        assert n == 66

    def test_simulation_path_agrees_within_one(self):
        n = min_sample_size(
            pos_model(), ccqi_model(), None, 0.999,
            method="simulation", replicates=10**6, seed=2,
        )
        assert abs(n - 66) <= 1

    def test_vanishing_separation_hits_the_cap(self):
        h0 = CategoryModel(("a", "b"), np.array([1.0, 0.0]))
        h1 = CategoryModel(("a", "b"), np.array([1.0 - 1e-11, 1e-11]))
        with pytest.raises(ResourceLimitError):
            min_sample_size(h0, h1, None, 0.999)

    def test_closed_form_requires_a_zero_cell(self):
        a = pos_model(background=1e-3)
        b = ccqi_model(background=1e-3)
        with pytest.raises(DomainError):
            min_sample_size(a, b, 0.01, 0.9, method="closed_form")

    def test_power_search_without_zero_cells(self):
        a = pos_model(background=1e-3)
        b = ccqi_model(background=1e-3)
        n = min_sample_size(a, b, 0.01, 0.9, replicates=2000, seed=7)
        assert n >= 1
        # deterministic under a fixed seed
        assert n == min_sample_size(a, b, 0.01, 0.9, replicates=2000, seed=7)

    def test_power_search_needs_alpha(self):
        a = pos_model(background=1e-3)
        b = ccqi_model(background=1e-3)
        with pytest.raises(DomainError):
            min_sample_size(a, b, None, 0.9, replicates=500)

    def test_identical_models_are_degenerate(self):
        with pytest.raises(DegenerateComparisonError):
            min_sample_size(pos_model(), pos_model(), 0.01, 0.9)

    def test_rejection_rate_ladder(self):
        # detection event for the zero-cell design: any particle in a
        # category that the null forbids
        rng = np.random.default_rng(52)
        p1 = ccqi_model().probabilities
        b_cells = pos_model().probabilities == 0.0

        def rejection_rate(n, reps=20_000):
            draws = rng.multinomial(n, p1, size=reps)
            return np.mean(draws[:, b_cells].sum(axis=1) > 0)

        rates = [rejection_rate(n) for n in (10, 66, 1000, 10_000)]
        assert all(a <= b + 0.02 for a, b in zip(rates, rates[1:]))
        assert rates[1] == pytest.approx(0.999, abs=0.02)
        assert rates[-1] == pytest.approx(1.0, abs=1e-6)


def brute_force_test(p0, p1, n):
    """Support, null-tail p-values and h1 masses by scipy and plain Python."""
    support = [x for x in itertools.product(range(n + 1), repeat=len(p0)) if sum(x) == n]
    llr = np.array([direct_log_likelihood(x, p1) - direct_log_likelihood(x, p0)
                    for x in support])
    mass0 = np.array([scipy_stats.multinomial.pmf(x, n, p0) for x in support])
    mass1 = np.array([scipy_stats.multinomial.pmf(x, n, p1) for x in support])
    with np.errstate(invalid="ignore"):
        floor = llr - 1e-9 * np.maximum(1.0, np.abs(llr))
        p_values = np.array([mass0[llr >= f].sum() for f in floor])
    return support, llr, p_values, mass1


ORACLE_DESIGNS = {
    "photon": (
        build_model("photon", PhotonParams(n0=100, d=0.5, u=0.5), Hypothesis.POS),
        build_model("photon", PhotonParams(n0=100, d=0.5, u=0.5), Hypothesis.CCQI),
    ),
    "excitation-background": (pos_model(background=1e-3), ccqi_model(background=1e-3)),
    "decay-modified_rate": (
        build_model("decay", DecayParams(n0=100, lam=1.0, t1=0.1, t2=0.8, t3=0.2,
                                         lam_prime=0.3), Hypothesis.POS),
        build_model("decay", DecayParams(n0=100, lam=1.0, t1=0.1, t2=0.8, t3=0.2,
                                         lam_prime=0.3), Hypothesis.MODIFIED_RATE),
    ),
}


class TestExactEngine:
    """Below EXACT_SUPPORT_CAP p-values and power are exact sums over the support."""

    @pytest.mark.parametrize("design", sorted(ORACLE_DESIGNS))
    def test_p_values_and_power_match_a_brute_force_sum(self, design):
        h0, h1 = ORACLE_DESIGNS[design]
        n = 12
        support, llr, p_values, mass1 = brute_force_test(h0.probabilities, h1.probabilities, n)
        if design == "decay-modified_rate":
            # the two shared structural-zero cells carry no mass under either model
            assert np.all(h0.probabilities[2:] == 0) and np.all(h1.probabilities[2:] == 0)
        for x, stat, p in zip(support, llr, p_values):
            if np.isfinite(stat):
                report = discriminate(x, h0, h1, alpha=0.05, seed=5)
                assert report.p_value_h0 == pytest.approx(p, abs=1e-12)
        for alpha in (0.01, 0.05, 0.3):
            power = mass1[p_values <= alpha].sum()
            assert _rejection_rate(n, h0, h1, alpha, 10, 0) == pytest.approx(power, abs=1e-12)

    def test_power_is_monotone_in_n(self):
        # the Monte Carlo estimate stepped down 4 times between n = 50 and 73
        h0, h1 = pos_model(background=1e-3), ccqi_model(background=1e-3)
        power = [_rejection_rate(n, h0, h1, 0.01, 10_000, 0) for n in range(40, 80)]
        assert all(a <= b for a, b in zip(power, power[1:]))

    def test_min_sample_size_ignores_seed_and_replicates(self):
        h0, h1 = pos_model(background=1e-3), ccqi_model(background=1e-3)
        sizes = {
            min_sample_size(h0, h1, 0.01, 0.99, replicates=replicates, seed=seed)
            for seed in (0, 1, 2)
            for replicates in (500, 10_000)
        }
        assert sizes == {62}

    def test_minimum_llr_outcome_has_p_value_at_most_one(self):
        h0, h1 = pos_model(background=1e-3), ccqi_model(background=1e-3)
        weights = np.log(h1.probabilities) - np.log(h0.probabilities)
        counts = [0, 0, 0, 0]
        # the null masses of all C(53, 3) outcomes of 50 draws sum to 1 plus rounding
        counts[int(np.argmin(weights))] = 50
        report = discriminate(counts, h0, h1, alpha=0.01)
        assert report.p_value_h0 <= 1.0
        assert report.p_value_h0 == pytest.approx(1.0, abs=1e-12)

    def test_above_the_cap_the_seeded_simulation_runs(self):
        h0, h1 = pos_model(background=1e-3), ccqi_model(background=1e-3)
        counts = (100, 13, 1, 1)  # 115 draws: C(118, 3) outcomes
        assert math.comb(118, 3) > EXACT_SUPPORT_CAP >= math.comb(117, 3)
        p_values = {
            discriminate(counts, h0, h1, alpha=0.01, replicates=999, seed=seed).p_value_h0
            for seed in (0, 1)
        }
        assert len(p_values) == 2
        assert all((1000 * p) == pytest.approx(round(1000 * p), abs=1e-9) for p in p_values)
