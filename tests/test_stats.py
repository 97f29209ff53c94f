import itertools
import math
import re
import sys
import tracemalloc
from bisect import bisect_left
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from mzsim import predict, stats
from mzsim.core import (
    ATOM_LABELS,
    EXPERIMENTS,
    MAX_REPLICATES,
    PHOTON_LABELS,
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
    MAX_SAMPLE_SIZE,
    MODEL_DISTINCTION_TOL,
    ROW_CAP,
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
# at t = 0.7 nb1 and nb2 do not tie, so a background design keeps four pooled cells
FOUR_CELLS = ExcitationParams(n0=100, epsilon=0.2, lam=1.0, t=0.7)
# 344 draws over FOUR_CELLS' four pooled cells: above ROW_CAP, so sampled
ABOVE_THE_CAP = (300, 40, 2, 2)


# (keyword arguments, the argument the refusal names)
BAD_SAMPLING_ARGUMENTS = [
    ({"replicates": 2.5}, "replicates"),
    ({"replicates": True}, "replicates"),
    ({"replicates": 10.0}, "replicates"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"seed": 2**64}, "seed"),
    ({"seed": False}, "seed"),
]


def excitation_params(n0=10_000, epsilon=0.2):
    return ExcitationParams(n0=n0, epsilon=epsilon, lam=1.0, t=LN2)


def four_cell_models():
    return (build_model("excitation", FOUR_CELLS, Hypothesis.POS, background=1e-3),
            build_model("excitation", FOUR_CELLS, Hypothesis.CCQI, background=1e-3))


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


def test_the_public_surface_and_caps_are_pinned():
    assert stats.__all__ == ["CategoryModel", "DiscriminationReport", "build_model",
                             "log_likelihood", "discriminate", "min_sample_size"]
    assert (stats.ROW_CAP, stats.TIE_REL_TOL, stats.MAX_SAMPLE_SIZE) == (2**20, 1e-9, 10**9)


class TestCategoryModel:
    def test_rejects_bad_probability_vectors(self):
        with pytest.raises(DomainError):
            CategoryModel(("a", "b"), np.array([0.6, 0.6]))
        with pytest.raises(DomainError):
            CategoryModel(("a", "b"), np.array([1.1, -0.1]))
        with pytest.raises(StructureError):
            CategoryModel(("a", "b", "c"), np.array([0.5, 0.5]))
        for probabilities in (0.5, None, object()):
            with pytest.raises(StructureError, match="labels and probabilities must have"):
                CategoryModel(("a", "b"), probabilities)

    def test_probabilities_are_a_read_only_float64_array(self):
        model = CategoryModel(("a", "b"), [0.25, 0.75])
        p = model.probabilities
        assert isinstance(p, np.ndarray) and p.dtype == np.float64 and p.ndim == 1
        assert p.tolist() == [0.25, 0.75] and not p.flags.writeable
        assert model.probabilities is p
        with pytest.raises(ValueError):
            p[0] = 0.5
        with pytest.raises(AttributeError, match="labels"):
            model.labels = ("c", "d")


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

    def test_models_need_a_particle(self):
        with pytest.raises(DomainError, match="^n0 must be >= 1 to derive category"):
            build_model("excitation", excitation_params(n0=0), Hypothesis.POS)

    @pytest.mark.parametrize("background", [[1e-4, 1e-4], object(), "0.1", [[1e-3]]])
    def test_background_arity_checked(self, background):
        with pytest.raises(StructureError, match="^background must be a scalar or 4 values$"):
            pos_model(background=background)

    @pytest.mark.parametrize(
        "background",
        [True, [True], [0.0, False, 0.0, 0.0], math.nan, [1e-3, math.inf, 0.0, 0.0],
         -math.inf],
    )
    def test_background_refuses_bools_and_non_finite_values(self, background):
        with pytest.raises(DomainError, match="^background must be finite numbers"):
            pos_model(background=background)

    @pytest.mark.parametrize(
        "visibility, message",
        [(True, "a finite number, got True"), (False, "a finite number, got False"),
         (-0.5, "a number >= 0"), (1.5, r"in \[0, 1\], got 1.5$"), (math.nan, "a finite number"),
         (math.inf, "a finite number")],
    )
    def test_visibility_refuses_bools_and_values_outside_the_unit_interval(
        self, visibility, message
    ):
        with pytest.raises(DomainError, match="^visibility must be " + message):
            build_model("excitation", excitation_params(), visibility=visibility)

    @pytest.mark.parametrize("counts", [[True, 0, 0, 0], (90, 10, False, 0)])
    def test_counts_refuse_bools(self, counts):
        message = "^counts must be non-negative integers summing to less than 2\\*\\*63"
        with pytest.raises(DomainError, match=message):
            discriminate(counts, pos_model(), ccqi_model(), 0.05)
        with pytest.raises(DomainError, match=message):
            log_likelihood(counts, pos_model())

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

    @pytest.mark.parametrize("h", list(Hypothesis))
    def test_decay_folds_source_purity(self, h):
        p = DecayParams(n0=100, lam=1.0, t1=0.1, t2=0.2, t3=0.3, lam_prime=0.4, mu=0.9)
        model = build_model("decay", p, h)
        folded = build_model("decay", p.with_purity_folded(), h)
        assert np.array_equal(model.probabilities, folded.probabilities)

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

    def test_counts_beyond_int64_are_refused_as_given(self):
        for counts in ((2**63, 0, 0, 0), (2**62, 2**62, 0, 0)):
            with pytest.raises(DomainError) as info:
                log_likelihood(counts, pos_model())
            assert str(counts) in str(info.value)

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

    def test_models_of_different_layouts_are_refused(self):
        photon = build_model("photon", PhotonParams(n0=100, d=0.5, u=0.5), Hypothesis.POS)
        with pytest.raises(StructureError, match="^models must share one category layout$"):
            discriminate((9000, 1000, 0, 0), pos_model(), photon, alpha=0.05)
        with pytest.raises(StructureError, match="^models must share one category layout$"):
            min_sample_size(pos_model(), photon, 0.05, 0.9)

    def test_a_count_table_of_other_labels_is_refused(self):
        table = CountTable(50, 30, 20, labels=PHOTON_LABELS)
        with pytest.raises(StructureError, match="^count categories .* do not match model"):
            discriminate(table, pos_model(), ccqi_model(), alpha=0.05)

    def test_alpha_must_be_a_probability(self):
        with pytest.raises(DomainError):
            discriminate((9000, 1000, 0, 0), pos_model(), ccqi_model(), alpha=1.5)

    def test_counts_impossible_under_both_models_are_refused(self):
        h0 = CategoryModel(("a", "b", "c"), (0.5, 0.5, 0.0))
        h1 = CategoryModel(("a", "b", "c"), (0.5, 0.0, 0.5))
        with pytest.raises(DomainError, match="impossible under both models"):
            discriminate((3, 1, 1), h0, h1, alpha=0.05)

    def test_ties_with_the_observed_statistic_count_as_extreme(self):
        # many null replicates tie (89, 10, 1, 0) up to the last bits of the LLR
        params = ExcitationParams(n0=100, epsilon=0.2, lam=1.0, t=LN2)
        h0 = build_model("excitation", params, Hypothesis.POS, background=1e-3)
        h1 = build_model("excitation", params, Hypothesis.CCQI, background=1e-3)
        report = discriminate((89, 10, 1, 0), h0, h1, alpha=0.11, seed=0)
        assert report.decision != "favor_H1"
        assert report.p_value_h0 > 0.11

    def test_replicates_are_capped_before_sampling(self):
        h0, h1 = four_cell_models()
        # above ROW_CAP, 10**13 replicates would ask for a 291 TiB sample
        for replicates in (0, MAX_REPLICATES + 1, 10**13):
            with pytest.raises(DomainError, match="replicates"):
                discriminate(ABOVE_THE_CAP, h0, h1, alpha=0.01, replicates=replicates)
            with pytest.raises(DomainError, match="replicates"):
                min_sample_size(h0, h1, 0.01, 0.95, replicates=replicates)

    @pytest.mark.parametrize("counts, above", [((20, 5, 3, 2), False), (ABOVE_THE_CAP, True)])
    @pytest.mark.parametrize("kwargs, name", BAD_SAMPLING_ARGUMENTS)
    def test_sampling_arguments_are_checked_at_any_n(self, counts, above, kwargs, name):
        h0, h1 = four_cell_models()
        assert (stats._size(sum(counts), h0._p, h1._p) > ROW_CAP) is above
        with pytest.raises(DomainError, match=f"^{name} must be"):
            discriminate(counts, h0, h1, alpha=0.01, **kwargs)

    def test_numpy_integers_and_the_largest_seed_are_accepted(self):
        h0, h1 = four_cell_models()
        report = discriminate(
            ABOVE_THE_CAP, h0, h1, alpha=0.01, replicates=np.int64(9), seed=2**64 - 1
        )
        assert report.p_value_h0 in {k / 10 for k in range(1, 11)}

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

    def test_subnormal_hit_probability_hits_the_cap(self):
        # ln(1 - power) / ln(1 - p_hit) overflows; no ceil of inf is attempted
        h0 = CategoryModel(("a", "b", "c"), np.array([0.5, 0.5, 0.0]))
        h1 = CategoryModel(("a", "b", "c"), np.array([0.4, 0.6, 1e-320]))
        with pytest.raises(ResourceLimitError, match="exceeds the cap"):
            min_sample_size(h0, h1, None, 0.5)

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

    def test_a_hopeless_power_search_refuses_before_any_probe(self, monkeypatch):
        # chi2(h1 || h0) = 2 * (d * u)**2 = 5e-19, and d(0.9 || 1e-9) = 18.3; the
        # search took seconds of exact probes, then refused alpha against replicates
        params = PhotonParams(n0=1000, d=0.5, u=1e-9)
        h0, h1 = (build_model("photon", params, h) for h in (Hypothesis.POS, Hypothesis.CCQI))

        def probe(*args):
            raise AssertionError("the search probed")

        monkeypatch.setattr(stats, "_rejection_rate", probe)
        with pytest.raises(ResourceLimitError, match=r"cap of 1000000000 .* n >= 3\.67e\+19$"):
            min_sample_size(h0, h1, 1e-9, 0.9)

    def test_the_refusal_bound_lies_below_every_planned_answer(self):
        # the power-search answers this module pins; the refusal's bound
        # d(power || alpha) / chi2 lies below each, and so do the information floors
        background = (pos_model(background=1e-3), ccqi_model(background=1e-3))
        weak = ExcitationParams(n0=1000, epsilon=0.02, lam=1.0, t=LN2)
        photon = PhotonParams(n0=1000, d=0.1, u=0.5)
        hypotheses = (Hypothesis.POS, Hypothesis.CCQI)
        for (h0, h1), alpha, power, answer in [
            (background, 0.01, 0.9, 36),
            (background, 0.01, 0.99, 62),
            ([build_model("excitation", weak, h, background=1e-3) for h in hypotheses],
             0.01, 0.95, 768),
            ([build_model("photon", photon, h) for h in hypotheses], 0.01, 0.95, 3301),
        ]:
            chi2 = sum((b - a) ** 2 / a for a, b in zip(h0._p, h1._p) if a > 0)
            assert binary_divergence(power, alpha) / chi2 <= answer
            assert_above_the_information_floor(answer, h0._p, h1._p, alpha, power)

    def test_a_power_search_past_the_cap_is_refused(self, monkeypatch):
        # the bound d(power || alpha) / chi2 is 0.76 here, so the search itself
        # reaches the cap: 36 atoms are needed
        monkeypatch.setattr(stats, "MAX_SAMPLE_SIZE", 16)
        with pytest.raises(ResourceLimitError, match="no sample size up to the cap of 16 "):
            min_sample_size(pos_model(background=1e-3), ccqi_model(background=1e-3), 0.01, 0.9)

    @pytest.mark.parametrize("alpha, power, kwargs, message", [
        (0.01, 0.0, {}, "power must be in (0, 1), got 0.0"),
        (0.01, 1.0, {}, "power must be in (0, 1), got 1.0"),
        (0.0, 0.9, {}, "alpha must be in (0, 1), got 0.0"),
        (1.5, 0.9, {}, "alpha must be in (0, 1), got 1.5"),
        (1, 0.9, {}, "alpha must be in (0, 1), got 1"),
        (0.01, 0.9, {"method": "fast"}, "unknown method 'fast'"),
        (0.01, 0.9, {"replicates": 0}, f"replicates must be in [1, {MAX_REPLICATES}], got 0"),
        (0.01, 0.9, {"replicates": MAX_REPLICATES + 1},
         f"replicates must be in [1, {MAX_REPLICATES}], got {MAX_REPLICATES + 1}"),
        (0.01, 0.9, {"replicates": 1.5}, "replicates must be an integer, got 1.5"),
    ])
    def test_power_alpha_and_method_are_checked(self, alpha, power, kwargs, message):
        match = f"^{re.escape(message)}$"
        with pytest.raises(DomainError, match=match):
            min_sample_size(pos_model(), ccqi_model(), alpha, power, **kwargs)
        # discriminate takes no power or method, and checks alpha and replicates alike
        if power == 0.9 and "method" not in kwargs:
            with pytest.raises(DomainError, match=match):
                discriminate((8999, 1000, 1, 0), pos_model(), ccqi_model(), alpha, **kwargs)

    def test_power_search_needs_alpha(self):
        a = pos_model(background=1e-3)
        b = ccqi_model(background=1e-3)
        with pytest.raises(DomainError):
            min_sample_size(a, b, None, 0.9, replicates=500)

    def test_identical_models_are_degenerate(self):
        with pytest.raises(DegenerateComparisonError):
            min_sample_size(pos_model(), pos_model(), 0.01, 0.9)

    @pytest.mark.parametrize("row_cap", [ROW_CAP, 0])
    @pytest.mark.parametrize("method", ["auto", "simulation"])
    @pytest.mark.parametrize("kwargs, name", BAD_SAMPLING_ARGUMENTS)
    def test_sampling_arguments_are_checked_for_every_design(
        self, monkeypatch, row_cap, method, kwargs, name
    ):
        # at a cap of 0 every probe of the power search would sample
        monkeypatch.setattr(stats, "ROW_CAP", row_cap)
        # the zero-cell closed form, and a power search
        for h0, h1 in ((pos_model(), ccqi_model()), four_cell_models()):
            with pytest.raises(DomainError, match=f"^{name} must be"):
                min_sample_size(h0, h1, 0.01, 0.9, method=method, **kwargs)

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


def numpy_probabilities(experiment, params, hypothesis, background, visibility):
    """The numpy expressions that build_model's float arithmetic replaces."""
    predictor = getattr(predict, f"predict_{experiment}")
    if visibility is not None:
        pos = np.array(predictor(params, Hypothesis.POS).values()) / params.n0
        ccqi = np.array(predictor(params, Hypothesis.CCQI).values()) / params.n0
        probs = visibility * pos + (1.0 - visibility) * ccqi
    else:
        probs = np.array(predictor(params, hypothesis).values()) / params.n0
    if background is not None:
        b = np.broadcast_to(np.asarray(background, dtype=float), probs.shape)
        probs = (probs + b) / (1.0 + b.sum())
    return probs


def numpy_min_n(p0: np.ndarray, p1: np.ndarray, power: float):
    """The zero-cell closed form as computed from numpy probabilities; None without one."""
    p_hit = float(p1[p0 == 0.0].sum())
    if p_hit == 0.0:
        return None
    if p_hit >= 1.0:
        return 1
    return max(1, math.ceil(math.log1p(-power) / math.log1p(-p_hit)))


FRACTION = st.floats(0.0, 1.0)
RATE = st.floats(0.0, 5.0)
N0 = st.one_of(
    st.integers(1, 10**7), st.integers(1, 2**70), st.just(int(sys.float_info.max))
)
BACKGROUND = st.floats(0.0, 0.25)


@st.composite
def designs(draw):
    """(experiment, params, h0, h1, background, visibility); h0 is None under visibility."""
    experiment = draw(st.sampled_from(sorted(EXPERIMENTS)))
    n0 = draw(N0)
    if experiment == "excitation":
        params = ExcitationParams(n0, draw(FRACTION), draw(RATE), draw(RATE))
    elif experiment == "decay":
        lam = draw(RATE)
        # a tiny rate would leave no finite pad for mu < 1
        mu = draw(st.floats(0.05, 1.0)) if lam > 1e-3 else 1.0
        params = DecayParams(n0, lam, draw(RATE), draw(RATE), draw(RATE), draw(RATE), mu)
    else:
        params = PhotonParams(n0, draw(FRACTION), draw(FRACTION))
    kind = EXPERIMENTS[experiment]
    ncat = len(kind.labels)
    background = draw(st.one_of(
        st.none(),
        BACKGROUND,
        st.lists(BACKGROUND, min_size=1, max_size=1),
        st.lists(BACKGROUND, min_size=ncat, max_size=ncat),
    ))
    visibility = draw(st.none() | FRACTION)
    h0 = None if visibility is not None else draw(st.sampled_from(kind.hypotheses))
    return experiment, params, h0, draw(st.sampled_from(kind.hypotheses)), background, visibility



@settings(max_examples=500, deadline=None)
@given(design=designs(), power=st.floats(1e-6, 1 - 1e-9))
def test_probabilities_and_closed_form_are_bitwise_numpys(design, power):
    experiment, params, h0, h1, background, visibility = design
    model_h0 = build_model(
        experiment, params, h0, background=background, visibility=visibility
    )
    model_h1 = build_model(experiment, params, h1, background=background)
    want0 = numpy_probabilities(experiment, params, h0, background, visibility)
    want1 = numpy_probabilities(experiment, params, h1, background, None)
    assert np.array(model_h0._p).tobytes() == want0.tobytes()
    assert np.array(model_h1._p).tobytes() == want1.tobytes()

    try:
        want_n = numpy_min_n(want0, want1, power)
    except OverflowError:  # ceil(inf): a subnormal p_hit, beyond every cap
        want_n = math.inf
    if np.max(np.abs(want0 - want1)) <= MODEL_DISTINCTION_TOL:
        with pytest.raises(DegenerateComparisonError):
            min_sample_size(model_h0, model_h1, None, power)
    elif want_n is None:
        with pytest.raises(DomainError, match="closed_form needs a category"):
            min_sample_size(model_h0, model_h1, None, power, method="closed_form")
    elif want_n > MAX_SAMPLE_SIZE:
        with pytest.raises(ResourceLimitError):
            min_sample_size(model_h0, model_h1, None, power)
    else:
        assert min_sample_size(model_h0, model_h1, None, power) == want_n


DECAY = DecayParams(n0=100, lam=1.0, t1=0.1, t2=0.8, t3=0.2, lam_prime=0.3)
ULP_TIED = ExcitationParams(n0=100, epsilon=0.2, lam=1.0, t=1.0)


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
        build_model("decay", DECAY, Hypothesis.POS),
        build_model("decay", DECAY, Hypothesis.MODIFIED_RATE),
    ),
    # the pooled designs: both b cells tie, at t = ln 2 exactly and at t = 1
    # one ulp apart; decay's na2 and nb2 tie at weight 0
    "excitation-visibility-background": (
        build_model("excitation", excitation_params(), visibility=0.9, background=1e-3),
        ccqi_model(background=1e-3),
    ),
    "excitation-visibility-ulp": (
        build_model("excitation", ULP_TIED, visibility=0.9),
        build_model("excitation", ULP_TIED, Hypothesis.CCQI),
    ),
    "decay-ccqi": (
        build_model("decay", DECAY, Hypothesis.POS, background=1e-3),
        build_model("decay", DECAY, Hypothesis.CCQI, background=1e-3),
    ),
    # the b cells are impossible under POS, as h0 and then as h1
    "excitation-zero-under-h0": (pos_model(), ccqi_model()),
    "excitation-zero-under-h1": (ccqi_model(), pos_model()),
}
POOLED_DESIGNS = {
    "excitation-visibility-background": [[0], [1], [2, 3]],
    "excitation-visibility-ulp": [[0], [1], [2, 3]],
    "decay-ccqi": [[0], [1, 3], [2]],
    # the two cells impossible under both models are dropped
    "decay-modified_rate": [[0], [1]],
}


def check_against_brute_force(design):
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
    # power is searched only where no cell impossible under h0 is open to h1
    if not np.any((h0.probabilities == 0) & (h1.probabilities > 0)):
        for alpha in (0.01, 0.05, 0.3):
            power = mass1[p_values <= alpha].sum()
            assert _rejection_rate(n, h0, h1, alpha, 10, 0) == pytest.approx(power, abs=1e-12)


class Enumeration:
    """Every outcome of ``n`` draws over the pooled cells of ``test``, a
    ``RowTest``: its statistic, summed left to right in the test's cell
    order, and its null and h1 masses.  The brute-force oracle of the rows."""

    def __init__(self, test, p0, p1):
        n, groups = test.n, test.groups
        q0, q1 = stats._pooled(p0, groups), stats._pooled(p1, groups)
        w = stats._llr_weights(q0, q1)[0]
        self.stat, self.mass0, self.mass1 = [], [], []
        for x in itertools.product(range(n + 1), repeat=len(groups)):
            if sum(x) != n:
                continue
            if any(c and (a == 0 or b == 0) for c, a, b in zip(x, q0, q1)):
                # an impossible count under h1 (-inf), under h0 (+inf) or both
                under = [any(c and q == 0 for c, q in zip(x, q)) for q in (q1, q0)]
                self.stat.append(math.nan if all(under) else -math.inf if under[0] else math.inf)
            else:
                total = 0.0
                for k in test.order:
                    total += x[k] * w[k]
                self.stat.append(total)
            for q, masses in ((q0, self.mass0), (q1, self.mass1)):
                log_mass = math.lgamma(n + 1)
                for c, qk in zip(x, q):
                    if c:
                        log_mass += c * math.log(qk) - math.lgamma(c + 1) if qk else -math.inf
                masses.append(math.exp(log_mass))

    def p_value(self, observed):
        floor = stats._tie_floor(observed)
        return math.fsum(m for s, m in zip(self.stat, self.mass0) if s >= floor)

    def power(self, alpha):
        finite = sorted((s, m0, m1) for s, m0, m1 in zip(self.stat, self.mass0, self.mass1)
                        if not math.isnan(s) and s < math.inf)
        stats_ = [s for s, _, _ in finite]
        upper = [*itertools.accumulate((m0 for _, m0, _ in reversed(finite)), initial=0.0)][::-1]
        rejected = [m1 for s, _, m1 in finite
                    if s > -math.inf and upper[bisect_left(stats_, stats._tie_floor(s))] <= alpha]
        return math.fsum(rejected)


# pi to 60 digits, for Stirling's series in 50-digit decimal arithmetic
PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def decimal_log_factorial(n: int) -> Decimal:
    """``ln(n!)``, exactly below 1000 and by Stirling's series above, whose
    first omitted term is then below 1e-30."""
    if n < 1000:
        return Decimal(math.factorial(n)).ln()
    n = Decimal(n)
    return ((n + Decimal("0.5")) * n.ln() - n + (2 * PI).ln() / 2 + 1 / (12 * n)
            - 1 / (360 * n**3) + 1 / (1260 * n**5) - 1 / (1680 * n**7))


def decimal_binomial_tail(n: int, r: float, x: int) -> Decimal:
    """P(X >= x) for X ~ Binomial(n, r), 0 < r < 1 and x <= n, in 50-digit arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        r, s = Decimal(r), 1 - Decimal(r)
        term = (decimal_log_factorial(n) - decimal_log_factorial(x)
                - decimal_log_factorial(n - x) + x * r.ln() + (n - x) * s.ln()).exp()
        total = Decimal(0)
        while term > total * Decimal("1e-45"):
            total += term
            term *= Decimal(n - x) / Decimal(x + 1) * r / s
            x += 1
        return +total


class TestBinomialTables:
    """A table steps its pmf out from the mode; its tails are accurate to the last digits."""

    @pytest.mark.parametrize("m", [0, 1, 80, 10**4, 10**7])
    @pytest.mark.parametrize("r", [1e-6, 1e-3, 0.1, 0.5, 0.7, 0.98, 1.0])
    def test_tails_match_an_independent_reference(self, m, r):
        lo, tails = stats._Binomial(r).table(m)
        hi = lo + len(tails) - 2
        mode = min(int((m + 1) * r), m)
        if m < 10**7 or r == 1.0:
            cuts = sorted({lo, mode, hi + 1, *range(lo, hi + 1, max(1, (hi - lo) // 40))})
            want = scipy_stats.binom.sf(np.array(cuts) - 1, m, r)
        else:
            # scipy's binom.sf errs by up to 3e-12 here, and by 2.4e-10 at r = 1e-6
            # near the mode, so a 50-digit sum stands in
            cuts = sorted({lo, mode, hi, *range(lo, hi + 1, max(1, (hi - lo) // 6))})
            want = [float(decimal_binomial_tail(m, r, x)) for x in cuts]
        for x, expected in zip(cuts, want):
            # r / (1 - r) is rounded once, so a tail k steps from the mode may
            # drift by k * 2**-53; the top of a window of 10**7 is 13,600 steps out
            rel = max(1e-12, abs(x - mode) * 2.0**-52)
            assert tails[x - lo] == pytest.approx(expected, rel=rel, abs=0.0), x
        if r == 1.0:
            assert (lo, list(tails)) == (m, [1.0, 0.0])

    @pytest.mark.parametrize("n", [10**4, 10**6, 10**7])
    def test_two_cell_p_values_match_a_50_digit_sum(self, n):
        # under pos and modified_rate every decay atom reaches counter a: two
        # cells, whose null probabilities sum to exactly 1, so one row of mass 1
        params = DecayParams(n0=1000, lam=1.0, lam_prime=0.9, t1=0.1, t2=0.5, t3=0.1)
        h0 = build_model("decay", params, Hypothesis.POS)
        h1 = build_model("decay", params, Hypothesis.MODIFIED_RATE)
        assert h0._p[0] + h0._p[1] == 1.0 and h0._p[2:] == (0.0, 0.0)
        r = h0._p[1]
        sd = math.sqrt(n * r * (1 - r))
        for k in (1, 3, 6):
            x = int((n + 1) * r) + round(k * sd)
            p_value = discriminate((n - x, x, 0, 0), h0, h1, 0.05).p_value_h0
            want = decimal_binomial_tail(n, r, x)
            assert abs(Decimal(p_value) - want) <= Decimal("1e-12") * want, (k, p_value)

    @pytest.mark.parametrize("k", [12, 20])
    def test_a_cut_past_the_window_steps_on_from_its_edge(self, k):
        # 12 and 20 sd above the mode lie past the table's window (about 9.4
        # sd), where lgamma's rounding at n = 10**7 once cost 7e-9 and 2e-8
        n = 10**7
        params = DecayParams(n0=1000, lam=1.0, lam_prime=0.9, t1=0.1, t2=0.5, t3=0.1)
        h0 = build_model("decay", params, Hypothesis.POS)
        h1 = build_model("decay", params, Hypothesis.MODIFIED_RATE)
        r = h0._p[1]
        mode = int((n + 1) * r)
        x = mode + round(k * math.sqrt(n * r * (1 - r)))
        lo, tails = stats._Binomial(r).table(n)
        assert x > lo + len(tails) - 1
        p_value = discriminate((n - x, x, 0, 0), h0, h1, 0.05).p_value_h0
        want = decimal_binomial_tail(n, r, x)
        rel = max(1e-12, (x - mode) * 2.0**-52)
        assert abs(Decimal(p_value) - want) <= Decimal(rel) * want, p_value

    def test_a_pmf_below_the_smallest_normal_float_counts_as_zero(self):
        # one row of 3000 draws; its pmf falls below 2**-1022 at 2477, past the
        # window, so a tail from there is 0 and one from 2476 stops at 2**-1022
        n = 3000
        params = DecayParams(n0=1000, lam=1.0, lam_prime=0.9, t1=0.1, t2=0.5, t3=0.1)
        h0 = build_model("decay", params, Hypothesis.POS)
        h1 = build_model("decay", params, Hypothesis.MODIFIED_RATE)
        r = h0._p[1]
        binom = stats._Binomial(r)
        mode = int((n + 1) * r)
        x = next(x for x in range(mode, n + 1) if binom.log_pmf(n, x) < -1022 * math.log(2))
        lo, tails = binom.table(n)
        assert x - 1 > lo + len(tails) - 1
        p_values = {y: discriminate((n - y, y, 0, 0), h0, h1, 0.05).p_value_h0
                    for y in (x - 1, x, n)}
        assert p_values[x - 1] > 0.0 and p_values[x] == p_values[n] == 0.0
        for y, p_value in p_values.items():
            # the docstring's bound: below m = 2**20 a tail errs by less than 1e-300
            assert abs(Decimal(p_value) - decimal_binomial_tail(n, r, y)) < Decimal("1e-300"), y


class TestExactEngine:
    """Up to ROW_CAP, p-values and power are exact sums over the support."""

    @pytest.mark.parametrize("design", sorted(ORACLE_DESIGNS))
    def test_p_values_and_power_match_a_brute_force_sum(self, design):
        check_against_brute_force(design)

    @pytest.mark.parametrize("design", sorted(POOLED_DESIGNS))
    def test_tied_cells_pool(self, design):
        h0, h1 = ORACLE_DESIGNS[design]
        p0, p1 = h0.probabilities, h1.probabilities
        assert stats._pooled_cells(12, p0, p1) == POOLED_DESIGNS[design]
        if design == "excitation-visibility-ulp":
            w = stats._llr_weights(p0, p1)[0]
            assert 0 < 12 * abs(w[2] - w[3]) <= stats.TIE_REL_TOL

    def test_pooling_matches_the_unpooled_engine(self, monkeypatch):
        rng = np.random.default_rng(60)
        designs = []
        for _ in range(40):
            k = int(rng.integers(3, 5))
            p0 = rng.dirichlet(np.ones(k))
            w = rng.normal(size=k)
            w[1] = w[0]
            p1 = p0 * np.exp(w)
            extra = int(rng.integers(3)) if k == 4 else 0
            if extra == 1:
                p1[3] = 0.0  # impossible under h1 alone
            elif extra == 2:
                p0[3] = p1[3] = 0.0  # impossible under both
            order = rng.permutation(k)
            p0, p1 = (p0[order] / p0.sum()).tolist(), (p1[order] / p1.sum()).tolist()
            designs.append((int(rng.integers(1, 61)), p0, p1))
        pooled = [stats.RowTest(n, p0, p1) for n, p0, p1 in designs]
        monkeypatch.setattr(
            stats, "_pooled_cells", lambda n, p0, p1: [[k] for k in range(len(p0)) if p0[k] or p1[k]]
        )
        for (n, p0, p1), test in zip(designs, pooled):
            assert len(test.groups) < len(p0)
            raw = stats.RowTest(n, p0, p1)
            for alpha in (0.01, 0.05, 0.2):
                assert test.power(alpha) == pytest.approx(raw.power(alpha), abs=1e-12)
            for x in np.concatenate([rng.multinomial(n, p, size=4) for p in (p0, p1)]):
                if all(c == 0 or (a > 0 and b > 0) for c, a, b in zip(x, p0, p1)):
                    assert test.p_value(test.statistic(x)) == pytest.approx(
                        raw.p_value(raw.statistic(x)), abs=1e-12
                    )

    @pytest.mark.parametrize("design", sorted(ORACLE_DESIGNS))
    def test_row_masses_match_direct_pmfs(self, design):
        h0, h1 = ORACLE_DESIGNS[design]
        n = 12
        test = stats.RowTest(n, h0.probabilities.tolist(), h1.probabilities.tolist())
        q0, q1 = ([p[g].sum() for g in test.groups] for p in (h0.probabilities,
                                                             h1.probabilities))
        # a row fixes the counts of the cells before the last two of the
        # order; the pair shares the rest, as one cell of the pair's mass
        outer, pair = test.order[:-2], test.order[-2:]
        rows = [x for x in itertools.product(range(n + 1), repeat=len(outer)) if sum(x) <= n]
        assert len(rows) == len(test._m) == math.comb(n + len(outer), len(outer))
        for q, masses in ((q0, test._mass0), (q1, [math.exp(x + a + m * test._log_ratio)
                                                   for x, a, m in zip(test._log_mass, test._a,
                                                                      test._m)])):
            # the cells impossible under either model stay empty
            cells = [q[k] for k in outer] + [sum(q[k] for k in pair)]
            cells.append(1.0 - sum(cells))
            want = sorted(scipy_stats.multinomial.pmf([*x, n - sum(x), 0], n, cells)
                          for x in rows)
            assert sorted(masses) == pytest.approx(want, rel=1e-12)

    def test_each_cut_is_the_least_count_whose_statistic_reaches_the_threshold(self):
        # thresholds on every row statistic and one ulp either side, where the
        # division that starts each cut misses by one in both directions
        rng = np.random.default_rng(61)
        misses = {-1: 0, 1: 0}
        for _ in range(12):
            k = int(rng.integers(2, 5))
            p0 = rng.dirichlet(np.ones(k))
            p1 = p0 * np.exp(rng.uniform(-3.0, 3.0, k))
            test = stats.RowTest(int(rng.integers(1, 25)), p0.tolist(), (p1 / p1.sum()).tolist())
            wu, wv, d = test._wu, test._wv, test._d
            for a, m, mass in zip(*test._rows(range(len(test._m)))):
                # the statistic of x draws in u, summed left to right as the engine does
                row = [(a + (m - x) * wv) + x * wu for x in range(m + 1)]
                for s in row:
                    for t in (math.nextafter(s, -math.inf), s, math.nextafter(s, math.inf)):
                        cuts = []
                        test._tail(test._binom0, t, [a], [m], [mass], cuts)
                        least = next((x for x, s in enumerate(row) if s >= t), m + 1)
                        assert cuts == [least], (a, m, t)
                        guess = min(max(math.ceil((t - (a + m * wv)) / d), 0), m + 1)
                        if guess != least:
                            misses[1 if guess > least else -1] += 1
        assert misses[-1] and misses[1], misses

    def test_a_bracket_narrower_than_one_ulp_ends_the_bisection(self):
        # the two finite cells' weights differ by d = 6e-15: above TIE_REL_TOL / n,
        # so they do not pool, but below one ulp of the statistics, about 40, so
        # the critical statistic's bisection runs out of floats before d.  The
        # rest of the null mass lies in a cell impossible under h1
        n, w, d = 2 * 10**5, 2e-4, 6e-15
        half = math.exp(-w) / 2
        p0, p1 = [half, half, 1.0 - 2 * half], [0.5 - d / 4, 0.5 + d / 4, 0.0]
        test = stats.RowTest(n, p0, p1)
        assert test.groups == [[0], [1], [2]]
        assert stats.TIE_REL_TOL / n < test._d < math.ulp(n * test._wv)
        # every outcome off the third cell ties with every other: each one's
        # p-value is their null mass, and h1 puts all its mass there.  A row's
        # log mass is summed from lgamma(n + 1), about 2.2e6, in whose last
        # digit, 4.7e-10, it may err
        rel = 2 * math.ulp(math.lgamma(n + 1))
        finite = math.exp(n * math.log(2 * half))
        for counts in ((n, 0, 0), (n // 2, n - n // 2, 0), (0, n, 0)):
            assert test.p_value(test.statistic(counts)) == pytest.approx(finite, rel=rel)
        assert test.power(10 * finite) == pytest.approx(1.0, rel=rel)
        assert test.power(finite / 10) == 0.0

    def test_discriminate_counts_each_outcomes_own_mass(self):
        h0, h1 = ORACLE_DESIGNS["excitation-visibility-ulp"]
        p0 = h0.probabilities
        n = 10
        groups = stats._pooled_cells(n, p0, h1.probabilities)
        q0 = [p0[g].sum() for g in groups]
        for x in itertools.product(range(n + 1), repeat=4):
            if sum(x) != n:
                continue
            own = scipy_stats.multinomial.pmf([sum(x[k] for k in g) for g in groups], n, q0)
            report = discriminate(x, h0, h1, alpha=0.05)
            assert report.p_value_h0 >= own * (1 - 1e-12), x

    def test_memory_at_the_row_cap(self):
        # four distinct weights, so nothing pools; 330 draws lie just under the cap
        p0, p1 = (model._p for model in four_cell_models())
        n = 330
        assert stats._size(n, p0, p1) <= ROW_CAP < stats._size(n + 1, p0, p1)
        tracemalloc.start()
        try:
            test = stats.RowTest(n, p0, p1)
            test.p_value(test.statistic((250, 60, 10, 10)))
            test.power(0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 55,611 rows; the rows and binomial tables of the search took 10 MB here
        assert peak < 32e6

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

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("replicates", [500, 10_000])
    def test_plans_above_the_old_enumeration_are_exact(self, seed, replicates):
        # 768 draws over three pooled cells; seeds 0-3 sampled 771, 782, 769 and 779
        params = ExcitationParams(n0=1000, epsilon=0.02, lam=1.0, t=LN2)
        h0 = build_model("excitation", params, Hypothesis.POS, background=1e-3)
        h1 = build_model("excitation", params, Hypothesis.CCQI, background=1e-3)
        n = min_sample_size(h0, h1, 0.01, 0.95, replicates=replicates, seed=seed)
        assert n == 768

    def test_the_photon_plan_is_exact(self):
        # three cells; seeds 0-3 sampled 3362, 3457, 3349 and 3319 with 1e4 replicates
        params = PhotonParams(n0=1000, d=0.1, u=0.5)
        h0 = build_model("photon", params, Hypothesis.POS)
        h1 = build_model("photon", params, Hypothesis.CCQI)
        assert min_sample_size(h0, h1, 0.01, 0.95) == 3301
        power = [_rejection_rate(n, h0, h1, 0.01, 10, 0) for n in (3300, 3301)]
        assert power[0] < 0.95 <= power[1]

    def test_minimum_llr_outcome_has_p_value_at_most_one(self):
        h0, h1 = pos_model(background=1e-3), ccqi_model(background=1e-3)
        weights = np.log(h1.probabilities) - np.log(h0.probabilities)
        counts = [0, 0, 0, 0]
        # the null masses of all C(53, 3) outcomes of 50 draws sum to 1 plus rounding
        counts[int(np.argmin(weights))] = 50
        report = discriminate(counts, h0, h1, alpha=0.01)
        assert report.p_value_h0 <= 1.0
        assert report.p_value_h0 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_power_counts_ties_like_discriminate(self, seed):
        # above the cap; float noise in the LLR sums splits many tied statistics
        n, replicates = 20_000, 1000
        params = ExcitationParams(n0=n, epsilon=0.02, lam=1.0, t=LN2)
        h0 = build_model("excitation", params, Hypothesis.POS, background=1e-3)
        h1 = build_model("excitation", params, Hypothesis.CCQI, background=1e-3)
        p0, p1 = h0.probabilities, h1.probabilities
        assert stats._size(n, h0._p, h1._p) > ROW_CAP
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n,)))

        def statistics(p):
            return [direct_log_likelihood(x, p1) - direct_log_likelihood(x, p0)
                    for x in rng.multinomial(n, p, size=replicates)]

        null, alt = np.array(statistics(p0)), statistics(p1)
        p_values = np.array([
            (1 + np.count_nonzero(null >= a - 1e-9 * max(1.0, abs(a)))) / (1 + replicates)
            for a in alt
        ])
        for alpha in sorted(set(p_values[p_values < 0.5])):
            power = _rejection_rate(n, h0, h1, alpha, replicates, seed)
            assert power == np.mean(p_values <= alpha), alpha

    def test_above_the_cap_the_seeded_simulation_runs(self):
        h0, h1 = four_cell_models()
        n = sum(ABOVE_THE_CAP)
        assert len(stats._pooled_cells(n, h0._p, h1._p)) == 4
        assert stats._size(n, h0._p, h1._p) > ROW_CAP
        p_values = {
            discriminate(ABOVE_THE_CAP, h0, h1, alpha=0.01, replicates=999, seed=seed).p_value_h0
            for seed in (0, 1)
        }
        assert len(p_values) == 2
        assert all((1000 * p) == pytest.approx(round(1000 * p), abs=1e-9) for p in p_values)

    def test_above_the_cap_alpha_must_reach_the_smallest_p_value(self):
        h0, h1 = four_cell_models()
        n = sum(ABOVE_THE_CAP)
        # 99 replicates resolve p-values down to 1 / 100
        assert _rejection_rate(n, h0, h1, 0.01, 99, 0) > 0.0
        with pytest.raises(DomainError, match=r"alpha = 0\.0099.*replicates = 99"):
            _rejection_rate(n, h0, h1, math.nextafter(0.01, 0.0), 99, 0)
        # below the cap the power is exact, whatever the replicates
        exact = stats.RowTest(12, h0._p, h1._p).power(0.001)
        assert _rejection_rate(12, h0, h1, 0.001, 99, 0) == exact

    def test_the_seeded_path_puts_cells_impossible_under_h1_below_every_statistic(
        self, monkeypatch
    ):
        # the exclusion design: h1 = POS leaves both b cells empty, so a null
        # draw that reaches them scores -inf
        h0 = build_model("excitation", excitation_params(), visibility=0.9)
        h1 = pos_model()
        counts, n, alpha = (181, 19, 0, 0), 200, 0.05
        exact = stats.RowTest(n, h0._p, h1._p)
        p = discriminate(counts, h0, h1, alpha).p_value_h0  # 0.0741
        # a sampled p-value misses by up to delta, so the sampled test rejects what
        # the exact one rejects at a level within delta of alpha: 0.352 to 0.441 here
        replicates = 20_000
        delta = 4 * math.sqrt(alpha * (1 - alpha) / replicates)
        low, high = exact.power(alpha - delta), exact.power(alpha + delta)
        monkeypatch.setattr(stats, "ROW_CAP", 1)
        sampled = discriminate(counts, h0, h1, alpha, replicates=10 * replicates).p_value_h0
        assert abs(sampled - p) <= 4 * math.sqrt(p * (1 - p) / (10 * replicates))
        power = _rejection_rate(n, h0, h1, alpha, replicates, 0)
        assert (low - 4 * math.sqrt(low * (1 - low) / replicates) <= power
                <= high + 4 * math.sqrt(high * (1 - high) / replicates))

    def test_the_exact_engine_ends_at_the_row_cap(self, monkeypatch):
        h0, h1 = four_cell_models()
        counts = (20, 5, 3, 2)
        size = stats._size(sum(counts), h0._p, h1._p)

        def answers():
            return (discriminate(counts, h0, h1, alpha=0.05, replicates=99, seed=1),
                    _rejection_rate(sum(counts), h0, h1, 0.05, 99, 1))

        monkeypatch.setattr(stats, "ROW_CAP", size + 1)
        exact = answers()
        for cap, sampled in ((size, False), (size - 1, True)):
            # at the cap the rows answer; one cell above it the simulation does
            monkeypatch.setattr(stats, "ROW_CAP", cap)
            assert (answers() != exact) is sampled
        assert 100 * answers()[0].p_value_h0 == pytest.approx(
            round(100 * answers()[0].p_value_h0), abs=1e-9)

    def test_the_cap_covers_every_support_the_enumeration_answered(self):
        # the old enumeration answered pooled supports of up to 2**18 outcomes
        for cells in range(2, 60):
            p = [1.0 / cells] * cells
            q = [(k + 1) / (cells * (cells + 1) / 2) for k in range(cells)]
            n = 0
            while math.comb(n + cells, cells - 1) <= 2**18:
                n += 1
            assert stats._size(n, p, q) <= ROW_CAP, (cells, n)


@st.composite
def engine_designs(draw):
    """(n, p0, p1): three or four cells, two of them tied or not, one cell
    impossible under h0, h1, both or neither."""
    k = draw(st.sampled_from([3, 4]))
    p0 = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    w = draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k))
    if draw(st.booleans()):
        w[1] = w[0]
    p1 = [a * math.exp(x) for a, x in zip(p0, w)]
    zero = draw(st.sampled_from(["none", "h0", "h1", "both"]))
    if zero in ("h0", "both"):
        p0[-1] = 0.0
    if zero in ("h1", "both"):
        p1[-1] = 0.0
    p0, p1 = ([x / sum(p) for x in p] for p in (p0, p1))
    cells = len(stats._pooled_cells(1, p0, p1))
    n = draw(st.integers(0, {1: 400, 2: 400, 3: 120}.get(cells, 36)))
    return n, p0, p1


# four draws whose critical-statistic search gallops up from the normal
# approximation's bound at alpha = 1e-3; random designs rarely take that branch
GALLOP_UP = DecayParams(n0=100, lam=1.0, t1=0.4, t2=0.5, t3=0.5)
GALLOP_UP_DESIGN = (4, build_model("decay", GALLOP_UP, visibility=0.9, background=1e-4)._p,
                    build_model("decay", GALLOP_UP, Hypothesis.CCQI, background=1e-4)._p)


# a p-value of 6.3e-291, between the smallest normal float and 2**-960
TINY_TAIL_DESIGN = (126, [0.49751243781094534, 0.49751243781094534, 0.0049751243781094535],
                    [0.49329542011716715, 0.49329542011716715, 0.01340915976566566])


@settings(max_examples=40, deadline=None)
@given(design=engine_designs())
@example(design=GALLOP_UP_DESIGN)
@example(design=TINY_TAIL_DESIGN)
def test_the_row_engine_matches_the_enumeration(design):
    n, p0, p1 = design
    test = stats.RowTest(n, p0, p1)
    oracle = Enumeration(test, p0, p1)
    # every outcome's p-value on small supports, a spread of them on large ones;
    # discriminate asks for none at an infinite statistic, which it answers itself
    finite = sorted({s for s in oracle.stat if math.isfinite(s)})
    stride = max(1, len(finite) // 60)
    for observed in [*finite[::stride], finite[-1]] if finite else []:
        assert test.p_value(observed) == pytest.approx(
            oracle.p_value(observed), rel=1e-12, abs=1e-300
        )
    if not any(a == 0.0 < b for a, b in zip(p0, p1)):
        for alpha in (1e-3, 0.01, 0.05, 0.3):
            assert test.power(alpha) == pytest.approx(oracle.power(alpha), rel=1e-12, abs=1e-300)


def binary_divergence(p: float, q: float) -> float:
    """d(p || q), the Kullback-Leibler divergence of Bernoulli(p) from Bernoulli(q)."""
    return p * math.log(p / q) + (1 - p) * math.log((1 - p) / (1 - q))


def divergence(p, q) -> float:
    """D(p || q) of two category vectors; inf where p reaches a cell q rules out."""
    if any(a > 0 == b for a, b in zip(p, q)):
        return math.inf
    return math.fsum(a * math.log(a / b) for a, b in zip(p, q) if a > 0)


# a floor within this fraction of itself counts as met: the divergences are
# float sums, and the engine's power carries its own rounding
FLOOR_MARGIN = 1e-9


def assert_above_the_information_floor(n, p0, p1, alpha, power):
    """Any test of size <= alpha and power >= power on n particles has
    n * D(h1 || h0) >= d(power || alpha) and n * D(h0 || h1) >= d(alpha || power),
    by data processing for the divergence."""
    for ratio, floor in ((divergence(p1, p0), binary_divergence(power, alpha)),
                         (divergence(p0, p1), binary_divergence(alpha, power))):
        assert n * ratio >= floor * (1 - FLOOR_MARGIN), (n, floor / ratio)


@st.composite
def floor_designs(draw):
    """(p0, p1, alpha, power): two to four cells, all possible under both models,
    whose planned answer stays below ROW_CAP."""
    k = draw(st.integers(2, 4))
    p0 = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    w = draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k))
    p1 = [a * math.exp(x) for a, x in zip(p0, w)]
    p0, p1 = ([x / sum(p) for x in p] for p in (p0, p1))
    alpha = draw(st.sampled_from([1e-3, 0.01, 0.05, 0.2]))
    power = draw(st.floats(alpha + 0.01, 0.99))
    # the answer lies above the floor; cap the floor so that the search stays exact
    cap = {2: 2000, 3: 300}.get(k, 40)
    assume(binary_divergence(power, alpha) <= cap * divergence(p1, p0))
    return p0, p1, alpha, power


@settings(max_examples=40, deadline=None)
@given(design=floor_designs())
def test_every_exact_plan_lies_above_the_information_floor(design):
    p0, p1, alpha, power = design
    h0, h1 = (CategoryModel(("a", "b", "c", "d")[:len(p)], p) for p in (p0, p1))
    n = min_sample_size(h0, h1, alpha, power)
    assume(stats._size(n, p0, p1) <= ROW_CAP)
    assert_above_the_information_floor(n, p0, p1, alpha, power)
