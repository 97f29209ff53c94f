"""Multinomial hypothesis discrimination on detector counts.

The null tables produced by a perfectly tuned interferometer contain
structural zeros (nothing reaches counter b under POS), which puts the
null hypothesis on the boundary of the parameter space.  Chi-square
asymptotics are invalid there, so p-values and power come from the
multinomial itself: exactly, by enumerating every outcome, while the
pooled support has at most ``EXACT_SUPPORT_CAP`` outcomes (Resin 2023,
*J. Comput. Graph. Stat.* 32(2)), and by seeded parametric simulation
above it.  Sample-size planning for the background-free design reduces
to a closed form: the first count in a null-impossible category
settles the question by itself, at any significance level.

The enumeration never stores the outcomes.  Each cell ``k`` gets two
tables over its count ``c = 0..n``: the null log-pmf term
``c * log p0_k - lgamma(c + 1)`` and the LLR term ``c * w_k``, with
``w_k = log(p1_k / p0_k)``; a cell impossible under one model has a
``-inf`` or ``+inf`` LLR term for ``c > 0`` instead.  Branching one
cell at a time, every prefix carries the two running sums, so each
outcome ends with its null log mass and its statistic, and its h1 mass
is ``exp(log mass0 + LLR)`` (the likelihood-ratio identity).  Cells
with the same impossibility masks whose weights lie within
``TIE_REL_TOL / n`` of each other are pooled first: the statistic sees
the counts only through their sum, a pooled multinomial is again
multinomial, and pooling moves no outcome's statistic by more than
``TIE_REL_TOL``.  Cells impossible under both models are dropped, as
no outcome with mass reaches them.

:mod:`mzsim._exact` owns these rules on plain floats: the statistic,
the tie rule, the pooling, the tier that the pooled support picks for
each test and power probe, the decision and the power search.  It
enumerates supports of at most ``LIGHT_SUPPORT_CAP`` outcomes itself,
in pure Python, with the tables, branching order and float operations
of this module's engine, which takes the supports above that cap.

The arithmetic that turns a predicted table into category
probabilities, the check that two models differ, and the zero-cell
closed form live in :mod:`mzsim.predict` as pure-Python helpers, which
this module calls and the CLI calls without loading numpy.
"""

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from . import _exact
from ._exact import EXACT_SUPPORT_CAP, TIE_REL_TOL  # the caps and tolerance stay readable here
from ._exact import llr_weights as _llr_weights
from ._exact import pooled_cells as _pooled_cells
from .core import EXPERIMENTS, Hypothesis
from .errors import DomainError, StructureError
from .predict import (
    _category_probabilities,
    _check_distinct,
    _zero_cell_hit_probability,
    _zero_cell_min_n,
)

__all__ = [
    "CategoryModel",
    "DiscriminationReport",
    "build_model",
    "log_likelihood",
    "discriminate",
    "min_sample_size",
]

PROBABILITY_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CategoryModel:
    """Per-category detection probabilities for one experiment setup."""

    labels: tuple[str, ...]
    probabilities: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        p = np.array(self.probabilities, dtype=float)
        if p.ndim != 1 or len(labels) != p.shape[0]:
            raise StructureError("labels and probabilities must have matching length")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise DomainError("probabilities must be finite and >= 0")
        if abs(p.sum() - 1.0) > PROBABILITY_SUM_TOL:
            raise DomainError(
                f"probabilities must sum to 1 within {PROBABILITY_SUM_TOL:g}, "
                f"got {p.sum()!r}"
            )
        p.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probabilities", p)


@dataclass(frozen=True)
class DiscriminationReport:
    """Outcome of one likelihood-ratio comparison."""

    log_likelihood_ratio: float
    p_value_h0: float
    decision: str

    _DECISIONS = ("favor_H0", "favor_H1", "inconclusive")

    def __post_init__(self):
        if self.decision not in self._DECISIONS:
            raise DomainError(f"decision must be one of {self._DECISIONS}")
        if not (0.0 <= self.p_value_h0 <= 1.0):
            raise DomainError(f"p-value must be in [0, 1], got {self.p_value_h0}")

    def as_dict(self) -> dict:
        return asdict(self)


def build_model(
    experiment: str,
    params,
    hypothesis: Hypothesis | None = None,
    *,
    background: Sequence[float] | float | None = None,
    visibility: float | None = None,
) -> CategoryModel:
    """Category probabilities from a predicted count table.

    ``visibility`` replaces ``hypothesis`` with the imperfect-contrast
    mixture ``v * POS + (1 - v) * CCQI`` (pass one or the other, not
    both).  ``background`` adds per-category dark-count probability,
    with a total budget of at most 1, followed by renormalization.
    The arithmetic and its checks are :mod:`mzsim.predict`'s
    ``_category_probabilities``.
    """
    probs = _category_probabilities(
        experiment, params, hypothesis, background=background, visibility=visibility
    )
    return CategoryModel(EXPERIMENTS[experiment].labels, probs)


def log_likelihood(counts, model: CategoryModel) -> float:
    """Multinomial log likelihood up to the count-only combinatorial constant.

    ``sum_k n_k * ln(p_k)``; the constant is omitted consistently so
    likelihood ratios are exact.  Observing a category the model deems
    impossible returns ``-inf``.
    """
    values = _exact.count_values(counts, model.labels)
    return _exact.log_likelihood(values, model.probabilities.tolist())


def _check_comparable(model_h0: CategoryModel, model_h1: CategoryModel) -> None:
    if model_h0.labels != model_h1.labels:
        raise StructureError("models must share one category layout")
    _check_distinct(model_h0.probabilities.tolist(), model_h1.probabilities.tolist())


def _llr_values(draws: np.ndarray, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    w, h1_zero, h0_zero = (np.array(x) for x in _llr_weights(p0.tolist(), p1.tolist()))
    vals = draws @ w
    if h1_zero.any():
        vals = np.where(draws[:, h1_zero].sum(axis=1) > 0, -np.inf, vals)
    if h0_zero.any():
        vals = np.where(draws[:, h0_zero].sum(axis=1) > 0, np.inf, vals)
    return vals


def _tie_floor(llr):
    """``_exact.tie_floor`` over an array of statistics."""
    return llr - TIE_REL_TOL * np.maximum(1.0, np.abs(llr))


def _sampled_p_values(sorted_null: np.ndarray, llr):
    """Add-one p-values of ``llr`` against a sorted sample of null statistics.

    Each counts the null statistics at or above its tie floor, so ties
    within ``TIE_REL_TOL`` count as at least as extreme.
    """
    replicates = sorted_null.shape[0]
    count_ge = replicates - np.searchsorted(sorted_null, _tie_floor(llr), side="left")
    return (1 + count_ge) / (1 + replicates)


class _ExactTest:
    """Every outcome of ``n`` draws, over pooled cells, with its LLR and null mass.

    Only the per-outcome null log mass and statistic are kept, built
    from per-cell tables by prefix branching; the h1 mass comes from the
    likelihood-ratio identity where ``power`` needs it.
    """

    def __init__(self, n: int, p0: np.ndarray, p1: np.ndarray):
        self.groups = _pooled_cells(n, p0, p1)
        q0 = _exact.pooled(p0.tolist(), self.groups)
        q1 = _exact.pooled(p1.tolist(), self.groups)
        w, h1_zero, h0_zero = _llr_weights(q0, q1)
        count = np.arange(n + 1)
        log_fact = np.array([math.lgamma(c + 1) for c in range(n + 1)])
        # per pooled cell, over its count: the null log-pmf term and the LLR term
        tables0, self._llr_tables = [], []
        for q, weight, zero1, zero0 in zip(q0, w, h1_zero, h0_zero):
            if q > 0:
                tables0.append(count * math.log(q) - log_fact)
            else:
                tables0.append(np.where(count > 0, -np.inf, -log_fact))
            if zero1 or zero0:
                self._llr_tables.append(np.where(count > 0, -np.inf if zero1 else np.inf, 0.0))
            else:
                self._llr_tables.append(count * weight)

        # each prefix branches into left + 1 prefixes, one per count of the next cell
        log_mass0, llr = np.array([log_fact[n]]), np.zeros(1)
        left = np.array([n])
        # an outcome impossible under both models sums -inf and +inf into NaN;
        # it has no mass under either, so no p-value or power reads it
        with np.errstate(invalid="ignore"):
            for table0, table in zip(tables0[:-1], self._llr_tables[:-1]):
                width = left + 1
                value = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
                log_mass0 = np.repeat(log_mass0, width)
                log_mass0 += table0[value]
                llr = np.repeat(llr, width)
                llr += table[value]
                left = np.repeat(left, width)
                left -= value
                del value  # not held through the last cell's pass, which sets the peak
            log_mass0 += tables0[-1][left]
            llr += self._llr_tables[-1][left]
        self.log_mass0, self.llr = log_mass0, llr
        with np.errstate(under="ignore"):
            self.mass0 = np.exp(log_mass0)

    def statistic(self, counts: np.ndarray) -> float:
        """LLR of raw ``counts``, pooled and summed as the enumeration sums it."""
        total = 0.0
        for group, table in zip(self.groups, self._llr_tables):
            total += table[int(counts[group].sum())]
        return float(total)

    def p_value(self, observed: float) -> float:
        """Null mass of the outcomes at least as extreme as ``observed``."""
        tail = self.mass0[self.llr >= _tie_floor(observed)].sum()
        return min(1.0, float(tail))

    def power(self, alpha: float) -> float:
        """h1 mass of the outcomes whose p-value is at most ``alpha``.

        The h1 mass is ``exp(log mass0 + LLR)``, which holds wherever h0
        has mass: the power search runs only when no cell impossible
        under h0 is open to h1.
        """
        order = np.argsort(self.llr)
        ordered = self.llr[order]
        # upper[j]: null mass of the j + 1 largest statistics
        upper = self.mass0[order[::-1]]
        np.cumsum(upper, out=upper)
        last = ordered.shape[0] - 1
        # p-values fall as the statistic rises, so the rejected outcomes
        # are the top of the order, from the first one whose p-value is <= alpha
        lo, hi = 0, last + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if upper[last - np.searchsorted(ordered, _tie_floor(ordered[mid]))] <= alpha:
                hi = mid
            else:
                lo = mid + 1
        del ordered, upper  # freed before the h1 pass over the rejected outcomes
        rejected = order[lo:]
        log_mass1 = self.log_mass0[rejected]
        log_mass1 += self.llr[rejected]
        with np.errstate(under="ignore"):
            return float(np.exp(log_mass1, out=log_mass1).sum())


def discriminate(
    counts,
    model_h0: CategoryModel,
    model_h1: CategoryModel,
    alpha: float,
    *,
    replicates: int = 100_000,
    seed: int = 0,
) -> DiscriminationReport:
    """Exact likelihood-ratio test of ``model_h0`` against ``model_h1``.

    The statistic is ``log L(counts | h1) - log L(counts | h0)``.  When
    the counts hit a category that is impossible under the null, the
    null is rejected outright with a p-value of exactly 0.  Otherwise
    the p-value is the null probability of a statistic at least as
    extreme, ties within ``TIE_REL_TOL`` included.  While the pooled
    support has at most ``EXACT_SUPPORT_CAP`` outcomes that probability
    is summed over all of them, and ``replicates`` and ``seed`` go
    unused; above the cap it is the fraction of ``replicates`` seeded
    multinomial draws under the null, with the usual add-one
    correction, so it cannot fall below ``1 / (replicates + 1)``.
    """
    _check_comparable(model_h0, model_h1)
    p0, p1 = model_h0.probabilities, model_h1.probabilities

    def heavy(values, engine):
        n = np.array(values, dtype=np.int64)
        total = int(n.sum())
        if engine == "exact":
            exact = _ExactTest(total, p0, p1)
            return exact.p_value(exact.statistic(n))
        observed = float(_llr_values(n[np.newaxis, :], p0, p1)[0])
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
        null_llr = np.sort(_llr_values(rng.multinomial(total, p0, size=replicates), p0, p1))
        return float(_sampled_p_values(null_llr, observed))

    result = _exact.discriminate(
        counts, model_h0.labels, p0.tolist(), p1.tolist(), alpha, replicates, heavy
    )
    return DiscriminationReport(*result)


def _geometric_min_n(p_hit: float, power: float, replicates: int, seed: int) -> int:
    """Simulation twin of the closed form.

    The first particle to land in a null-impossible category arrives at
    a Geometric(p_hit) position, so the smallest run length whose
    empirical hit rate reaches ``power`` is the corresponding order
    statistic of a geometric sample.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    g = rng.geometric(p_hit, size=replicates)
    return int(np.quantile(g, power, method="inverted_cdf"))


def _rejection_rate(
    n: int,
    model_h0: CategoryModel,
    model_h1: CategoryModel,
    alpha: float,
    replicates: int,
    seed: int,
) -> float:
    """Power at sample size ``n``: exact up to the support cap, else a
    Monte Carlo estimate via a shared null reference sample."""
    p0, p1 = model_h0.probabilities, model_h1.probabilities
    engine = _exact.tier(n, p0.tolist(), p1.tolist())
    if engine == "light":
        return _exact.power(n, p0.tolist(), p1.tolist(), alpha)
    if engine == "exact":
        return _ExactTest(n, p0, p1).power(alpha)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n,)))
    null_llr = np.sort(_llr_values(rng.multinomial(n, p0, size=replicates), p0, p1))
    alt_llr = _llr_values(rng.multinomial(n, p1, size=replicates), p0, p1)
    return float(np.mean(_sampled_p_values(null_llr, alt_llr) <= alpha))


def min_sample_size(
    model_h0: CategoryModel,
    model_h1: CategoryModel,
    alpha: float | None,
    power: float,
    *,
    method: str = "auto",
    replicates: int = 10_000,
    seed: int = 0,
) -> int:
    """An ``n0`` at which data drawn under h1 rejects h0 with ``power``.

    When the null has structural-zero categories that h1 populates, a
    single hit there rejects at any significance level, so the answer
    is the closed form ``ceil(ln(1 - power) / ln(1 - p_hit))``, the
    smallest such ``n0``, and ``alpha`` is not consulted.  Without such
    categories a doubling-then-bisection search probes the power at the
    stated ``alpha`` and returns an ``n0`` whose power reaches ``power``
    while that of ``n0 - 1`` falls short.  Exact power saw-tooths in
    ``n0``, so this crossing need not be the first: a smaller ``n0``
    may reach ``power`` too.  A probe whose pooled support has at most
    ``EXACT_SUPPORT_CAP`` outcomes computes the power exactly, with no
    dependence on ``replicates`` or ``seed``.  Above the cap a probe
    estimates it from ``replicates`` seeded draws per hypothesis; the
    smallest p-value it can resolve is ``1 / (replicates + 1)``, so
    ``alpha`` below that needs more replicates.  An answer above
    ``MAX_SAMPLE_SIZE`` raises :class:`ResourceLimitError`.

    ``method`` selects ``"auto"`` (closed form when available),
    ``"closed_form"`` (error when unavailable), or ``"simulation"``
    (Monte Carlo even for the zero-cell design, as a cross-check).

    The zero-cell rules (the hit probability, the errors for a design
    without a null-impossible category, the answer 1 at ``p_hit >= 1``,
    the closed form and the ``MAX_SAMPLE_SIZE`` cap) are
    :mod:`mzsim.predict`'s ``_zero_cell_hit_probability`` and
    ``_zero_cell_min_n``.
    """
    _check_comparable(model_h0, model_h1)
    if not 0.0 < power < 1.0:
        raise DomainError(f"power must be in (0, 1), got {power}")
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    _exact.check_replicates(replicates)
    if method not in ("auto", "closed_form", "simulation"):
        raise DomainError(f"unknown method {method!r}")

    p_hit = _zero_cell_hit_probability(
        model_h0.probabilities.tolist(), model_h1.probabilities.tolist(), alpha, method
    )
    if p_hit == 0.0:
        return _exact.power_search(
            lambda n: _rejection_rate(n, model_h0, model_h1, alpha, replicates, seed), power
        )
    if method == "simulation":
        return _zero_cell_min_n(
            p_hit, power, lambda p: _geometric_min_n(p, power, replicates, seed)
        )
    return _zero_cell_min_n(p_hit, power)
