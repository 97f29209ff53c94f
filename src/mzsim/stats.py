"""Multinomial hypothesis discrimination on detector counts.

The null tables produced by a perfectly tuned interferometer contain
structural zeros (nothing reaches counter b under POS), which puts the
null hypothesis on the boundary of the parameter space.  Chi-square
asymptotics are invalid there, so p-values and power come from the
multinomial itself (Resin 2023, *J. Comput. Graph. Stat.* 32(2)):
exactly while a test's size is at most ``ROW_CAP``, and by seeded
parametric simulation above it.  Sample-size planning for the
background-free design reduces to a closed form: the first count in a
null-impossible category settles the question by itself, at any
significance level.

Cells with the same impossibility masks whose LLR weights lie within
``TIE_REL_TOL / n`` of each other are pooled first: the statistic sees
the counts only through their sum, a pooled multinomial is again
multinomial, and pooling moves no outcome's statistic by more than
``TIE_REL_TOL``.  Cells impossible under both models are dropped, as
no outcome with mass reaches them.  The exact engine,
:class:`mzsim._exact.RowTest`, then conditions on all pooled cells but
two, so a test of ``n`` draws over ``k`` cells possible under both
models sums ``C(n + k - 2, k - 2)`` rows, each a binomial tail; its
size is the rows times ``isqrt(n) + 1``, as a row's binomial spans
about ``sqrt(n)`` counts.  The module docstring of :mod:`mzsim._exact`
gives the details.

This module imports no numpy.  :class:`CategoryModel` keeps plain
floats, and numpy loads only on the first read of its
``probabilities`` array and in the seeded simulations: a test or probe
above ``ROW_CAP``, and ``method = "simulation"``.  The arithmetic
that turns a predicted table into category probabilities, the check
that two models differ, and the zero-cell closed form live in
:mod:`mzsim.predict`, which the CLI also calls before this module
loads.
"""

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from functools import cached_property

from . import _exact
from ._exact import ROW_CAP, TIE_REL_TOL  # the cap and tolerance stay readable here
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


@dataclass(frozen=True, eq=False, init=False)
class CategoryModel:
    """Per-category detection probabilities for one experiment setup.

    The probabilities are checked and kept as plain floats;
    ``probabilities`` gives them as a read-only float64 array, built on
    first access.
    """

    labels: tuple[str, ...]
    _p: tuple[float, ...]

    def __init__(self, labels, probabilities):
        labels = tuple(labels)
        try:
            p = tuple(map(float, probabilities))
        except TypeError:
            p = None
        if p is None or len(labels) != len(p):
            raise StructureError("labels and probabilities must have matching length")
        if not all(0.0 <= x < math.inf for x in p):
            raise DomainError("probabilities must be finite and >= 0")
        total = sum(p)
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise DomainError(
                f"probabilities must sum to 1 within {PROBABILITY_SUM_TOL:g}, got {total!r}"
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_p", p)

    @cached_property
    def probabilities(self):
        import numpy as np

        array = np.array(self._p, dtype=float)
        array.flags.writeable = False
        return array


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
    return _exact.log_likelihood(_exact.count_values(counts, model.labels), model._p)


def _check_comparable(model_h0: CategoryModel, model_h1: CategoryModel) -> None:
    if model_h0.labels != model_h1.labels:
        raise StructureError("models must share one category layout")
    _check_distinct(model_h0._p, model_h1._p)


def _sampled_statistics(draws, p0, p1):
    """LLR of each row of ``draws``; ``-inf`` or ``+inf`` where a count hits
    a cell impossible under h1 or h0."""
    import numpy as np

    w, h1_zero, h0_zero = (np.array(x) for x in _exact.llr_weights(p0, p1))
    vals = draws @ w
    if h1_zero.any():
        vals = np.where(draws[:, h1_zero].sum(axis=1) > 0, -np.inf, vals)
    if h0_zero.any():
        vals = np.where(draws[:, h0_zero].sum(axis=1) > 0, np.inf, vals)
    return vals


def _sampled_p_values(sorted_null, llr):
    """Add-one p-values of the statistics ``llr`` against a sorted null sample.

    Each counts the null statistics at or above its tie floor, so ties
    within ``TIE_REL_TOL`` count as at least as extreme.
    """
    import numpy as np

    floor = llr - TIE_REL_TOL * np.maximum(1.0, np.abs(llr))
    replicates = sorted_null.shape[0]
    count_ge = replicates - np.searchsorted(sorted_null, floor, side="left")
    return (1 + count_ge) / (1 + replicates)


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
    extreme, ties within ``TIE_REL_TOL`` included.  While the test's
    size is at most ``ROW_CAP`` that probability is summed exactly, and
    ``replicates`` and ``seed`` go unused; above the cap it is the
    fraction of ``replicates`` seeded multinomial draws under the null,
    with the usual add-one correction, so it cannot fall below
    ``1 / (replicates + 1)``.
    """
    _check_comparable(model_h0, model_h1)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    _exact.check_replicates(replicates)
    p0, p1 = model_h0._p, model_h1._p
    values = _exact.count_values(counts, model_h0.labels)
    ll0, ll1 = _exact.log_likelihood(values, p0), _exact.log_likelihood(values, p1)
    if math.isinf(ll0) and math.isinf(ll1):
        raise DomainError("observed counts are impossible under both models")
    if math.isinf(ll0):
        return DiscriminationReport(math.inf, 0.0, "favor_H1")
    if math.isinf(ll1):
        return DiscriminationReport(-math.inf, 1.0, "favor_H0")
    llr = ll1 - ll0
    n = sum(values)
    if _exact.size(n, p0, p1) <= ROW_CAP:
        test = _exact.RowTest(n, p0, p1)
        # the row sums can differ from ll1 - ll0 in the last bits, so the
        # observed statistic is summed as they sum it before ties are counted
        p_value = test.p_value(test.statistic(values))
    else:
        import numpy as np

        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
        null = np.sort(_sampled_statistics(rng.multinomial(n, p0, size=replicates), p0, p1))
        observed = _sampled_statistics(np.array([values], dtype=np.int64), p0, p1)
        p_value = float(_sampled_p_values(null, observed)[0])
    return DiscriminationReport(llr, p_value, _exact.decide(p_value, llr, alpha))


def _geometric_min_n(p_hit: float, power: float, replicates: int, seed: int) -> int:
    """Simulation twin of the closed form.

    The first particle to land in a null-impossible category arrives at
    a Geometric(p_hit) position, so the smallest run length whose
    empirical hit rate reaches ``power`` is the corresponding order
    statistic of a geometric sample.
    """
    import numpy as np

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
    binomials: dict | None = None,
) -> float:
    """Power at sample size ``n``: exact up to ``ROW_CAP``, else a Monte
    Carlo estimate via a shared null reference sample."""
    p0, p1 = model_h0._p, model_h1._p
    if _exact.size(n, p0, p1) <= ROW_CAP:
        return _exact.RowTest(n, p0, p1, binomials).power(alpha)
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n,)))
    null = np.sort(_sampled_statistics(rng.multinomial(n, p0, size=replicates), p0, p1))
    alt = _sampled_statistics(rng.multinomial(n, p1, size=replicates), p0, p1)
    return float(np.mean(_sampled_p_values(null, alt) <= alpha))


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
    may reach ``power`` too.  A probe of size at most ``ROW_CAP``
    computes the power exactly, with no dependence on ``replicates`` or
    ``seed``.  Above the cap a probe estimates it from ``replicates``
    seeded draws per hypothesis; the smallest p-value it can resolve is
    ``1 / (replicates + 1)``, so ``alpha`` below that needs more
    replicates.  An answer above ``MAX_SAMPLE_SIZE`` raises
    :class:`ResourceLimitError`.

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

    p_hit = _zero_cell_hit_probability(model_h0._p, model_h1._p, alpha, method)
    if p_hit == 0.0:
        # the probes share their binomial tables
        binomials = {}
        return _exact.power_search(
            lambda n: _rejection_rate(
                n, model_h0, model_h1, alpha, replicates, seed, binomials
            ),
            power,
        )
    if method == "simulation":
        return _zero_cell_min_n(
            p_hit, power, lambda p: _geometric_min_n(p, power, replicates, seed)
        )
    return _zero_cell_min_n(p_hit, power)
