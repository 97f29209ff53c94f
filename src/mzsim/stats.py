"""Multinomial hypothesis discrimination on detector counts.

The null tables produced by a perfectly tuned interferometer contain
structural zeros (nothing reaches counter b under POS), which puts the
null hypothesis on the boundary of the parameter space.  Chi-square
asymptotics are invalid there, so p-values and power come from the
multinomial itself: exactly, by enumerating every outcome, while the
support has at most ``EXACT_SUPPORT_CAP`` outcomes (Resin 2023,
*J. Comput. Graph. Stat.* 32(2)), and by seeded parametric simulation
above it.  Sample-size planning for the background-free design reduces
to a closed form: the first count in a null-impossible category
settles the question by itself, at any significance level.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import predict
from .core import EXPERIMENTS, CountTable, Hypothesis
from .errors import (
    DegenerateComparisonError,
    DomainError,
    ResourceLimitError,
    StructureError,
)

__all__ = [
    "CategoryModel",
    "DiscriminationReport",
    "build_model",
    "log_likelihood",
    "discriminate",
    "min_sample_size",
]

MODEL_DISTINCTION_TOL = 1e-12
PROBABILITY_SUM_TOL = 1e-12
# statistics within this relative distance of each other count as tied
TIE_REL_TOL = 1e-9
# largest multinomial support enumerated exactly; its int64 matrix takes
# 8 MB with 4 categories (n <= 114), or n <= 722 with 3
EXACT_SUPPORT_CAP = 2**18


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
        return {
            "log_likelihood_ratio": self.log_likelihood_ratio,
            "p_value_h0": self.p_value_h0,
            "decision": self.decision,
        }


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
    """
    kind = EXPERIMENTS.get(experiment)
    if kind is None:
        raise StructureError(
            f"experiment must be one of {sorted(EXPERIMENTS)}, got {experiment!r}"
        )
    if not isinstance(params, kind.params):
        raise StructureError(
            f"{experiment} needs {kind.params.__name__}, got {type(params).__name__}"
        )
    predictor = getattr(predict, f"predict_{experiment}")
    if params.n0 < 1:
        raise DomainError("n0 must be >= 1 to derive category probabilities")

    if visibility is not None:
        if hypothesis is not None:
            raise StructureError("pass either hypothesis or visibility, not both")
        if not 0.0 <= visibility <= 1.0:
            raise DomainError(f"visibility must be in [0, 1], got {visibility}")
        pos = np.array(predictor(params, Hypothesis.POS).values()) / params.n0
        ccqi = np.array(predictor(params, Hypothesis.CCQI).values()) / params.n0
        probs = visibility * pos + (1.0 - visibility) * ccqi
    else:
        if hypothesis is None:
            raise StructureError("a hypothesis is required when visibility is not given")
        probs = np.array(predictor(params, hypothesis).values()) / params.n0

    if background is not None:
        try:
            b = np.broadcast_to(np.asarray(background, dtype=float), probs.shape)
        except ValueError:
            raise StructureError(
                f"background must be a scalar or {probs.shape[0]} values"
            ) from None
        if np.any(b < 0):
            raise DomainError("background probabilities must be >= 0")
        if b.sum() > 1.0:
            raise DomainError("background probabilities must sum to at most 1")
        probs = (probs + b) / (1.0 + b.sum())

    return CategoryModel(kind.labels, probs)


def _count_vector(counts, model: CategoryModel) -> np.ndarray:
    if isinstance(counts, CountTable):
        if counts.labels != model.labels:
            raise StructureError(
                f"count categories {counts.labels} do not match model {model.labels}"
            )
        values = counts.values()
    else:
        values = tuple(counts)
        if len(values) != len(model.labels):
            raise StructureError(
                f"expected {len(model.labels)} counts, got {len(values)}"
            )
    arr = np.asarray(values, dtype=float)
    if np.any(arr < 0) or np.any(arr != np.floor(arr)):
        raise DomainError(f"counts must be non-negative integers, got {values}")
    return arr.astype(np.int64)


def log_likelihood(counts, model: CategoryModel) -> float:
    """Multinomial log likelihood up to the count-only combinatorial constant.

    ``sum_k n_k * ln(p_k)``; the constant is omitted consistently so
    likelihood ratios are exact.  Observing a category the model deems
    impossible returns ``-inf``.
    """
    n = _count_vector(counts, model)
    p = model.probabilities
    if np.any((p == 0.0) & (n > 0)):
        return float("-inf")
    mask = n > 0
    return float(np.sum(n[mask] * np.log(p[mask])))


def _check_comparable(model_h0: CategoryModel, model_h1: CategoryModel) -> None:
    if model_h0.labels != model_h1.labels:
        raise StructureError("models must share one category layout")
    gap = np.max(np.abs(model_h0.probabilities - model_h1.probabilities))
    if gap <= MODEL_DISTINCTION_TOL:
        raise DegenerateComparisonError(
            "models are identical within tolerance; nothing to discriminate"
        )


def _llr_weights(p0: np.ndarray, p1: np.ndarray):
    """Per-category LLR weights plus masks for the one-sided-impossible cells."""
    finite = (p0 > 0) & (p1 > 0)
    w = np.zeros(p0.shape)
    w[finite] = np.log(p1[finite]) - np.log(p0[finite])
    return w, (p1 == 0) & (p0 > 0), (p0 == 0) & (p1 > 0)


def _llr_values(draws: np.ndarray, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    w, h1_zero, h0_zero = _llr_weights(p0, p1)
    vals = draws @ w
    if h1_zero.any():
        vals = np.where(draws[:, h1_zero].sum(axis=1) > 0, -np.inf, vals)
    if h0_zero.any():
        vals = np.where(draws[:, h0_zero].sum(axis=1) > 0, np.inf, vals)
    return vals


def _tie_floor(llr):
    """Lowest statistic that ties or beats ``llr``; ``llr`` must not be ``+inf``."""
    return llr - TIE_REL_TOL * np.maximum(1.0, np.abs(llr))


def _is_enumerable(n: int, ncat: int) -> bool:
    return math.comb(n + ncat - 1, ncat - 1) <= EXACT_SUPPORT_CAP


def _support(n: int, ncat: int) -> np.ndarray:
    """Every vector of ``ncat`` non-negative integers summing to ``n``, one per row."""
    columns = []
    left = np.array([n], dtype=np.int64)
    for _ in range(ncat - 1):
        # each prefix branches into left + 1 prefixes, one per value of the next cell
        width = left + 1
        value = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
        columns = [np.repeat(c, width) for c in columns] + [value]
        left = np.repeat(left, width) - value
    return np.column_stack(columns + [left])


class _ExactTest:
    """Every outcome of ``n`` draws with its LLR and its mass under h0 and h1."""

    def __init__(self, n: int, p0: np.ndarray, p1: np.ndarray):
        outcomes = _support(n, p0.shape[0])
        log_fact = np.array([math.lgamma(i + 1) for i in range(n + 1)])
        log_coef = log_fact[n] - sum(log_fact[column] for column in outcomes.T)
        self.llr = _llr_values(outcomes, p0, p1)
        self.mass0 = self._pmf(outcomes, log_coef, p0)
        self.mass1 = self._pmf(outcomes, log_coef, p1)

    @staticmethod
    def _pmf(outcomes: np.ndarray, log_coef: np.ndarray, p: np.ndarray) -> np.ndarray:
        live = p > 0
        log_p = np.log(p, out=np.zeros(p.shape), where=live)
        with np.errstate(under="ignore"):
            pmf = np.exp(log_coef + outcomes @ log_p)
        pmf[outcomes[:, ~live].any(axis=1)] = 0.0
        return pmf

    def p_value(self, observed: float) -> float:
        """Null mass of the outcomes at least as extreme as ``observed``."""
        tail = self.mass0[self.llr >= _tie_floor(observed)].sum()
        return min(1.0, float(tail))

    def power(self, alpha: float) -> float:
        """h1 mass of the outcomes whose p-value is at most ``alpha``."""
        order = np.argsort(self.llr)
        ordered, mass1 = self.llr[order], self.mass1[order]
        tail = np.append(np.cumsum(self.mass0[order][::-1])[::-1], 0.0)
        # an outcome with h1 mass has a finite LLR when no null-impossible
        # category is open to h1, the only case the power search sees
        reach = mass1 > 0
        p_values = tail[np.searchsorted(ordered, _tie_floor(ordered[reach]))]
        return float(mass1[reach][p_values <= alpha].sum())


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
    extreme, ties within ``TIE_REL_TOL`` included.  While the support
    has at most ``EXACT_SUPPORT_CAP`` outcomes that probability is
    summed over all of them, and ``replicates`` and ``seed`` go unused;
    above the cap it is the fraction of ``replicates`` seeded
    multinomial draws under the null, with the usual add-one
    correction, so it cannot fall below ``1 / (replicates + 1)``.
    """
    _check_comparable(model_h0, model_h1)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    if replicates < 1:
        raise DomainError(f"replicates must be >= 1, got {replicates}")
    n = _count_vector(counts, model_h0)
    ll0 = log_likelihood(n, model_h0)
    ll1 = log_likelihood(n, model_h1)

    if math.isinf(ll0) and math.isinf(ll1):
        raise DomainError("observed counts are impossible under both models")
    if math.isinf(ll0):
        return DiscriminationReport(float("inf"), 0.0, "favor_H1")
    if math.isinf(ll1):
        return DiscriminationReport(float("-inf"), 1.0, "favor_H0")

    llr = ll1 - ll0
    p0, p1 = model_h0.probabilities, model_h1.probabilities
    # the null statistics' arithmetic can differ from ll1 - ll0 in the last
    # bits, so the observed statistic goes through it too before ties are counted
    observed = float(_llr_values(n[np.newaxis, :], p0, p1)[0])
    total = int(n.sum())
    if _is_enumerable(total, n.shape[0]):
        p_value = _ExactTest(total, p0, p1).p_value(observed)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
        null_llr = _llr_values(rng.multinomial(total, p0, size=replicates), p0, p1)
        count_ge = int(np.count_nonzero(null_llr >= _tie_floor(observed)))
        p_value = (1 + count_ge) / (1 + replicates)

    if p_value <= alpha:
        decision = "favor_H1"
    elif llr <= 0:
        decision = "favor_H0"
    else:
        decision = "inconclusive"
    return DiscriminationReport(llr, p_value, decision)


def _zero_cell_hit_probability(model_h0: CategoryModel, model_h1: CategoryModel) -> float:
    """Probability under h1 of landing in a category impossible under h0."""
    return float(model_h1.probabilities[model_h0.probabilities == 0.0].sum())


def _closed_form_min_n(p_hit: float, power: float, n_cap: int) -> int:
    if p_hit >= 1.0:
        return 1
    n = max(1, math.ceil(math.log1p(-power) / math.log1p(-p_hit)))
    if n > n_cap:
        raise ResourceLimitError(
            f"required sample size {n} exceeds the cap of {n_cap}"
        )
    return n


def _geometric_min_n(
    p_hit: float, power: float, replicates: int, seed: int, n_cap: int
) -> int:
    """Simulation twin of the closed form.

    The first particle to land in a null-impossible category arrives at
    a Geometric(p_hit) position, so the smallest run length whose
    empirical hit rate reaches ``power`` is the corresponding order
    statistic of a geometric sample.
    """
    if p_hit >= 1.0:
        return 1
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    g = rng.geometric(p_hit, size=replicates)
    n = int(np.quantile(g, power, method="inverted_cdf"))
    if n > n_cap:
        raise ResourceLimitError(
            f"required sample size {n} exceeds the cap of {n_cap}"
        )
    return n


def _rejection_rate(
    n: int,
    model_h0: CategoryModel,
    model_h1: CategoryModel,
    alpha: float,
    replicates: int,
    seed: int,
) -> float:
    """Power at sample size ``n``: exact below the support cap, else a
    Monte Carlo estimate via a shared null reference sample."""
    p0, p1 = model_h0.probabilities, model_h1.probabilities
    if _is_enumerable(n, p0.shape[0]):
        return _ExactTest(n, p0, p1).power(alpha)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n,)))
    null_llr = np.sort(_llr_values(rng.multinomial(n, p0, size=replicates), p0, p1))
    alt_llr = _llr_values(rng.multinomial(n, p1, size=replicates), p0, p1)
    count_ge = replicates - np.searchsorted(null_llr, alt_llr, side="left")
    p_values = (1 + count_ge) / (1 + replicates)
    return float(np.mean(p_values <= alpha))


def _min_n_by_power_search(
    model_h0: CategoryModel,
    model_h1: CategoryModel,
    alpha: float,
    power: float,
    replicates: int,
    seed: int,
    n_cap: int,
) -> int:
    if alpha is None or not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    lo, hi = 0, 1
    while _rejection_rate(hi, model_h0, model_h1, alpha, replicates, seed) < power:
        lo = hi
        hi *= 2
        if hi > n_cap:
            raise ResourceLimitError(
                f"no sample size up to the cap of {n_cap} reaches power {power}"
            )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _rejection_rate(mid, model_h0, model_h1, alpha, replicates, seed) >= power:
            hi = mid
        else:
            lo = mid
    return hi


def min_sample_size(
    model_h0: CategoryModel,
    model_h1: CategoryModel,
    alpha: float | None,
    power: float,
    *,
    method: str = "auto",
    replicates: int = 10_000,
    seed: int = 0,
    n_cap: int = 10**9,
) -> int:
    """Smallest ``n0`` at which data drawn under h1 rejects h0 with ``power``.

    When the null has structural-zero categories that h1 populates, a
    single hit there rejects at any significance level, so the answer
    is the closed form ``ceil(ln(1 - power) / ln(1 - p_hit))`` and
    ``alpha`` is not consulted.  Without such categories a
    doubling-then-bisection search probes the power at the stated
    ``alpha``.  A probe whose support has at most ``EXACT_SUPPORT_CAP``
    outcomes computes it exactly, with no dependence on ``replicates``
    or ``seed``.  Above the cap a probe estimates it from
    ``replicates`` seeded draws per hypothesis; the smallest p-value it
    can resolve is ``1 / (replicates + 1)``, so ``alpha`` below that
    needs more replicates.

    ``method`` selects ``"auto"`` (closed form when available),
    ``"closed_form"`` (error when unavailable), or ``"simulation"``
    (Monte Carlo even for the zero-cell design, as a cross-check).
    """
    _check_comparable(model_h0, model_h1)
    if not 0.0 < power < 1.0:
        raise DomainError(f"power must be in (0, 1), got {power}")
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    if replicates < 1:
        raise DomainError(f"replicates must be >= 1, got {replicates}")
    if method not in ("auto", "closed_form", "simulation"):
        raise DomainError(f"unknown method {method!r}")

    p_hit = _zero_cell_hit_probability(model_h0, model_h1)
    if method == "closed_form":
        if p_hit == 0.0:
            raise DomainError(
                "closed form needs a category that is impossible under h0"
            )
        return _closed_form_min_n(p_hit, power, n_cap)
    if method == "auto":
        if p_hit > 0.0:
            return _closed_form_min_n(p_hit, power, n_cap)
        return _min_n_by_power_search(
            model_h0, model_h1, alpha, power, replicates, seed, n_cap
        )
    if p_hit > 0.0:
        return _geometric_min_n(p_hit, power, replicates, seed, n_cap)
    return _min_n_by_power_search(
        model_h0, model_h1, alpha, power, replicates, seed, n_cap
    )
