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
no outcome with mass reaches them.

The exact engine, :class:`RowTest`, lists no outcome.  A row fixes
the counts of every pooled cell possible under both models but two:
the cells of the largest and the smallest weight, ``u`` and ``v``.
They share the ``m`` draws the row leaves, and the count ``x`` of
``u`` is Binomial(m, r) under either model, ``r`` being ``u``'s share
of the pair's probability.  The statistic
``(a + (m - x) * w_v) + x * w_u`` rises with ``x``, so the outcomes of
a row at or above a threshold are those at or above one cut, and their
mass is the row's mass times a binomial tail.  A p-value sums that
over the rows under h0; power sums it under h1 at the critical
statistic.  ``n`` draws over ``k`` such cells make
``C(n + k - 2, k - 2)`` rows, and a test's size is its rows times
``isqrt(n) + 1``, as a row's binomial spans about ``sqrt(n)`` counts.

The cut comes from a division, so the statistic itself decides it: the
left-to-right float sum of the per-cell terms ``count * weight``, in
the engine's cell order, is evaluated around the cut, and
:meth:`RowTest.statistic` sums an observed table the same way.  A
cell impossible under one model puts every count in it at ``-inf`` or
``+inf``; those outcomes have no null mass or no finite statistic, so
the rows leave them out.  A binomial table steps its pmf out from the
mode by the ratio of neighbouring terms while it stays at least
``2**-64`` of the mode's, and is scaled to sum to 1; a sum starts from
the rows whose mass is at least ``2**-64`` of the largest.  What lies
outside is bounded, and summed as well wherever the bound could move
the answer by more than about ``2**-52`` of it.

This module imports no numpy, and no array: the binomial tables are
lists.  :class:`CategoryModel` keeps plain
floats, and numpy loads only on the first read of its
``probabilities`` array and in the seeded simulations: a test or probe
above ``ROW_CAP``, and ``method = "simulation"``.  The category
probabilities and the zero-cell closed form are computed on those
floats; their results are bitwise the ones numpy's elementwise
arithmetic gives, and their sums are left folds, the order in which
numpy sums vectors of fewer than eight values.
"""

import math
import numbers
from bisect import bisect_left
from collections.abc import Sequence
from itertools import accumulate, compress

from . import predict
from .core import (
    EXPERIMENTS,
    CountTable,
    Hypothesis,
    Method,
    SimConfig,
    _check_open_unit,
    _check_replicates,
    _check_unit_interval,
    _Record,
)
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

PROBABILITY_SUM_TOL = 1e-12
# two models whose probabilities all lie within this distance are identical
MODEL_DISTINCTION_TOL = 1e-12

# statistics within this relative distance of each other count as tied
TIE_REL_TOL = 1e-9
# largest test answered exactly, in rows times isqrt(n) + 1: a row of m
# draws sums a binomial window of about 19 * sqrt(m / 4) counts, so this
# bounds the work rather than the rows alone.  It covers every pooled
# support of at most 2**18 outcomes, the old enumeration's cap, and keeps
# three pooled cells exact up to n = 10,279 and four up to n = 330
ROW_CAP = 2**20
# largest sample size the power search probes or min_sample_size reports
MAX_SAMPLE_SIZE = 10**9
# a sum starts from the rows whose mass is at least 2**-64 of the largest
_WINDOW_LOG = 64 * math.log(2.0)


class CategoryModel(_Record):
    """Per-category detection probabilities for one experiment setup, kept as floats."""

    labels: tuple[str, ...]
    _p: tuple
    _views = {"probabilities": ("_p", float)}

    def __post_init__(self):
        try:
            p = tuple(map(float, self._p))
        except TypeError:
            p = None
        if p is None or len(self.labels) != len(p):
            raise StructureError("labels and probabilities must have matching length")
        if not all(0.0 <= x < math.inf for x in p):
            raise DomainError("probabilities must be finite and >= 0")
        total = sum(p)
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise DomainError(
                f"probabilities must sum to 1 within {PROBABILITY_SUM_TOL:g}, got {total!r}"
            )
        object.__setattr__(self, "_p", p)


class DiscriminationReport(_Record):
    """Outcome of one likelihood-ratio comparison."""

    log_likelihood_ratio: numbers.Real  # +-inf where a category is impossible under one model
    p_value_h0: float
    decision: str

    _DECISIONS = ("favor_H0", "favor_H1", "inconclusive")

    def __post_init__(self):
        if self.decision not in self._DECISIONS:
            raise DomainError(f"decision must be one of {self._DECISIONS}")
        if not (0.0 <= self.p_value_h0 <= 1.0):
            raise DomainError(f"p-value must be in [0, 1], got {self.p_value_h0}")

    def as_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))


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
    both).  ``background`` adds per-category dark-count probability, a
    finite scalar or one value per category, with a total budget of at
    most 1, followed by renormalization.
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
    n0 = params.n0
    if n0 < 1:
        raise DomainError("n0 must be >= 1 to derive category probabilities")

    if visibility is not None:
        if hypothesis is not None:
            raise StructureError("pass either hypothesis or visibility, not both")
        _check_unit_interval("visibility", visibility)
        pos = predictor(params, Hypothesis.POS).values()
        ccqi = predictor(params, Hypothesis.CCQI).values()
        probs = [
            visibility * (a / n0) + (1.0 - visibility) * (b / n0)
            for a, b in zip(pos, ccqi)
        ]
    else:
        if hypothesis is None:
            raise StructureError("a hypothesis is required when visibility is not given")
        probs = [v / n0 for v in predictor(params, hypothesis).values()]

    if background is not None:
        b = _background(background, len(probs))
        if any(x < 0 for x in b):
            raise DomainError("background probabilities must be >= 0")
        budget = 0.0
        for x in b:
            budget += x
        if budget > 1.0:
            raise DomainError("background probabilities must sum to at most 1")
        scale = 1.0 + budget
        probs = [(p + x) / scale for p, x in zip(probs, b)]
    return CategoryModel(kind.labels, probs)


def _background(background, ncat: int) -> list[float]:
    """``background`` as ``ncat`` finite floats: a scalar, or 1 or ``ncat`` values."""
    given = [background] if isinstance(background, numbers.Real) else background
    try:
        given = list(given)
        values = [float(x) for x in given]
    except (TypeError, ValueError):
        values = []
    if len(values) == 1:
        values *= ncat
    if len(values) != ncat:
        raise StructureError(f"background must be a scalar or {ncat} values")
    if any(isinstance(x, bool) for x in given) or not all(
        -math.inf < x < math.inf for x in values
    ):
        raise DomainError(f"background must be finite numbers, got {background!r}")
    return values


def log_likelihood(counts, model: CategoryModel) -> float:
    """Multinomial log likelihood up to the count-only combinatorial constant.

    ``sum_k n_k * ln(p_k)``; the constant is omitted consistently so
    likelihood ratios are exact.  Observing a category the model deems
    impossible returns ``-inf``.
    """
    return _log_likelihood(_count_values(counts, model.labels), model._p)


def _log_likelihood(values, p) -> float:
    total = 0.0
    for count, q in zip(values, p):
        if count:
            if q == 0.0:
                return -math.inf
            total += count * math.log(q)
    return total


def _count_values(counts, labels) -> tuple[int, ...]:
    """``counts`` as ints, one per label, or the refusal of :func:`discriminate`."""
    if isinstance(counts, CountTable):
        if counts.labels != labels:
            raise StructureError(
                f"count categories {counts.labels} do not match model {labels}"
            )
        values = counts.values()
    else:
        values = tuple(counts)
        if len(values) != len(labels):
            raise StructureError(f"expected {len(labels)} counts, got {len(values)}")
    # the seeded simulation above ROW_CAP holds the counts as int64
    if not all(map(_is_count, values)) or sum(map(int, values)) >= 2**63:
        raise DomainError(
            f"counts must be non-negative integers summing to less than 2**63, "
            f"got {values}"
        )
    return tuple(int(v) for v in values)


def _is_count(value) -> bool:
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and 0 <= value < 2**63 and value == int(value))


def _check_comparable(model_h0: CategoryModel, model_h1: CategoryModel) -> None:
    if model_h0.labels != model_h1.labels:
        raise StructureError("models must share one category layout")
    if max(abs(a - b) for a, b in zip(model_h0._p, model_h1._p)) <= MODEL_DISTINCTION_TOL:
        raise DegenerateComparisonError(
            "models are identical within tolerance; nothing to discriminate"
        )


def _check_sampling(replicates: int, seed: int) -> None:
    """Refuse what the seeded simulation above ``ROW_CAP`` could not take, at any n."""
    _check_replicates(replicates)
    SimConfig(seed=seed)  # a Monte Carlo run's seed range, [0, 2**64)


def _tie_floor(llr: float) -> float:
    """Lowest statistic that ties or beats ``llr``; ``llr`` must be finite."""
    return llr - TIE_REL_TOL * max(1.0, abs(llr))


def _llr_weights(p0, p1):
    """Per-category LLR weights plus masks for the one-sided-impossible cells."""
    pairs = list(zip(p0, p1))
    w = [math.log(b) - math.log(a) if a > 0 and b > 0 else 0.0 for a, b in pairs]
    return w, [b == 0 < a for a, b in pairs], [a == 0 < b for a, b in pairs]


def _pooled_cells(n: int, p0, p1) -> list[list[int]]:
    """Cells whose LLR weights tie within ``TIE_REL_TOL / n``, as groups of indices.

    A group shares one pair of impossibility masks, and its weights span
    at most ``TIE_REL_TOL / n``, so pooling it moves no statistic of
    ``n`` draws by more than ``TIE_REL_TOL``, up to rounding.  Cells
    impossible under both models join no group.
    """
    w, h1_zero, h0_zero = _llr_weights(p0, p1)
    live = [k for k in range(len(w)) if p0[k] > 0 or p1[k] > 0]
    groups = []
    for k in sorted(live, key=lambda k: (h1_zero[k], h0_zero[k], w[k])):
        head = groups[-1][0] if groups else None
        if (
            head is not None
            and (h1_zero[head], h0_zero[head]) == (h1_zero[k], h0_zero[k])
            and n * abs(w[k] - w[head]) <= TIE_REL_TOL
        ):
            groups[-1].append(k)
        else:
            groups.append([k])
    return sorted(sorted(group) for group in groups)


def _pooled(p, groups) -> list[float]:
    """Each group's probability, summed left to right."""
    sums = []
    for group in groups:
        total = 0.0
        for k in group:
            total += p[k]
        sums.append(total)
    return sums


def _size(n: int, p0, p1, groups=None) -> int:
    """Size of ``RowTest(n, p0, p1)``, its rows times ``isqrt(n) + 1``.

    The rows are the outcomes of all its cells but two.  ``groups``,
    if given, are the pooled cells, ``_pooled_cells(n, p0, p1)``.
    """
    groups = _pooled_cells(n, p0, p1) if groups is None else groups
    finite = sum(a > 0 and b > 0 for a, b in zip(_pooled(p0, groups), _pooled(p1, groups)))
    outer = max(finite - 2, 0)
    return math.comb(n + outer, outer) * (math.isqrt(n) + 1)


class _Binomial:
    """Tails of Binomial(m, r), one table per ``m``, built on first use.

    A table steps out from the mode, weight 1, by ``(m - x) / (x + 1) *
    r / (1 - r)`` up and its inverse down while the terms stay at least
    ``2**-64``, and is scaled to sum to 1, so a tail's rounding grows
    with its steps from the mode, not with ``m``.  Below the window a
    tail is the whole table; above it :meth:`total` bounds the tail by
    the table's last one and, where the bound could move the total, sums
    it term by term, stepping on from the first term past the window.
    """

    def __init__(self, r: float):
        self.r = r
        self._odds = r / (1.0 - r) if r < 1.0 else math.inf
        # log r and log(1 - r); r is positive, as the share of a cell possible under both
        self._logs = (math.log(r), math.log1p(-r)) if r < 1.0 else None
        self._tables = {}
        self._past = {}  # m: (hi + 1, the scaled pmf there) for a window that stops below m

    def log_pmf(self, m: int, x: int) -> float:
        if self._logs is None:  # r = 1
            return 0.0 if x == m else -math.inf
        log_r, log_s = self._logs
        lgamma = math.lgamma
        return (lgamma(m + 1) - lgamma(x + 1) - lgamma(m - x + 1)
                + x * log_r + (m - x) * log_s)

    def table(self, m: int):
        """``(lo, tails)``: ``tails[i]`` is P(X >= lo + i) for the counts
        ``lo .. hi`` of the window and ``hi + 1``."""
        table = self._tables.get(m)
        if table is None:
            odds, mode = self._odds, min(int((m + 1) * self.r), m)
            down, term = [1.0], 1.0
            for x in range(mode, 0, -1):
                term *= x / (m - x + 1) / odds
                if term < 2.0**-64:
                    break
                down.append(term)
            up, term, past = [], 1.0, None
            for x in range(mode, m):
                term *= (m - x) / (x + 1) * odds
                if term < 2.0**-64:
                    past = x + 1  # the steps go on past the window
                    break
                up.append(term)
            pmf = up[::-1] + down  # the counts hi down to lo
            total = math.fsum(pmf)
            above = 0.0
            if past is not None:
                above = self.upper(m, past, term)
                self._past[m] = (past, term / total)
            tails = [*accumulate((p / total for p in pmf), initial=above / total)]
            tails.reverse()
            table = self._tables[m] = (mode + 1 - len(down), tails)
        return table

    def upper(self, m: int, x: int, term: float) -> float:
        """``term``, the pmf at ``x`` above the mode, plus the terms above it while they count.

        The sum stops at the smallest normal float: a step can leave a
        subnormal term unchanged, and the loop would then run on.
        """
        total = 0.0
        while term > total * 2.0**-60 and term >= 2.0**-1022:
            total += term
            term *= (m - x) / (x + 1) * self._odds
            x += 1
        return total

    def total(self, terms, late) -> float:
        """``terms``, each a row's mass times a tail read in its table, plus the
        tails past the window, ``late``'s ``(mass, m, x, bound)``, summed term
        by term where their bounds could move the total; to about 2**-52 relative."""
        total = math.fsum(terms)
        if math.fsum(bound for *_, bound in late) > total * 2.0**-52:
            total = math.fsum([*terms, *(mass * self.upper(m, x, self._pmf_past(m, x))
                                         for mass, m, x, _ in late)])
        return total

    def _pmf_past(self, m: int, x: int) -> float:
        """The scaled pmf at ``x`` past the window, stepped on from the first term there.

        A pmf below about ``2**-1022``, the smallest normal float, counts
        as 0, judged by ``log_pmf``, which errs by far less than 1.  The
        terms fall past the mode, so those dropped, here and by
        :meth:`upper`, sum to less than ``m * 2**-1020``: a tail above
        1e-279 keeps its ``2**-52`` for every ``m`` below ``2**40``, which
        ``ROW_CAP`` implies, and a smaller one errs by less than 1e-300
        below ``m = 2**20``.
        """
        if self.log_pmf(m, x) < -1022.0 * math.log(2.0):
            return 0.0
        y, term = self._past[m]
        odds = self._odds
        for y in range(y, x):
            term *= (m - y) / (y + 1) * odds
        return term


class RowTest:
    """The exact test of ``n`` draws over pooled cells, summed row by row.

    A p-value is a null tail sum over the rows, and the power is the h1
    tail sum at the null's critical statistic.  ``binomials`` keeps the
    binomial tables, keyed by ``r``, for the next test that needs them;
    a power search passes one dict to all its probes.  ``groups``, if
    given, are the pooled cells, as :func:`_size` takes them.
    """

    def __init__(self, n: int, p0, p1, binomials: dict | None = None, groups=None):
        binomials = {} if binomials is None else binomials
        self.n = n
        self.groups = _pooled_cells(n, p0, p1) if groups is None else groups
        q0, q1 = _pooled(p0, self.groups), _pooled(p1, self.groups)
        self._w = w = _llr_weights(q0, q1)[0]
        # without draws there may be no finite cell; one possible under h0 stands in
        finite = [k for k in range(len(q0)) if q0[k] > 0 and q1[k] > 0] or [q0.index(max(q0))]
        u, v = max(finite, key=w.__getitem__), min(finite, key=w.__getitem__)
        outer = [k for k in finite if k not in (u, v)]
        pair = [v, u] if u != v else [u]
        # the engine's cell order, in which every statistic is summed
        self.order = outer + pair
        # a single cell is a pair whose count x is always m; its stand-in
        # weight wv only keeps the cut arithmetic well defined
        self._wu = w[u]
        self._wv = w[v] if u != v else w[u] - 1.0
        self._d = self._wu - self._wv
        pair0, pair1 = sum(q0[k] for k in pair), sum(q1[k] for k in pair)
        shares = [q0[u] / pair0, q1[u] / pair1 if pair1 > 0 else 1.0]
        self._binom0, self._binom1 = (
            binomials.get(r) or binomials.setdefault(r, _Binomial(r)) for r in shares
        )
        self._log_ratio = math.log(pair1) - math.log(pair0) if pair1 > 0 else -math.inf
        # the normal approximation of the null statistic, a start for power
        e1 = sum(q0[k] * w[k] for k in finite)
        e2 = sum(q0[k] * w[k] ** 2 for k in finite)
        self._mean, self._sd = n * e1, math.sqrt(max(n * (e2 - e1 * e1), 0.0))

        # each prefix branches into left + 1 prefixes, one per count c of the
        # next outer cell; the pair takes the draws left at the end
        log_fact = [math.lgamma(c + 1) for c in range(n + 1)] if outer else []
        log_mass, llr, left = [math.lgamma(n + 1)], [0.0], [n]
        for k in outer:
            log_q, weight = math.log(q0[k]), w[k]
            table0 = [c * log_q - f for c, f in enumerate(log_fact)]
            table = [c * weight for c in range(n + 1)]
            log_mass = [a + t for a, r in zip(log_mass, left) for t in table0[:r + 1]]
            llr = [a + t for a, r in zip(llr, left) for t in table[:r + 1]]
            left = [rest for r in left for rest in range(r, -1, -1)]  # r - c
        log_pair = math.log(pair0)
        pair = {m: m * log_pair - math.lgamma(m + 1) for m in set(left)}
        self._log_mass = [a + pair[m] for a, m in zip(log_mass, left)]
        self._mass0 = list(map(math.exp, self._log_mass))
        self._a, self._m = llr, left

    def statistic(self, values) -> float:
        """LLR of raw counts, pooled and summed in the engine's cell order.

        The counts must avoid every cell impossible under either model.
        """
        total = 0.0
        for k in self.order:
            total += sum(values[i] for i in self.groups[k]) * self._w[k]
        return total

    def _rows(self, rows) -> tuple:
        """``(a, m, mass0)`` of the rows at the indices ``rows``."""
        return tuple(list(map(r.__getitem__, rows)) for r in (self._a, self._m, self._mass0))

    def _tail(self, binom: _Binomial, t: float, a_, m_, masses, cuts=None) -> float:
        """``sum(mass * P(X >= x))`` over the rows ``(a, m)`` and their ``masses``,
        ``X`` being ``binom``'s count of ``m`` draws and ``x`` the row's cut: the
        least count in ``0 .. m + 1`` whose statistic is at least ``t``.

        Each row is cut and its tail read in one pass; the cuts are
        appended to ``cuts`` if it is given.
        """
        wu, wv, d, ceil = self._wu, self._wv, self._d, math.ceil
        tables, terms, late = binom._tables, [], []
        for a, m, mass in zip(a_, m_, masses):
            x = ceil((t - (a + m * wv)) / d)
            x = 0 if x < 0 else m + 1 if x > m + 1 else x
            # the division can miss by one; the statistic itself decides
            while x > 0 and (a + (m - x + 1) * wv) + (x - 1) * wu >= t:
                x -= 1
            while x <= m and (a + (m - x) * wv) + x * wu < t:
                x += 1
            if cuts is not None:
                cuts.append(x)
            lo, tails = tables.get(m) or binom.table(m)
            i = x - lo
            if i < len(tails):
                terms.append(mass * tails[i if i > 0 else 0])
            elif x <= m:
                late.append((mass, m, x, mass * tails[-1]))
        return binom.total(terms, late)

    def p_value(self, observed: float) -> float:
        """Null mass of the outcomes whose statistic ties or beats ``observed``."""
        t, log_mass, binom = _tie_floor(observed), self._log_mass, self._binom0

        def upper(rows):
            return self._tail(binom, t, *self._rows(rows))

        # the rows heaviest first; a sum of tails does not depend on their order
        rows = sorted(range(len(log_mass)), key=log_mass.__getitem__, reverse=True)
        floor = log_mass[rows[0]] - _WINDOW_LOG
        heavy = bisect_left(rows, True, key=lambda i: log_mass[i] < floor)
        total = upper(rows[:heavy])
        # the lighter rows join, heaviest first and in doubling batches, while
        # their null mass could move the total
        rest = rows[heavy:]
        left = [*accumulate(map(self._mass0.__getitem__, reversed(rest)), initial=0.0)][::-1]
        done, batch = 0, 1
        while left[done] > total * 2.0**-52:
            total += upper(rest[done:done + batch])
            done, batch = min(done + batch, len(rest)), 2 * batch
        return min(1.0, total)

    def power(self, alpha: float) -> float:
        """h1 mass of the outcomes whose p-value is at most ``alpha``: one h1
        tail sum at the cuts of the null's critical statistic (:meth:`_critical`).

        Call it only when no cell impossible under h0 is open to h1, as
        the power search does; then h1 puts all its mass on the rows,
        and a row's h1 mass is ``exp(log mass0 + LLR)``.

        The rows whose mass is below ``2**-64`` of the largest under
        both models are left out, unless their mass could move the
        answer or its comparisons with ``alpha``.
        """
        log_mass1 = [x + a + m * self._log_ratio
                     for x, a, m in zip(self._log_mass, self._a, self._m)]
        floor0, floor1 = max(self._log_mass) - _WINDOW_LOG, max(log_mass1) - _WINDOW_LOG
        keep = [x >= floor0 or y >= floor1 for x, y in zip(self._log_mass, log_mass1)]

        def tail1(rows):
            cut_rows = self._rows(rows)
            s = self._critical(alpha, cut_rows)
            if s is None:
                return 0.0
            mass1 = list(map(math.exp, map(log_mass1.__getitem__, rows)))
            return self._tail(self._binom1, s, *cut_rows[:2], mass1)

        result = tail1(list(compress(range(len(keep)), keep)))
        drop = [not k for k in keep]
        if (math.fsum(compress(self._mass0, drop)) > alpha * 2.0**-52
                or math.fsum(map(math.exp, compress(log_mass1, drop))) > result * 2.0**-52):
            result = tail1(range(len(keep)))
        return result

    def _critical(self, alpha: float, rows) -> float | None:
        """The critical statistic ``s*`` over ``rows``, or None if no outcome rejects.

        ``s*`` is the least statistic whose p-value is at most ``alpha``;
        it depends on the null alone.  A bisection that cuts each row by
        division alone brackets ``s*`` within one step ``w_u - w_v`` of a
        row, with a margin far above the division's error; the outcomes
        of the bracket are then listed with their exact statistics and
        null masses, and ``s*`` is found among them.
        """
        wu, wv, d, binom0, ceil = self._wu, self._wv, self._d, self._binom0, math.ceil
        a_, m_, mass0 = rows
        tables0 = {m: binom0.table(m) for m in set(m_)}
        row_tables0 = [tables0[m] for m in m_]
        bases = [a + m * wv for a, m in zip(a_, m_)]

        def rejects(s: float) -> bool:
            t = _tie_floor(s)
            total = 0.0
            for b, (lo, tails), mass in zip(bases, row_tables0, mass0):
                i = ceil((t - b) / d) - lo
                if i <= 0:
                    total += mass * tails[0]
                elif i < len(tails):
                    total += mass * tails[i]
            return total <= alpha

        lo, hi = min(bases) - 1.0, max(b + m * d for b, m in zip(bases, m_)) + 1.0
        step = max(self._sd, d)
        s = min(max(self._mean + self._sd * math.sqrt(-2.0 * math.log(alpha)), lo), hi)
        # gallop from the normal approximation's bound to a bracket, then bisect
        if rejects(s):
            hi = s
            while hi - step > lo and rejects(hi - step):
                hi, step = hi - step, 2.0 * step
            lo = max(lo, hi - step)
        else:
            lo = s
            while lo + step < hi and not rejects(lo + step):
                lo, step = lo + step, 2.0 * step
            hi = min(hi, lo + step)
        while hi - lo > d:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if rejects(mid):
                hi = mid
            else:
                lo = mid

        # every statistic below lo - margin is accepted and every one above
        # hi + margin rejected; list the outcomes in between, with those of
        # the tie band below them
        margin = 1e-12 * (1.0 + self.n * max(abs(wu), abs(wv)))
        bottom, top = _tie_floor(lo) - 2.0 * margin, math.nextafter(hi + margin, math.inf)
        cuts = []
        p_above = self._tail(binom0, top, a_, m_, mass0, cuts)
        listed, s_next = [], math.inf
        for a, m, x, mass in zip(a_, m_, cuts, mass0):
            if x <= m:
                s = (a + (m - x) * wv) + x * wu
                if s < s_next:
                    s_next = s
            while x > 0:
                x -= 1
                s = (a + (m - x) * wv) + x * wu
                if s < bottom:
                    break
                listed.append((s, mass * math.exp(binom0.log_pmf(m, x))))
        listed.sort()
        stats = [s for s, _ in listed]
        # null mass of the listed outcomes from the i-th statistic up
        tail0 = [*accumulate((p for _, p in reversed(listed)), initial=0.0)][::-1]
        candidates = stats[bisect_left(stats, lo - margin):]
        if s_next < math.inf:
            candidates.append(s_next)
        first = bisect_left(candidates, True, key=lambda s: (
            p_above + tail0[bisect_left(stats, _tie_floor(s))] <= alpha))
        return candidates[first] if first < len(candidates) else None


def _sampled_statistics(draws, p0, p1):
    """LLR of each row of ``draws``; ``-inf`` where a count hits a cell
    impossible under h1.  No row may hit a cell impossible under h0."""
    import numpy as np

    w, h1_zero, _ = (np.array(x) for x in _llr_weights(p0, p1))
    vals = draws @ w
    if h1_zero.any():
        vals = np.where(draws[:, h1_zero].sum(axis=1) > 0, -np.inf, vals)
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


def _seeded_null(n: int, p0, p1, replicates: int, seed: int, spawn_key=()):
    """The generator of ``seed`` and ``spawn_key``, and the sorted LLRs of
    the ``replicates`` null tables of ``n`` draws it draws first."""
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key))
    return rng, np.sort(_sampled_statistics(rng.multinomial(n, p0, size=replicates), p0, p1))


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
    ``1 / (replicates + 1)``.  ``replicates`` must be an integer in
    ``[1, MAX_REPLICATES]`` and ``seed`` one in ``[0, 2**64)`` at any
    sample size.
    """
    _check_comparable(model_h0, model_h1)
    _check_open_unit("alpha", alpha)
    _check_sampling(replicates, seed)
    p0, p1 = model_h0._p, model_h1._p
    values = _count_values(counts, model_h0.labels)
    ll0, ll1 = _log_likelihood(values, p0), _log_likelihood(values, p1)
    if math.isinf(ll0) and math.isinf(ll1):
        raise DomainError("observed counts are impossible under both models")
    if math.isinf(ll0):
        return DiscriminationReport(math.inf, 0.0, "favor_H1")
    if math.isinf(ll1):
        return DiscriminationReport(-math.inf, 1.0, "favor_H0")
    llr = ll1 - ll0
    n = sum(values)
    groups = _pooled_cells(n, p0, p1)
    if _size(n, p0, p1, groups) <= ROW_CAP:
        test = RowTest(n, p0, p1, groups=groups)
        # the row sums can differ from ll1 - ll0 in the last bits, so the
        # observed statistic is summed as they sum it before ties are counted
        p_value = test.p_value(test.statistic(values))
    else:
        import numpy as np

        _, null = _seeded_null(n, p0, p1, replicates, seed)
        observed = _sampled_statistics(np.array([values], dtype=np.int64), p0, p1)
        p_value = float(_sampled_p_values(null, observed)[0])
    if p_value <= alpha:
        decision = "favor_H1"
    else:
        decision = "favor_H0" if llr <= 0 else "inconclusive"
    return DiscriminationReport(llr, p_value, decision)


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
    Carlo estimate via a shared null reference sample.

    The estimate's p-values are at least ``1 / (replicates + 1)``, so an
    ``alpha`` below that is refused: it would read 0 at every ``n``.
    """
    p0, p1 = model_h0._p, model_h1._p
    groups = _pooled_cells(n, p0, p1)
    if _size(n, p0, p1, groups) <= ROW_CAP:
        return RowTest(n, p0, p1, binomials, groups).power(alpha)
    if alpha < 1 / (replicates + 1):
        raise DomainError(
            f"alpha = {alpha} is below 1 / (replicates + 1) = {1 / (replicates + 1)}, "
            f"the smallest p-value that replicates = {replicates} can resolve, so the "
            "sampled power is 0 at every sample size above the exact engine's cap"
        )
    import numpy as np

    rng, null = _seeded_null(n, p0, p1, replicates, seed, spawn_key=(n,))
    alt = _sampled_statistics(rng.multinomial(n, p1, size=replicates), p0, p1)
    return float(np.mean(_sampled_p_values(null, alt) <= alpha))


def _power_search(rate, target: float) -> int:
    """An ``n`` with ``rate(n) >= target > rate(n - 1)``, by doubling then bisection."""
    lo, hi = 0, 1
    while rate(hi) < target:
        lo, hi = hi, 2 * hi
        if hi > MAX_SAMPLE_SIZE:
            raise ResourceLimitError(
                f"no sample size up to the cap of {MAX_SAMPLE_SIZE} reaches power {target}"
            )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rate(mid) >= target:
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
    method: Method = Method.AUTO,
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
    ``1 / (replicates + 1)``, so with ``alpha`` below that the first
    probe above the cap raises :class:`DomainError`, naming ``alpha``
    and ``replicates``.  No answer is lost: the search bisects only
    below a probe that reached ``power``, and such a probe under that
    ``alpha`` is exact.  An answer above ``MAX_SAMPLE_SIZE`` raises
    :class:`ResourceLimitError`, before any probe where no test could be
    smaller: one of size ``alpha`` needs ``n0 >= d(power || alpha) /
    chi2(h1 || h0)``, ``d`` being the binary Kullback-Leibler divergence.

    ``method``, a :class:`~mzsim.core.Method` or its value, selects ``"auto"``
    (closed form when available), ``"closed_form"`` (error when unavailable),
    or ``"simulation"`` (Monte Carlo even for the zero-cell design, as a cross-check).
    ``replicates`` and ``seed`` are checked as in :func:`discriminate`,
    whichever path answers.
    """
    _check_comparable(model_h0, model_h1)
    _check_open_unit("power", power)
    if alpha is not None:
        _check_open_unit("alpha", alpha)
    _check_sampling(replicates, seed)
    if method not in tuple(Method):
        raise DomainError(f"unknown method {method!r}")

    # the probability under h1 of a category impossible under h0
    p_hit = 0.0
    for a, b in zip(model_h0._p, model_h1._p):
        if a == 0.0:
            p_hit += b
    if p_hit == 0.0:
        if method == Method.CLOSED_FORM:
            raise DomainError(
                "method = closed_form needs a category that is impossible under h0, "
                "and this design has none"
            )
        if alpha is None:
            raise DomainError(
                "alpha is required: this design has no category that is impossible "
                "under h0, so the sample size comes from a power search at "
                "significance alpha"
            )
        # any test of size alpha and power beta needs n >= d(beta || alpha) / D(h1 || h0),
        # and D <= chi2, summed from differences: ln(p1 / p0) rounds where p1 ~ p0
        chi2 = math.fsum((b - a) ** 2 / a for a, b in zip(model_h0._p, model_h1._p) if a > 0)
        kl = power * math.log(power / alpha) + (1 - power) * math.log((1 - power) / (1 - alpha))
        if power > alpha and kl > MAX_SAMPLE_SIZE * chi2:
            raise ResourceLimitError(f"no sample size up to the cap of {MAX_SAMPLE_SIZE} reaches "
                                     f"power {power}: any test needs n >= {kl / chi2:.3g}")
        binomials = {}  # the probes share their binomial tables
        return _power_search(lambda n: _rejection_rate(
            n, model_h0, model_h1, alpha, replicates, seed, binomials), power)
    if p_hit >= 1.0:
        return 1
    if method == Method.SIMULATION:
        n = _geometric_min_n(p_hit, power, replicates, seed)
    else:
        ratio = math.log1p(-power) / math.log1p(-p_hit)
        # a subnormal p_hit gives an infinite ratio, which no integer holds
        n = max(1, math.ceil(ratio)) if ratio < math.inf else ratio
    if n > MAX_SAMPLE_SIZE:
        raise ResourceLimitError(
            f"required sample size {n} exceeds the cap of {MAX_SAMPLE_SIZE}"
        )
    return n
