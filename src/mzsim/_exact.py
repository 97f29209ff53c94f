"""The likelihood-ratio test of :mod:`mzsim.stats` on plain floats.

This module owns the rules both of its engines share: the statistic
(``math.log`` per category), the tie rule, the pooling of cells whose
weights tie, the tier that answers a test of ``n`` draws, the decision
and the doubling-then-bisection power search.  It also holds the exact
engine for pooled supports of at most ``LIGHT_SUPPORT_CAP`` outcomes,
below which enumerating in pure Python costs less than importing
numpy.  Larger supports go to :mod:`mzsim.stats`, which enumerates up
to ``EXACT_SUPPORT_CAP`` outcomes with numpy and samples above it.
"""

import math
import numbers
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate, compress

from .core import MAX_REPLICATES, CountTable
from .errors import DomainError, ResourceLimitError, StructureError
from .predict import MAX_SAMPLE_SIZE

# statistics within this relative distance of each other count as tied
TIE_REL_TOL = 1e-9
# largest pooled support enumerated in pure Python: n <= 254 over three
# pooled cells, n <= 56 over four; about 1 us per outcome with power, where
# numpy takes 0.1 us but ~110 ms to import
LIGHT_SUPPORT_CAP = 2**15
# largest pooled support enumerated at all, by numpy above LIGHT_SUPPORT_CAP:
# n <= 722 over three pooled cells, n <= 114 over four; numpy's engine holds
# three float64 values per outcome, 6 MB at the cap
EXACT_SUPPORT_CAP = 2**18


def count_values(counts, labels) -> tuple[int, ...]:
    """``counts`` as ints, one per label, or the refusal of ``stats.discriminate``."""
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
    # numpy's engines hold the counts as int64
    if not all(map(_is_count, values)) or sum(map(int, values)) >= 2**63:
        raise DomainError(
            f"counts must be non-negative integers summing to less than 2**63, "
            f"got {values}"
        )
    return tuple(int(v) for v in values)


def _is_count(value) -> bool:
    return isinstance(value, numbers.Real) and 0 <= value < 2**63 and value == int(value)


def check_replicates(replicates: int) -> None:
    if not 1 <= replicates <= MAX_REPLICATES:
        raise DomainError(f"replicates must be in [1, {MAX_REPLICATES}], got {replicates}")


def log_likelihood(values, p) -> float:
    """``sum_k n_k * ln(p_k)`` over the observed categories; ``-inf`` if one is impossible."""
    total = 0.0
    for count, q in zip(values, p):
        if count:
            if q == 0.0:
                return -math.inf
            total += count * math.log(q)
    return total


def tie_floor(llr: float) -> float:
    """Lowest statistic that ties or beats ``llr``; ``llr`` must not be ``+inf``."""
    return llr - TIE_REL_TOL * max(1.0, abs(llr))


def decide(p_value: float, llr: float, alpha: float) -> str:
    if p_value <= alpha:
        return "favor_H1"
    return "favor_H0" if llr <= 0 else "inconclusive"


def llr_weights(p0, p1):
    """Per-category LLR weights plus masks for the one-sided-impossible cells."""
    pairs = list(zip(p0, p1))
    w = [math.log(b) - math.log(a) if a > 0 and b > 0 else 0.0 for a, b in pairs]
    return w, [b == 0 < a for a, b in pairs], [a == 0 < b for a, b in pairs]


def pooled_cells(n: int, p0, p1) -> list[list[int]]:
    """Cells whose LLR weights tie within ``TIE_REL_TOL / n``, as groups of indices.

    A group shares one pair of impossibility masks, and its weights span
    at most ``TIE_REL_TOL / n``, so pooling it moves no statistic of
    ``n`` draws by more than ``TIE_REL_TOL``, up to rounding.  Cells
    impossible under both models join no group.
    """
    w, h1_zero, h0_zero = llr_weights(p0, p1)
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


def pooled(p, groups) -> list[float]:
    """Each group's probability, summed as numpy sums short vectors: a left fold."""
    sums = []
    for group in groups:
        total = 0.0
        for k in group:
            total += p[k]
        sums.append(total)
    return sums


def tier(n: int, p0, p1) -> str:
    """The engine for a test of ``n`` draws, by its pooled support:
    ``"light"`` (this module), ``"exact"`` (numpy) or ``"sampled"``."""
    cells = len(pooled_cells(n, p0, p1))
    support = math.comb(n + cells - 1, cells - 1)
    if support <= LIGHT_SUPPORT_CAP:
        return "light"
    return "exact" if support <= EXACT_SUPPORT_CAP else "sampled"


class ExactTest:
    """Every outcome of ``n`` draws over pooled cells, with its null mass and LLR.

    The outcomes are listed by prefix branching over per-cell tables, in
    the order and with the float operations of ``stats._ExactTest``.
    """

    def __init__(self, n: int, p0, p1):
        self.groups = pooled_cells(n, p0, p1)
        q0, q1 = pooled(p0, self.groups), pooled(p1, self.groups)
        w, h1_zero, h0_zero = llr_weights(q0, q1)
        log_fact = [math.lgamma(c + 1) for c in range(n + 1)]
        # per pooled cell, over its count: the null log-pmf term and the LLR term
        tables0, self._llr_tables = [], []
        for q, weight, zero1, zero0 in zip(q0, w, h1_zero, h0_zero):
            if q > 0:
                log_q = math.log(q)
                tables0.append([c * log_q - f for c, f in enumerate(log_fact)])
            else:
                tables0.append([-0.0] + [-math.inf] * n)
            if zero1 or zero0:
                self._llr_tables.append([0.0] + [-math.inf if zero1 else math.inf] * n)
            else:
                self._llr_tables.append([c * weight for c in range(n + 1)])

        # each prefix branches into left + 1 prefixes, one per count of the next
        # cell; an outcome impossible under both models sums -inf and +inf into
        # NaN, and has no mass under either
        log_mass0, llr, left = [log_fact[n]], [0.0], [n]
        for table0, table in zip(tables0[:-1], self._llr_tables[:-1]):
            log_mass0 = [a + table0[c] for a, r in zip(log_mass0, left) for c in range(r + 1)]
            llr = [a + table[c] for a, r in zip(llr, left) for c in range(r + 1)]
            left = [r - c for r in left for c in range(r + 1)]
        table0, table = tables0[-1], self._llr_tables[-1]
        self.log_mass0 = [a + table0[r] for a, r in zip(log_mass0, left)]
        self.llr = [a + table[r] for a, r in zip(llr, left)]
        self.mass0 = list(map(math.exp, self.log_mass0))

    def statistic(self, values) -> float:
        """LLR of raw counts, pooled and summed as the enumeration sums it."""
        total = 0.0
        for group, table in zip(self.groups, self._llr_tables):
            total += table[sum(values[k] for k in group)]
        return total

    def p_value(self, observed: float) -> float:
        """Null mass of the outcomes at least as extreme as ``observed``."""
        floor = tie_floor(observed)
        return min(1.0, math.fsum(compress(self.mass0, [s >= floor for s in self.llr])))

    def power(self, alpha: float) -> float:
        """h1 mass of the outcomes whose p-value is at most ``alpha``.

        Call it only when no cell impossible under h0 is open to h1, as
        the power search does.  Then no statistic is ``+inf`` or NaN,
        which the sort would misplace, and h1's mass is
        ``exp(log mass0 + LLR)`` wherever h0 has mass.
        """
        llr, mass0 = self.llr, self.mass0
        order = sorted(range(len(llr)), key=llr.__getitem__)
        ordered = list(map(llr.__getitem__, order))
        # upper[j]: null mass of the j + 1 largest statistics
        upper = list(accumulate(map(mass0.__getitem__, reversed(order))))
        last = len(order) - 1
        # p-values fall as the statistic rises, so the rejected outcomes
        # are the top of the order, from the first one whose p-value is <= alpha
        lo, hi = 0, last + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if upper[last - bisect_left(ordered, tie_floor(ordered[mid]))] <= alpha:
                hi = mid
            else:
                lo = mid + 1
        log_mass0 = self.log_mass0
        return math.fsum([math.exp(log_mass0[i] + llr[i]) for i in order[lo:]])


def discriminate(counts, labels, p0, p1, alpha, replicates, heavy=None):
    """``(llr, p_value, decision)`` of ``stats.discriminate``, after its model checks.

    Its checks run here in its order.  A test on more than
    ``LIGHT_SUPPORT_CAP`` pooled outcomes takes its p-value from
    ``heavy(values, tier)``, or returns None without it.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    check_replicates(replicates)
    values = count_values(counts, labels)
    ll0, ll1 = log_likelihood(values, p0), log_likelihood(values, p1)
    if math.isinf(ll0) and math.isinf(ll1):
        raise DomainError("observed counts are impossible under both models")
    if math.isinf(ll0):
        return math.inf, 0.0, "favor_H1"
    if math.isinf(ll1):
        return -math.inf, 1.0, "favor_H0"
    llr = ll1 - ll0
    n = sum(values)
    engine = tier(n, p0, p1)
    if engine == "light":
        test = ExactTest(n, p0, p1)
        # the enumeration's arithmetic can differ from ll1 - ll0 in the last
        # bits, so the observed statistic goes through it before ties are counted
        p_value = test.p_value(test.statistic(values))
    elif heavy is None:
        return None
    else:
        p_value = heavy(values, engine)
    return llr, p_value, decide(p_value, llr, alpha)


@lru_cache(maxsize=256)
def _power(n: int, p0: tuple, p1: tuple, alpha: float) -> float:
    return ExactTest(n, p0, p1).power(alpha)


def power(n: int, p0, p1, alpha: float) -> float:
    """Exact power at ``n`` draws, for a light-tier support.

    Cached, so a search that ``stats`` repeats after the CLI's light
    attempt left the tier does not enumerate its probes twice.
    """
    return _power(n, tuple(p0), tuple(p1), alpha)


def power_search(rate, target: float):
    """An ``n`` with ``rate(n) >= target > rate(n - 1)``, by doubling then bisection.

    ``rate(n)`` may return None to stop the search, which then returns None.
    """
    lo, hi = 0, 1
    while True:
        reached = rate(hi)
        if reached is None:
            return None
        if reached >= target:
            break
        lo, hi = hi, 2 * hi
        if hi > MAX_SAMPLE_SIZE:
            raise ResourceLimitError(
                f"no sample size up to the cap of {MAX_SAMPLE_SIZE} reaches power {target}"
            )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        reached = rate(mid)
        if reached is None:
            return None
        if reached >= target:
            hi = mid
        else:
            lo = mid
    return hi
