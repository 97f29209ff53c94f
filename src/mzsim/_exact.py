"""The likelihood-ratio test of :mod:`mzsim.stats` on plain floats.

This module owns the rules of the exact test: the statistic
(``math.log`` per category), the tie rule, the pooling of cells whose
weights tie, the decision and the doubling-then-bisection power search.
It also holds the exact engine, :class:`RowTest`, which answers every
test and power probe of at most ``ROW_CAP`` in :func:`size`, in pure
Python; :mod:`mzsim.stats` samples above it.

The statistic is linear in the pooled counts.  A row fixes the counts
of every pooled cell that is possible under both models but two: the
cells of the largest and the smallest weight, ``u`` and ``v``.  They
share the ``m`` draws the row leaves, and the count ``x`` of ``u`` is
Binomial(m, r) under either model, ``r`` being ``u``'s share of the
pair's probability.  The statistic ``(a + (m - x) * w_v) + x * w_u``
rises with ``x``, so the outcomes of a row at or above a threshold are
those at or above one cut, and their mass is the row's mass times a
binomial tail.  A p-value sums that over the rows under h0; power sums
it under h1 at the critical statistic.  No outcome is listed, except
those between two statistics that bracket the critical one.

The cut comes from a division, so the statistic itself decides it: the
left-to-right float sum of the per-cell terms ``count * weight``, in
the engine's cell order, is evaluated around the cut, and
:meth:`RowTest.statistic` sums an observed table the same way.  A
cell impossible under one model puts every count in it at ``-inf`` or
``+inf``; those outcomes have no null mass or no finite statistic, so
the rows leave them out.

Work is spent where the mass is.  A binomial table spans the counts
whose pmf is at least ``2**-64`` of its mode's, and a sum starts from
the rows whose mass is at least ``2**-64`` of the largest; what lies
outside is bounded, and summed as well wherever the bound could move
the answer by more than about ``2**-52`` of it.
"""

import math
import numbers
from array import array
from bisect import bisect_left
from itertools import accumulate, compress

from .core import MAX_REPLICATES, CountTable
from .errors import DomainError, ResourceLimitError, StructureError
from .predict import MAX_SAMPLE_SIZE

# statistics within this relative distance of each other count as tied
TIE_REL_TOL = 1e-9
# largest test answered exactly, in rows times isqrt(n) + 1: a row of m
# draws sums a binomial window of about 19 * sqrt(m / 4) counts, so this
# bounds the work rather than the rows alone.  It covers every pooled
# support of at most 2**18 outcomes, the old enumeration's cap, and keeps
# three pooled cells exact up to n = 10,279 and four up to n = 330
ROW_CAP = 2**20
# a binomial table spans the counts whose pmf is at least 2**-64 of the mode's
_WINDOW_LOG = 64 * math.log(2.0)


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
    # the seeded simulation above ROW_CAP holds the counts as int64
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
    """Lowest statistic that ties or beats ``llr``; ``llr`` must be finite."""
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
    """Each group's probability, summed left to right."""
    sums = []
    for group in groups:
        total = 0.0
        for k in group:
            total += p[k]
        sums.append(total)
    return sums


def size(n: int, p0, p1) -> int:
    """Size of ``RowTest(n, p0, p1)``, its rows times ``isqrt(n) + 1``.

    The rows are the outcomes of all its cells but two.
    """
    groups = pooled_cells(n, p0, p1)
    finite = sum(a > 0 and b > 0 for a, b in zip(pooled(p0, groups), pooled(p1, groups)))
    outer = max(finite - 2, 0)
    return math.comb(n + outer, outer) * (math.isqrt(n) + 1)


class _Binomial:
    """Tails of Binomial(m, r), one table per ``m``, built on first use.

    A table spans the counts whose pmf is at least ``2**-64`` of the
    mode's.  Below it a tail is the table's whole mass, which misses a
    smaller share than that; above it :meth:`tail_sum` bounds the tail
    by the table's last one and sums it term by term where the bound
    could move the total.
    """

    def __init__(self, r: float):
        self.r = r
        self._log_r = math.log(r)
        self._log_s = math.log1p(-r) if r < 1.0 else -math.inf
        self._tables = {}

    def log_pmf(self, m: int, x: int) -> float:
        if self.r == 1.0:
            return 0.0 if x == m else -math.inf
        lgamma = math.lgamma
        return (lgamma(m + 1) - lgamma(x + 1) - lgamma(m - x + 1)
                + x * self._log_r + (m - x) * self._log_s)

    def table(self, m: int, log_fact=()):
        """``(lo, tails)``: ``tails[i]`` is P(X >= lo + i) for the counts
        ``lo .. hi`` of the window and ``hi + 1``.  ``log_fact[c]``, when it
        reaches ``m``, is ``lgamma(c + 1)``."""
        table = self._tables.get(m)
        if table is None:
            log_pmf = self.log_pmf
            mode = min(int((m + 1) * self.r), m)
            floor = log_pmf(m, mode) - _WINDOW_LOG
            # the log-pmf is concave, so the window is one run around the mode
            lo, top = 0, mode
            while lo < top:
                mid = (lo + top) // 2
                lo, top = (lo, mid) if log_pmf(m, mid) >= floor else (mid + 1, top)
            bottom, hi = mode, m
            while bottom < hi:
                mid = (bottom + hi + 1) // 2
                bottom, hi = (mid, hi) if log_pmf(m, mid) >= floor else (bottom, mid - 1)
            if m < len(log_fact) and self.r < 1.0:
                lf, log_r, log_s, exp = log_fact, self._log_r, self._log_s, math.exp
                pmf = [exp(lf[m] - lf[x] - lf[m - x] + x * log_r + (m - x) * log_s)
                       for x in range(hi, lo - 1, -1)]
            else:
                pmf = [math.exp(log_pmf(m, x)) for x in range(hi, lo - 1, -1)]
            tails = array("d", accumulate(pmf, initial=self.upper(m, hi + 1)))
            tails.reverse()
            table = self._tables[m] = (lo, tails)
        return table

    def upper(self, m: int, x: int) -> float:
        """P(X >= x) for ``x`` above the mode, summed until the terms stop counting."""
        ratio = self.r / (1.0 - self.r) if self.r < 1.0 else 0.0
        term, total = math.exp(self.log_pmf(m, x)) if x <= m else 0.0, 0.0
        while term > total * 2.0**-60:
            total += term
            term *= (m - x) / (x + 1) * ratio
            x += 1
        return total

    def tail_sum(self, cuts) -> float:
        """``sum(mass * P(X >= x))`` over ``(mass, m, x, table(m))``, to about
        2**-52 relative."""
        terms, late = [], []
        for mass, m, x, (lo, tails) in cuts:
            i = x - lo
            if i < len(tails):
                terms.append(mass * tails[i if i > 0 else 0])
            elif x <= m:
                late.append((mass, m, x, mass * tails[-1]))
        total = math.fsum(terms)
        if math.fsum(bound for *_, bound in late) > total * 2.0**-52:
            total = math.fsum([*terms, *(mass * self.upper(m, x) for mass, m, x, _ in late)])
        return total


class RowTest:
    """The exact test of ``n`` draws over pooled cells, summed row by row.

    ``binomials`` keeps the binomial tables, keyed by ``r``, for the
    next test that needs them; a power search passes one dict to all
    its probes.
    """

    def __init__(self, n: int, p0, p1, binomials: dict | None = None):
        binomials = {} if binomials is None else binomials
        self.n = n
        self.groups = pooled_cells(n, p0, p1)
        q0, q1 = pooled(p0, self.groups), pooled(p1, self.groups)
        self._w = w = llr_weights(q0, q1)[0]
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

        # each prefix branches into left + 1 prefixes, one per count of the
        # next outer cell; the pair takes the draws left at the end
        self._log_fact = log_fact = [math.lgamma(c + 1) for c in range(n + 1)] if outer else []
        log_mass, llr, left = [math.lgamma(n + 1)], [0.0], [n]
        for k in outer:
            log_q, weight = math.log(q0[k]), w[k]
            table0 = [c * log_q - f for c, f in enumerate(log_fact)]
            table = [c * weight for c in range(n + 1)]
            log_mass = [a + table0[c] for a, r in zip(log_mass, left) for c in range(r + 1)]
            llr = [a + table[c] for a, r in zip(llr, left) for c in range(r + 1)]
            left = [r - c for r in left for c in range(r + 1)]
        log_pair = math.log(pair0)
        self._log_mass = [a + (m * log_pair - math.lgamma(m + 1))
                          for a, m in zip(log_mass, left)]
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
        """``(a, m, log mass0, mass0)`` of the rows at the indices ``rows``."""
        return tuple([r[i] for i in rows] for r in (self._a, self._m, self._log_mass, self._mass0))

    def _cuts(self, t: float, rows) -> list[int]:
        """Per row ``(a, m)``, the least ``x`` in ``0 .. m + 1`` whose statistic is at least ``t``."""
        wu, wv, d = self._wu, self._wv, self._d
        cuts = []
        for a, m in zip(rows[0], rows[1]):
            x = math.ceil((t - (a + m * wv)) / d)
            x = 0 if x < 0 else m + 1 if x > m + 1 else x
            # the division can miss by one; the statistic itself decides
            while x > 0 and (a + (m - x + 1) * wv) + (x - 1) * wu >= t:
                x -= 1
            while x <= m and (a + (m - x) * wv) + x * wu < t:
                x += 1
            cuts.append(x)
        return cuts

    def p_value(self, observed: float) -> float:
        """Null mass of the outcomes whose statistic ties or beats ``observed``."""
        t, log_mass, binom = tie_floor(observed), self._log_mass, self._binom0

        def upper(rows):
            a, m, _, mass = rows = self._rows(rows)
            tables = {k: binom.table(k, self._log_fact) for k in set(m)}
            return binom.tail_sum(zip(mass, m, self._cuts(t, rows), map(tables.get, m)))

        floor = max(log_mass) - _WINDOW_LOG
        rows = range(len(log_mass))
        total = upper([i for i in rows if log_mass[i] >= floor])
        # the lighter rows join, heaviest first and in doubling batches, while
        # their null mass could move the total
        rest = sorted((i for i in rows if log_mass[i] < floor), key=log_mass.__getitem__,
                      reverse=True)
        left = [*accumulate(map(self._mass0.__getitem__, reversed(rest)), initial=0.0)][::-1]
        done, batch = 0, 1
        while left[done] > total * 2.0**-52:
            total += upper(rest[done:done + batch])
            done, batch = min(done + batch, len(rest)), 2 * batch
        return min(1.0, total)

    def power(self, alpha: float) -> float:
        """h1 mass of the outcomes whose p-value is at most ``alpha``.

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
        rows = [i for i, k in enumerate(keep) if k]
        result = self._power(alpha, self._rows(rows), [log_mass1[i] for i in rows])
        drop = [not k for k in keep]
        if (math.fsum(compress(self._mass0, drop)) > alpha * 2.0**-52
                or math.fsum(map(math.exp, compress(log_mass1, drop))) > result * 2.0**-52):
            result = self._power(alpha, self._rows(range(len(keep))), log_mass1)
        return result

    def _power(self, alpha: float, rows, log_mass1) -> float:
        """Power over ``rows``.

        The rejected outcomes are those at or above the critical
        statistic ``s*``, the least statistic whose p-value is at most
        ``alpha``.  A bisection that cuts each row by division alone
        brackets ``s*`` within one step ``w_u - w_v`` of a row, with a
        margin far above the division's error; the outcomes of the
        bracket are then listed with their exact statistics, and ``s*``
        is found among them.
        """
        wu, wv, d = self._wu, self._wv, self._d
        binom0, binom1 = self._binom0, self._binom1
        a_, m_, _, mass0 = rows
        tables0 = {m: binom0.table(m, self._log_fact) for m in set(m_)}
        tables1 = {m: binom1.table(m, self._log_fact) for m in set(m_)}
        bases = [a + m * wv for a, m in zip(a_, m_)]

        def rejects(s: float) -> bool:
            t = tie_floor(s)
            total = 0.0
            for b, (lo, tails), mass in zip(bases, map(tables0.get, m_), mass0):
                i = math.ceil((t - b) / d) - lo
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
        bottom, top = tie_floor(lo) - 2.0 * margin, math.nextafter(hi + margin, math.inf)
        cuts = self._cuts(top, rows)
        mass1 = list(map(math.exp, log_mass1))
        p_above = binom0.tail_sum(zip(mass0, m_, cuts, map(tables0.get, m_)))
        power_above = binom1.tail_sum(zip(mass1, m_, cuts, map(tables1.get, m_)))
        listed, s_next = [], math.inf
        for a, m, x, mass0, mass1 in zip(a_, m_, cuts, mass0, mass1):
            if x <= m:
                s_next = min(s_next, (a + (m - x) * wv) + x * wu)
            while x > 0:
                x -= 1
                s = (a + (m - x) * wv) + x * wu
                if s < bottom:
                    break
                listed.append((s, mass0 * math.exp(binom0.log_pmf(m, x)),
                               mass1 * math.exp(binom1.log_pmf(m, x))))
        listed.sort()
        stats = [e[0] for e in listed]
        # null and h1 mass of the listed outcomes from the i-th statistic up
        tail0 = [*accumulate((e[1] for e in reversed(listed)), initial=0.0)][::-1]
        tail1 = [*accumulate((e[2] for e in reversed(listed)), initial=0.0)][::-1]
        candidates = stats[bisect_left(stats, lo - margin):]
        if s_next < math.inf:
            candidates.append(s_next)
        first, end = 0, len(candidates)
        while first < end:
            mid = (first + end) // 2
            if p_above + tail0[bisect_left(stats, tie_floor(candidates[mid]))] <= alpha:
                end = mid
            else:
                first = mid + 1
        if first == len(candidates):
            return 0.0
        return power_above + tail1[bisect_left(stats, candidates[first])]


def power_search(rate, target: float) -> int:
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
