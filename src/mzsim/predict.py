"""Closed-form expected detector counts for the three experiments.

Each function maps an apparatus parameter record and a routing
hypothesis to the full table of expected counts.  Tables are
real-valued expectations (rounding is a presentation concern) and
always sum to the number of particles sent.  Beam splitters are taken
as lossless and exactly 50/50 and the interferometers as perfectly
tuned.

The module also owns the closed forms that :mod:`mzsim.stats` builds
on, in pure Python so that the CLI answers them without numpy: the
category probabilities of a table with imperfect visibility and
detector background (:func:`stats.build_model <mzsim.stats.build_model>`),
and the sample size of a design in which h1 reaches a category that is
impossible under h0 (:func:`stats.min_sample_size
<mzsim.stats.min_sample_size>`).  Their floats are bitwise the ones
numpy's elementwise arithmetic gives; their sums are left folds, the
order in which numpy sums vectors of fewer than eight values.
"""

import math
import numbers

from .core import (
    EXPERIMENTS,
    PHOTON_LABELS,
    CountTable,
    DecayParams,
    ExcitationParams,
    Hypothesis,
    PhotonParams,
    survival_fraction,
)
from .errors import (
    DegenerateComparisonError,
    DomainError,
    ResourceLimitError,
    StructureError,
)

__all__ = ["predict_excitation", "predict_decay", "predict_photon"]


def predict_excitation(p: ExcitationParams, h: Hypothesis) -> CountTable:
    """Expected counts when ground-state atoms get excited inside the arms.

    With ``s = exp(-lam * t)`` the fraction of excited atoms still
    excited at the counters:

    POS routes everything to counter a, so ``na2 = s * epsilon * n0``
    and the remainder lands in ``na1``.

    CCQI collapses the excited fraction ``epsilon`` onto single arms, so
    it splits 50/50 between the counters (excited survivors in the
    "2" columns, in-flight decayers in the "1" columns) while the
    unexcited remainder still interferes onto counter a.
    """
    EXPERIMENTS["excitation"].check(h)
    s = survival_fraction(p.lam, p.t)
    n0 = p.n0
    if h is Hypothesis.POS:
        na2 = s * p.epsilon * n0
        return CountTable(n0 - na2, na2, 0.0, 0.0)
    half_excited = 0.5 * p.epsilon * n0
    decayed = (1.0 - s) * half_excited
    alive = s * half_excited
    return CountTable((1.0 - p.epsilon) * n0 + decayed, alive, decayed, alive)


def predict_decay(p: DecayParams, h: Hypothesis) -> CountTable:
    """Expected counts when excited atoms may decay in flight.

    A source purity ``mu`` below 1 is first folded into a longer ``t1``
    (:meth:`DecayParams.with_purity_folded`); already folded params
    give the same table.

    POS: every atom reaches counter a, excited survivors in ``na2``.

    CCQI: only atoms that decay inside the interferometer lose the
    superposition, and half of those surface at counter b in the ground
    state; excited atoms always reach counter a, so ``nb2 = 0``.

    MODIFIED_RATE: superposition survives everywhere but the in-arm
    decay rate is ``lam_prime``; all atoms reach counter a and the
    excited survivor fraction is
    ``exp(-lam * (t1 + t3) - lam_prime * t2)``.  Setting
    ``lam_prime == lam`` recovers the POS table.
    """
    p = p.with_purity_folded()
    EXPERIMENTS["decay"].check(h)
    n0 = p.n0
    if h is Hypothesis.POS:
        na2 = survival_fraction(p.lam, p.total_time) * n0
        return CountTable(n0 - na2, na2, 0.0, 0.0)
    if h is Hypothesis.CCQI:
        s_total = survival_fraction(p.lam, p.total_time)
        s1 = survival_fraction(p.lam, p.t1)
        s12 = survival_fraction(p.lam, p.t1 + p.t2)
        nb1 = 0.5 * s1 * (1.0 - survival_fraction(p.lam, p.t2)) * n0
        na1 = (1.0 - s_total - 0.5 * s1 + 0.5 * s12) * n0
        return CountTable(na1, s_total * n0, nb1, 0.0)
    if p.lam_prime is None:
        raise DomainError("lam_prime is required under MODIFIED_RATE")
    s = survival_fraction(p.lam, p.t1 + p.t3) * survival_fraction(p.lam_prime, p.t2)
    na2 = s * n0
    return CountTable(n0 - na2, na2, 0.0, 0.0)


def predict_photon(p: PhotonParams, h: Hypothesis) -> CountTable:
    """Expected counts for the pair-splitting and recombination run.

    ``u * d`` is the fraction of the device-arm flux that survives the
    split-and-recombine stage.  The lost column (pairs never recombined
    plus split-off photons deflected out of the device arm) is
    ``(1 - u*d) / 2`` of the flux under either hypothesis.

    POS keeps the recombined flux coherent with the empty arm, so all
    of it exits toward counter 1: counter 1 collects
    ``(1/4 + 3/4 * u*d) * n0``.  CCQI divides it evenly, leaving both
    counters at ``(1 + u*d) / 4 * n0``.  The per-counter difference
    between the hypotheses is ``u*d*n0 / 2``.
    """
    EXPERIMENTS["photon"].check(h)
    ud = p.u * p.d
    n0 = p.n0
    lost = 0.5 * (1.0 - ud) * n0
    if h is Hypothesis.POS:
        counter1, counter2 = (0.25 + 0.75 * ud) * n0, 0.25 * (1.0 - ud) * n0
    else:
        counter1 = counter2 = 0.25 * (1.0 + ud) * n0
    return CountTable(counter1, counter2, lost, labels=PHOTON_LABELS)


# two models whose probabilities all lie within this distance are identical
MODEL_DISTINCTION_TOL = 1e-12
# largest sample size min_sample_size reports or probes
MAX_SAMPLE_SIZE = 10**9


def _category_probabilities(
    experiment: str,
    params,
    hypothesis: Hypothesis | None = None,
    *,
    background=None,
    visibility: float | None = None,
) -> list[float]:
    """Probabilities of the categories of ``experiment``, in label order.

    The arithmetic and the checks of :func:`mzsim.stats.build_model`,
    which documents the arguments.
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
    # looked up per call, so a wrapped predictor is the one called
    predictor = globals()[f"predict_{experiment}"]
    n0 = params.n0
    if n0 < 1:
        raise DomainError("n0 must be >= 1 to derive category probabilities")

    if visibility is not None:
        if hypothesis is not None:
            raise StructureError("pass either hypothesis or visibility, not both")
        if not 0.0 <= visibility <= 1.0:
            raise DomainError(f"visibility must be in [0, 1], got {visibility}")
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
    return probs


def _background(background, ncat: int) -> list[float]:
    """``background`` as ``ncat`` floats: a scalar, or 1 or ``ncat`` values."""
    if isinstance(background, numbers.Real):
        return [float(background)] * ncat
    try:
        values = [float(x) for x in background]
    except (TypeError, ValueError):
        values = []
    if len(values) == 1:
        values *= ncat
    if len(values) != ncat:
        raise StructureError(f"background must be a scalar or {ncat} values")
    return values


def _check_distinct(p0, p1) -> None:
    """Refuse two probability vectors that agree within ``MODEL_DISTINCTION_TOL``."""
    if max(abs(a - b) for a, b in zip(p0, p1)) <= MODEL_DISTINCTION_TOL:
        raise DegenerateComparisonError(
            "models are identical within tolerance; nothing to discriminate"
        )


def _zero_cell_hit_probability(p0, p1, alpha: float | None, method: str) -> float:
    """Probability under h1 of landing in a category impossible under h0.

    Zero means ``min_sample_size`` must search by power, which
    ``method = "closed_form"`` forbids and which needs ``alpha``.
    """
    p_hit = 0.0
    for a, b in zip(p0, p1):
        if a == 0.0:
            p_hit += b
    if p_hit == 0.0:
        if method == "closed_form":
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
    return p_hit


def _zero_cell_min_n(p_hit: float, power: float, quantile=None) -> int:
    """Smallest run whose first null-impossible count arrives with ``power``.

    That count arrives at a Geometric(``p_hit``) position, ``p_hit > 0``,
    so the answer is its ``power`` quantile: in closed form,
    ``ceil(ln(1 - power) / ln(1 - p_hit))``, or ``quantile(p_hit)``.
    An answer above ``MAX_SAMPLE_SIZE`` raises :class:`ResourceLimitError`.
    """
    if p_hit >= 1.0:
        return 1
    if quantile is None:
        ratio = math.log1p(-power) / math.log1p(-p_hit)
        # a subnormal p_hit gives an infinite ratio, which no integer holds
        n = max(1, math.ceil(ratio)) if ratio < math.inf else ratio
    else:
        n = quantile(p_hit)
    if n > MAX_SAMPLE_SIZE:
        raise ResourceLimitError(
            f"required sample size {n} exceeds the cap of {MAX_SAMPLE_SIZE}"
        )
    return n
