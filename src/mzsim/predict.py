"""Closed-form expected detector counts for the three experiments.

Each function maps an apparatus parameter record and a routing
hypothesis to the full table of expected counts.  Tables are
real-valued expectations (rounding is a presentation concern) and
always sum to the number of particles sent.  Beam splitters are taken
as lossless and exactly 50/50 and the interferometers as perfectly
tuned.
"""

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
from .errors import DomainError

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
