"""Reference answers the benchmark checks mzsim's outputs against.

Everything here is coded from the physics and the statistics, not from
mzsim: closed-form count tables, fringe intensities, and an exact
multinomial enumeration for p-values and power.  Only numpy is used.
"""

import math

import numpy as np

PREDICT_REL_TOL = 1e-12
Z_LIMIT = 5.0
# MC answers are accepted this many binomial sigmas from the exact band
MC_SIGMAS = 6.0
# LLR values closer than this (relative) count as ties
TIE_REL_TOL = 1e-9

ATOM_LABELS = ("na1", "na2", "nb1", "nb2")
PHOTON_LABELS = ("counter1", "counter2", "lost")


def labels_for(experiment: str) -> tuple[str, ...]:
    return PHOTON_LABELS if experiment == "photon" else ATOM_LABELS


def probabilities(experiment: str, hypothesis: str, p: dict) -> list[float]:
    """Per-category probabilities of one particle, from the paper's routing rules."""
    if experiment == "excitation":
        eps, s = p["epsilon"], math.exp(-p["lambda"] * p["t"])
        if hypothesis == "pos":
            return [1.0 - eps * s, eps * s, 0.0, 0.0]
        # collapsed excited atoms split 50/50; survivors stay excited
        half_alive, half_dead = 0.5 * eps * s, 0.5 * eps * (1.0 - s)
        return [1.0 - eps + half_dead, half_alive, half_dead, half_alive]
    if experiment == "decay":
        lam, mu = p["lambda"], p.get("mu", 1.0)
        t1, t2, t3 = p["t1"], p["t2"], p["t3"]
        if hypothesis == "modified_rate":
            alive = mu * math.exp(-lam * (t1 + t3)) * math.exp(-p["lambda_prime"] * t2)
            return [1.0 - alive, alive, 0.0, 0.0]
        alive = mu * math.exp(-lam * (t1 + t2 + t3))
        if hypothesis == "pos":
            return [1.0 - alive, alive, 0.0, 0.0]
        inside = mu * math.exp(-lam * t1) * -math.expm1(-lam * t2)
        return [1.0 - alive - 0.5 * inside, alive, 0.5 * inside, 0.0]
    ud = p["u"] * p["d"]
    if hypothesis == "pos":
        return [0.25 + 0.75 * ud, 0.25 * (1.0 - ud), 0.5 * (1.0 - ud)]
    return [0.25 * (1.0 + ud), 0.25 * (1.0 + ud), 0.5 * (1.0 - ud)]


def expected_counts(experiment: str, hypothesis: str, p: dict) -> list[float]:
    return [q * p["n0"] for q in probabilities(experiment, hypothesis, p)]


def close(got: float, want: float, rel: float = PREDICT_REL_TOL) -> bool:
    return got == want or abs(got - want) <= rel * abs(want)


def z_score(tally: int, prob: float, n0: int) -> float:
    """Binomial z of one cell; a cell of probability 0 or 1 must be exact."""
    if prob <= 0.0 or prob >= 1.0:
        return 0.0 if tally == round(prob * n0) else math.inf
    return (tally - n0 * prob) / math.sqrt(n0 * prob * (1.0 - prob))


def coherent_intensity(g: dict, x: np.ndarray) -> np.ndarray:
    """Two equal coherent point sources, small-angle far field."""
    k = math.pi * g["source_separation"] / (g["wavelength"] * g["screen_distance"])
    return 2.0 + 2.0 * np.cos(2.0 * k * x)


def model(design: dict) -> tuple[np.ndarray, np.ndarray]:
    """(p0, p1) of a stats design, with visibility mixing and background."""
    exp, params = design["experiment"], design["params"]
    pos = np.array(probabilities(exp, "pos", params))
    ccqi = np.array(probabilities(exp, "ccqi", params))
    v = design.get("visibility")
    p0 = pos if v is None else v * pos + (1.0 - v) * ccqi
    p1 = ccqi
    b = design.get("background")
    if b is not None:
        p0 = (p0 + b) / (1.0 + b * len(p0))
        p1 = (p1 + b) / (1.0 + b * len(p1))
    return p0, p1


def compositions(n: int, k: int) -> np.ndarray:
    """Every vector of k non-negative integers summing to n (k in 3, 4)."""
    def three(m: int) -> np.ndarray:
        i, j = np.triu_indices(m + 1)
        return np.stack([i, j - i, m - j], axis=1)

    if k == 3:
        return three(n)
    return np.concatenate(
        [np.column_stack([three(n - d), np.full((n - d + 1) * (n - d + 2) // 2, d)])
         for d in range(n + 1)]
    )


class ExactTest:
    """Exact likelihood-ratio test of p0 against p1 at one sample size.

    Enumerates the multinomial support once; p-values of outcomes are
    the null mass at LLR at least as large, with ties taken both ways
    (``strict`` excludes them, ``inclusive`` counts them), so an answer
    that depends on floating-point luck at a tie is accepted either way.
    """

    def __init__(self, p0: np.ndarray, p1: np.ndarray, n: int):
        both_zero = (p0 == 0) & (p1 == 0)
        if np.any((p0 == 0) != (p1 == 0)):
            raise ValueError("designs with one-sided structural zeros are not enumerated")
        x = compositions(n, len(p0))
        x = x[~np.any(x[:, both_zero] > 0, axis=1)]
        live = ~both_zero
        lgam = np.array([math.lgamma(i + 1) for i in range(n + 1)])
        base = math.lgamma(n + 1) - lgam[x].sum(axis=1)
        logp0, logp1 = np.log(p0[live]), np.log(p1[live])
        xs = x[:, live]
        self.w = logp1 - logp0
        self.live = live
        self.llr = xs @ self.w
        self.m0 = np.exp(base + xs @ logp0)
        self.m1 = np.exp(base + xs @ logp1)
        order = np.argsort(self.llr, kind="stable")
        self._sorted = self.llr[order]
        self._tail = np.cumsum(self.m0[order][::-1])[::-1]
        self._tail = np.append(self._tail, 0.0)

    def llr_of(self, counts) -> float:
        return float(np.asarray(counts, dtype=float)[self.live] @ self.w)

    def _tol(self, llr):
        return TIE_REL_TOL * np.maximum(1.0, np.abs(llr))

    def p_value_band(self, llr):
        """(strict, inclusive) exact p-values of an observed LLR (array-safe)."""
        tol = self._tol(llr)
        strict = self._tail[np.searchsorted(self._sorted, llr + tol, side="right")]
        inclusive = self._tail[np.searchsorted(self._sorted, llr - tol, side="left")]
        return strict, inclusive

    def power_band(self, alpha_lo: float, alpha_hi: float) -> tuple[float, float]:
        """Least and greatest h1 rejection probability for alpha in [lo, hi]."""
        strict, inclusive = self.p_value_band(self.llr)
        return (float(self.m1[inclusive <= alpha_lo].sum()),
                float(self.m1[strict <= alpha_hi].sum()))


def mc_slack(p: float, replicates: int) -> float:
    return MC_SIGMAS * math.sqrt(max(p * (1.0 - p), 0.0) / replicates) + 2.0 / replicates


def alpha_band(alpha: float, replicates: int) -> tuple[float, float]:
    s = mc_slack(alpha, replicates)
    return max(alpha - s, 0.0), alpha + s
