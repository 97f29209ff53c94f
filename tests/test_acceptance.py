"""End-to-end acceptance gates.

One test per criterion; each prints a PASS/FAIL line (visible with
``pytest -s``) and enforces its stated tolerance.  Every expected value
is either analytically forced or computed here by an independent
oracle (re-coded table expressions, quadrature, refined maxima,
geometric order statistics), never copied from the implementation.
"""

import contextlib
import math
import time

import numpy as np
import pytest
from scipy import integrate, optimize

from mzsim.cli import main
from mzsim.core import (
    CountTable,
    DecayParams,
    ExcitationParams,
    Hypothesis,
    PhotonParams,
)
from mzsim.fringes import FringeGeometry, calibration_patterns, coherent_intensity, incoherent_pattern
from mzsim.montecarlo import SimConfig, simulate_decay, simulate_excitation, simulate_photon
from mzsim.predict import predict_decay, predict_excitation, predict_photon
from mzsim.sectors import (
    SectorSpace,
    expectation,
    purity,
    random_density_matrix,
    random_sector_state,
    random_valid_observable,
    sector_matrix_element,
    superselect,
)
from mzsim.stats import build_model, discriminate, min_sample_size

LN2 = math.log(2.0)


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({title}): PASS")


def max_rel_err(actual, expected) -> float:
    worst = 0.0
    for a, b in zip(actual, expected):
        if a == b:
            continue
        worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst


def random_excitation(rng):
    return ExcitationParams(
        n0=int(rng.integers(100, 10**6)),
        epsilon=rng.uniform(0.05, 0.95),
        lam=rng.uniform(0.05, 2.0),
        t=rng.uniform(0.05, 2.0),
    )


def random_decay(rng):
    return DecayParams(
        n0=int(rng.integers(100, 10**6)),
        lam=rng.uniform(0.05, 2.0),
        t1=rng.uniform(0.05, 2.0),
        t2=rng.uniform(0.05, 2.0),
        t3=rng.uniform(0.05, 2.0),
        lam_prime=rng.uniform(0.05, 3.0),
    )


def random_photon(rng):
    return PhotonParams(
        n0=int(rng.integers(100, 10**6)),
        d=rng.uniform(0.05, 0.95),
        u=rng.uniform(0.05, 0.95),
    )


def test_criterion_1_excitation_table():
    with criterion(1, "excitation table reproduction"):
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            p = random_excitation(rng)
            s = math.exp(-p.lam * p.t)
            n0, eps = p.n0, p.epsilon
            pos_expected = ((1 - s * eps) * n0, s * eps * n0, 0.0, 0.0)
            ccqi_expected = (
                (1 - eps) * n0 + 0.5 * (1 - s) * eps * n0,
                0.5 * s * eps * n0,
                0.5 * (1 - s) * eps * n0,
                0.5 * s * eps * n0,
            )
            worst = max(
                worst,
                max_rel_err(predict_excitation(p, Hypothesis.POS).values(), pos_expected),
                max_rel_err(predict_excitation(p, Hypothesis.CCQI).values(), ccqi_expected),
            )
        elapsed = time.perf_counter() - start
        assert worst < 1e-12, f"max relative error {worst:g}"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_decay_tables():
    with criterion(2, "decay table reproduction incl. modified rate"):
        rng = np.random.default_rng(1002)
        worst = 0.0
        for _ in range(1000):
            p = random_decay(rng)
            n0 = p.n0
            e1 = math.exp(-p.lam * p.t1)
            e2 = math.exp(-p.lam * p.t2)
            e12 = math.exp(-p.lam * (p.t1 + p.t2))
            e_total = math.exp(-p.lam * (p.t1 + p.t2 + p.t3))
            pos_expected = ((1 - e_total) * n0, e_total * n0, 0.0, 0.0)
            ccqi_expected = (
                (1 - e_total - 0.5 * e1 + 0.5 * e12) * n0,
                e_total * n0,
                0.5 * e1 * (1 - e2) * n0,
                0.0,
            )
            survivors = math.exp(-p.lam * (p.t1 + p.t3) - p.lam_prime * p.t2)
            modified_expected = ((1 - survivors) * n0, survivors * n0, 0.0, 0.0)
            worst = max(
                worst,
                max_rel_err(predict_decay(p, Hypothesis.POS).values(), pos_expected),
                max_rel_err(predict_decay(p, Hypothesis.CCQI).values(), ccqi_expected),
                max_rel_err(
                    predict_decay(p, Hypothesis.MODIFIED_RATE).values(), modified_expected
                ),
            )
            # equal in-arm rate must reduce to the no-collapse prediction
            equal = DecayParams(
                n0=n0, lam=p.lam, t1=p.t1, t2=p.t2, t3=p.t3, lam_prime=p.lam
            )
            worst = max(
                worst,
                max_rel_err(
                    predict_decay(equal, Hypothesis.MODIFIED_RATE).values(),
                    predict_decay(equal, Hypothesis.POS).values(),
                ),
            )
        assert worst < 1e-12, f"max relative error {worst:g}"


def test_criterion_3_photon_table():
    with criterion(3, "photon table reproduction and counter gap"):
        rng = np.random.default_rng(1003)
        worst = 0.0
        for _ in range(1000):
            p = random_photon(rng)
            ud, n0 = p.u * p.d, p.n0
            pos_expected = (
                (0.25 + 0.75 * ud) * n0,
                0.25 * (1 - ud) * n0,
                0.5 * (1 - ud) * n0,
            )
            ccqi_expected = (
                0.25 * (1 + ud) * n0,
                0.25 * (1 + ud) * n0,
                0.5 * (1 - ud) * n0,
            )
            pos = predict_photon(p, Hypothesis.POS)
            ccqi = predict_photon(p, Hypothesis.CCQI)
            worst = max(
                worst,
                max_rel_err(pos.values(), pos_expected),
                max_rel_err(ccqi.values(), ccqi_expected),
                max_rel_err(
                    (pos.counter1 - ccqi.counter1, ccqi.counter2 - pos.counter2),
                    (0.5 * ud * n0, 0.5 * ud * n0),
                ),
            )
        assert worst < 1e-12, f"max relative error {worst:g}"


def test_criterion_4_monte_carlo_matches_predictions():
    with criterion(4, "Monte Carlo within 5 sigma of predictors"):
        rng = np.random.default_rng(1004)
        n0 = 10**6
        start = time.perf_counter()
        cases = []
        for k in range(20):
            exc = random_excitation(rng)
            exc = ExcitationParams(n0=n0, epsilon=exc.epsilon, lam=exc.lam, t=exc.t)
            dec = random_decay(rng)
            dec = DecayParams(
                n0=n0, lam=dec.lam, t1=dec.t1, t2=dec.t2, t3=dec.t3, lam_prime=dec.lam_prime
            )
            pho = random_photon(rng)
            pho = PhotonParams(n0=n0, d=pho.d, u=pho.u)
            for h in (Hypothesis.POS, Hypothesis.CCQI):
                cases.append((simulate_excitation, predict_excitation, exc, h))
                cases.append((simulate_photon, predict_photon, pho, h))
            for h in Hypothesis:
                cases.append((simulate_decay, predict_decay, dec, h))
        for i, (simulate, predict, params, h) in enumerate(cases):
            table = simulate(params, h, SimConfig(seed=9000 + i))
            predicted = predict(params, h)
            assert table.total == n0
            for tally, mean in zip(table.values(), predicted.values()):
                p = mean / n0
                sigma = math.sqrt(n0 * p * (1.0 - p))
                if sigma == 0.0:
                    assert tally == mean, f"{h} structural category violated"
                else:
                    assert abs(tally - mean) <= 5.0 * sigma, (
                        f"{simulate.__name__} {h}: tally {tally} vs mean {mean:.1f}, "
                        f"sigma {sigma:.1f}"
                    )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_5_conservation():
    with criterion(5, "conservation over random inputs"):
        rng = np.random.default_rng(1005)
        for i in range(10_000):
            kind = i % 3
            if kind == 0:
                params = random_excitation(rng)
                hypos = (Hypothesis.POS, Hypothesis.CCQI)
                predict, simulate = predict_excitation, simulate_excitation
            elif kind == 1:
                params = random_decay(rng)
                hypos = tuple(Hypothesis)
                predict, simulate = predict_decay, simulate_decay
            else:
                params = random_photon(rng)
                hypos = (Hypothesis.POS, Hypothesis.CCQI)
                predict, simulate = predict_photon, simulate_photon
            h = hypos[i % len(hypos)]
            assert predict(params, h).total == pytest.approx(params.n0, rel=1e-9)
            if i % 20 == 0:
                small = params.replace(n0=int(rng.integers(1, 400)))
                table = simulate(small, h, SimConfig(seed=i, chunk_size=128))
                assert table.total == small.n0
                assert all(isinstance(v, int) for v in table.values())


def test_criterion_6_superselection_suite():
    with criterion(6, "superselection algebra"):
        rng = np.random.default_rng(1006)
        for _ in range(1000):
            n_sectors = int(rng.integers(2, 5))
            dims = []
            budget = 16 - n_sectors
            for _ in range(n_sectors):
                extra = int(rng.integers(0, budget + 1))
                dims.append(1 + extra)
                budget -= extra
            space = SectorSpace(tuple(dims))

            a = random_valid_observable(space, rng)
            i, j = rng.choice(space.n_sectors, size=2, replace=False)
            psi = random_sector_state(space, int(i), rng)
            phi = random_sector_state(space, int(j), rng)
            assert abs(sector_matrix_element(a, psi, phi)) < 1e-10

            rho = random_density_matrix(
                space, rng, rank=int(rng.integers(1, space.total_dim + 1))
            )
            projected = superselect(rho)
            assert np.array_equal(superselect(projected).matrix, projected.matrix)
            assert np.trace(projected.matrix) == np.trace(rho.matrix)
            assert purity(projected) <= purity(rho) + 1e-12
            assert abs(expectation(a, rho) - expectation(a, projected)) < 1e-10


def test_criterion_7_fringe_checks():
    with criterion(7, "fringe period, energy mean, calibration sum"):
        geo = FringeGeometry(
            source_separation=1e-3,
            wavelength=5e-7,
            screen_distance=1.0,
            x_min=-0.005,
            x_max=0.005,
            n_points=4001,
        )
        period = geo.fringe_period

        maxima = []
        for k in range(6):
            res = optimize.minimize_scalar(
                lambda x: -float(coherent_intensity(geo, x)),
                bounds=((k - 0.3) * period, (k + 0.3) * period),
                method="bounded",
                options={"xatol": period * 1e-13},
            )
            maxima.append(res.x)
        spacings = np.diff(maxima)
        assert np.max(np.abs(spacings - period) / period) < 1e-9

        for k in (1, 4):
            total, _ = integrate.quad(
                lambda x: float(coherent_intensity(geo, x)), 0.0, k * period, limit=200
            )
            mean = total / (k * period)
            assert abs(mean - 2.0) < 1e-9

        flat = incoherent_pattern(geo).intensity
        assert np.all(flat == 2.0)
        plate = sum(p.intensity for p in calibration_patterns(geo))
        assert np.array_equal(plate / 2.0, flat)


def test_criterion_8_discrimination_design():
    with criterion(8, "zero-cell design: 66 atoms, p=0 rejection"):
        params = ExcitationParams(n0=10_000, epsilon=0.2, lam=1.0, t=LN2)
        h0 = build_model("excitation", params, Hypothesis.POS)
        h1 = build_model("excitation", params, Hypothesis.CCQI)

        assert min_sample_size(h0, h1, None, 0.999) == 66
        simulated = min_sample_size(
            h0, h1, None, 0.999, method="simulation", replicates=10**6, seed=8
        )
        assert abs(simulated - 66) <= 1

        report = discriminate(CountTable(8999, 1000, 1, 0), h0, h1, alpha=0.01)
        assert report.p_value_h0 == 0.0
        assert report.decision == "favor_H1"


def test_criterion_9_deterministic_cli_output(tmp_path):
    with criterion(9, "byte-identical CSV across runs and worker counts"):
        base = (
            "[experiment]\n"
            "experiment = excitation\n"
            "hypothesis = ccqi\n"
            "n0 = 200000\n"
            "epsilon = 0.3\n"
            "lambda = 0.8\n"
            "t = 0.9\n"
            "[simulation]\n"
            "seed = 4242\n"
            "chunk_size = 4096\n"
            "workers = {workers}\n"
        )
        outputs = {}
        for tag, workers in (("first", 1), ("second", 1), ("eight", 8)):
            cfg = tmp_path / f"{tag}.cfg"
            cfg.write_text(base.format(workers=workers))
            out = tmp_path / f"{tag}.csv"
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            outputs[tag] = out.read_bytes()
        assert outputs["first"] == outputs["second"]
        assert outputs["first"] == outputs["eight"]
