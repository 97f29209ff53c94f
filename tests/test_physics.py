"""The sector algebra as the physics oracle of the closed-form tables.

Each hypothesis is a quantum channel on the particle's density matrix:
POS keeps every path coherence, and CCQI pinches the state onto the
superselection sectors that emission or absorption labels
(:func:`mzsim.sectors.superselect`).  The counters read the recombined
path ``(|a> +- |b>) / sqrt(2)``, and a table is the Born probabilities
of their projectors times ``n0``.  The derivations below use only the
public API of :mod:`mzsim.sectors`, and never the predictors' formulas.
"""

import math

import numpy as np
import pytest

from mzsim.core import ExcitationParams, Hypothesis, PhotonParams
from mzsim.predict import predict_excitation, predict_photon
from mzsim.sectors import (
    DensityMatrix,
    SectorObservable,
    SectorSpace,
    StateVector,
    expectation,
    pure_density,
    superselect,
)
from mzsim.stats import build_model

# a derived table matches the predictor within this fraction of n0
TABLE_TOL = 1e-15
DRAWS = 500

# excitation: (g,a), (g,b) | (e,a) | (e,b).  An atom that absorbed the
# photon in arm a or in arm b lies in a sector of its own; one that did not
# keeps both paths in one sector
ATOM_SPACE = SectorSpace((2, 1, 1))
# photon: device arm D | empty arm E | lost L
PHOTON_SPACE = SectorSpace((1, 1, 1))


def projector(amplitudes, space):
    """``|phi><phi|`` as an observable, ``phi`` given by its amplitudes."""
    phi = np.asarray(amplitudes, dtype=complex)
    return SectorObservable(np.outer(phi, phi.conj()), space)


def born(rho, amplitudes):
    return expectation(projector(amplitudes, rho.space), rho)


def channel(rho, kraus):
    """``sum K rho K^dagger`` over the Kraus operators ``kraus``."""
    k = [np.asarray(op, dtype=complex) for op in kraus]
    identity = sum(op.conj().T @ op for op in k)
    assert np.allclose(identity, np.eye(rho.space.total_dim), rtol=0.0, atol=1e-15)
    return DensityMatrix(sum(op @ rho.matrix @ op.conj().T for op in k), rho.space)


def excitation_state(epsilon):
    """The atom after the excitation stage: both paths, excited with probability epsilon."""
    g, e = math.sqrt((1.0 - epsilon) / 2.0), math.sqrt(epsilon / 2.0)
    return pure_density(StateVector([g, g, e, e], ATOM_SPACE))


def excitation_table(rho, survival):
    """(na1, na2, nb1, nb2) per atom: the counters read the recombined path,
    column 2 the excited atoms; decay in flight moves an excited atom from
    column 2 to column 1 on its path."""
    h = 1.0 / math.sqrt(2.0)
    table = []
    for sign in (1.0, -1.0):
        ground = born(rho, [h, sign * h, 0.0, 0.0])
        excited = born(rho, [0.0, 0.0, h, sign * h])
        table += [ground + (1.0 - survival) * excited, survival * excited]
    return table


def photon_state():
    return pure_density(StateVector([1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0],
                                    PHOTON_SPACE))


def split_and_recombine(rho, ud):
    """With probability ``u * d`` the device arm passes; otherwise its photon is lost."""
    keep = math.sqrt(ud)
    lose = math.sqrt(1.0 - ud)
    return channel(rho, [
        np.diag([keep, keep, keep]),
        [[0.0, 0.0, 0.0], [0.0, lose, 0.0], [lose, 0.0, 0.0]],  # D -> L, E kept
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, lose]],
    ])


def photon_table(rho):
    """(counter1, counter2, lost) per photon."""
    h = 1.0 / math.sqrt(2.0)
    return [born(rho, [h, h, 0.0]), born(rho, [h, -h, 0.0]), born(rho, [0.0, 0.0, 1.0])]


def excitation_channel(params, hypothesis):
    rho = excitation_state(params.epsilon)
    return rho if hypothesis is Hypothesis.POS else superselect(rho)


def photon_channel(params, hypothesis):
    rho = photon_state()
    if hypothesis is Hypothesis.CCQI:
        rho = superselect(rho)
    return split_and_recombine(rho, params.u * params.d)


def random_excitation(rng):
    return ExcitationParams(n0=int(rng.integers(1, 10**6)), epsilon=rng.uniform(0.0, 1.0),
                            lam=rng.uniform(0.0, 3.0), t=rng.uniform(0.0, 3.0))


def random_photon(rng):
    return PhotonParams(n0=int(rng.integers(1, 10**6)), d=rng.uniform(0.0, 1.0),
                        u=rng.uniform(0.0, 1.0))


def assert_table(derived, table, n0):
    values = table.values()
    assert len(derived) == len(values)
    for got, want in zip(derived, values):
        assert abs(got * n0 - want) <= TABLE_TOL * n0, (derived, values)


@pytest.mark.parametrize("hypothesis", [Hypothesis.POS, Hypothesis.CCQI])
def test_excitation_tables_are_born_probabilities_of_the_channel(hypothesis):
    rng = np.random.default_rng(180)
    for _ in range(DRAWS):
        params = random_excitation(rng)
        rho = excitation_channel(params, hypothesis)
        survival = math.exp(-params.lam * params.t)
        assert_table(excitation_table(rho, survival), predict_excitation(params, hypothesis),
                     params.n0)


@pytest.mark.parametrize("hypothesis", [Hypothesis.POS, Hypothesis.CCQI])
def test_photon_tables_are_born_probabilities_of_the_channel(hypothesis):
    rng = np.random.default_rng(181)
    for _ in range(DRAWS):
        params = random_photon(rng)
        rho = photon_channel(params, hypothesis)
        assert_table(photon_table(rho), predict_photon(params, hypothesis), params.n0)


@pytest.mark.parametrize("experiment, draw, prepare, read", [
    ("excitation", random_excitation, excitation_channel,
     lambda rho, p: excitation_table(rho, math.exp(-p.lam * p.t))),
    ("photon", random_photon, photon_channel, lambda rho, p: photon_table(rho)),
])
def test_visibility_is_the_partial_pinching(experiment, draw, prepare, read):
    # visibility v mixes the tables as v * POS + (1 - v) * CCQI: the Born
    # probabilities of the same mixture of the two states, which, the channels
    # being linear, is the partial pinching rho -> v * rho + (1 - v) * superselect(rho)
    rng = np.random.default_rng(182)
    for _ in range(DRAWS // 5):
        params, v = draw(rng), rng.uniform(0.0, 1.0)
        pos, ccqi = prepare(params, Hypothesis.POS), prepare(params, Hypothesis.CCQI)
        rho = DensityMatrix(v * pos.matrix + (1.0 - v) * ccqi.matrix, pos.space)
        model = build_model(experiment, params, visibility=v)
        for got, want in zip(read(rho, params), model.probabilities):
            assert abs(got - want) <= 4 * TABLE_TOL, experiment
