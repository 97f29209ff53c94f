"""The sector algebra as the physics oracle of the closed-form tables.

Each hypothesis is a quantum channel on the particle's density matrix:
POS keeps every path coherence, and CCQI pinches the state onto the
superselection sectors that emission or absorption labels
(:func:`mzsim.sectors.superselect`).  The counters read the recombined
path ``(|a> +- |b>) / sqrt(2)``, and a table is the Born probabilities
of their POVM elements times ``n0``.  The derivations below use only
the public API of :mod:`mzsim.sectors`, and never the predictors'
formulas.
"""

import math

import numpy as np
import pytest

from mzsim.core import EXPERIMENTS, DecayParams, ExcitationParams, Hypothesis, PhotonParams
from mzsim.predict import predict_decay, predict_excitation, predict_photon
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
H = 1.0 / math.sqrt(2.0)

# excitation: (g,a), (g,b) | (e,a) | (e,b).  An atom that absorbed the
# photon in arm a or in arm b lies in a sector of its own; one that did not
# keeps both paths in one sector
ATOM_SPACE = SectorSpace((2, 1, 1))
# decay: each label's paths a, b, the atom labelled by the flight segment in
# which it decayed: never (e,a), (e,b) | before the interferometer (1,a), (1,b)
# | in arm a (2,a) | in arm b (2,b) | after it (3,a), (3,b).  Only an in-arm
# decay marks the arm the atom took
DECAY_SPACE = SectorSpace((2, 2, 1, 1, 2))
# photon: device arm D | empty arm E | lost L
PHOTON_SPACE = SectorSpace((1, 1, 1))


def outer(amplitudes):
    """``|phi><phi|`` for ``phi`` given by its amplitudes."""
    phi = np.asarray(amplitudes, dtype=complex)
    return np.outer(phi, phi.conj())


def table(rho, povm):
    """The Born probability of each POVM element in ``rho``."""
    return [expectation(SectorObservable(element, rho.space), rho) for element in povm]


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


def excitation_povm(survival):
    """(na1, na2, nb1, nb2): the counters read the recombined path, column 2
    the excited atoms; decay in flight moves an excited atom from column 2 to
    column 1 on its path."""
    povm = []
    for sign in (1.0, -1.0):
        ground, excited = outer([H, sign * H, 0.0, 0.0]), outer([0.0, 0.0, H, sign * H])
        povm += [ground + (1.0 - survival) * excited, survival * excited]
    return povm


def on_label(label, path):
    """``DECAY_SPACE`` amplitudes: ``path`` over (a, b) on the ``label``-th label."""
    amplitudes = [0.0] * DECAY_SPACE.total_dim
    amplitudes[2 * label:2 * label + 2] = path
    return amplitudes


def decay_povm():
    """(na1, na2, nb1, nb2): the counters read each label's recombined path,
    column 2 the atoms never decayed."""
    povm = []
    for sign in (1.0, -1.0):
        reads = [outer(on_label(label, [H, sign * H])) for label in range(4)]
        povm += [reads[1] + reads[2] + reads[3], reads[0]]
    return povm


def photon_state():
    return pure_density(StateVector([H, H, 0.0], PHOTON_SPACE))


def split_and_recombine(rho, ud):
    """With probability ``u * d`` the device arm passes; otherwise its photon is lost."""
    keep = math.sqrt(ud)
    lose = math.sqrt(1.0 - ud)
    return channel(rho, [
        np.diag([keep, keep, keep]),
        [[0.0, 0.0, 0.0], [0.0, lose, 0.0], [lose, 0.0, 0.0]],  # D -> L, E kept
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, lose]],
    ])


def photon_povm():
    """(counter1, counter2, lost)."""
    return [outer([H, H, 0.0]), outer([H, -H, 0.0]), outer([0.0, 0.0, 1.0])]


def excitation_channel(params, hypothesis):
    rho = excitation_state(params.epsilon)
    return rho if hypothesis is Hypothesis.POS else superselect(rho)


def decay_channel(params, hypothesis):
    """The atom at the counters: a mixture over the segment in which it
    decayed, each label's path the superposition the first splitter made.
    CCQI pinches the in-arm decays; MODIFIED_RATE is POS with the in-arm
    rate ``lam_prime``."""
    in_arm = params.lam_prime if hypothesis is Hypothesis.MODIFIED_RATE else params.lam
    # an atom the source left unexcited (1 - mu) is ground before the interferometer
    s1 = params.mu * math.exp(-params.lam * params.t1)
    s2 = math.exp(-in_arm * params.t2)
    s3 = math.exp(-params.lam * params.t3)
    weights = [s1 * s2 * s3, 1.0 - s1, s1 * (1.0 - s2), s1 * s2 * (1.0 - s3)]
    rho = DensityMatrix(
        sum(w * outer(on_label(label, [H, H])) for label, w in enumerate(weights)), DECAY_SPACE
    )
    return superselect(rho) if hypothesis is Hypothesis.CCQI else rho


def photon_channel(params, hypothesis):
    rho = photon_state()
    if hypothesis is Hypothesis.CCQI:
        rho = superselect(rho)
    return split_and_recombine(rho, params.u * params.d)


def dark_mixture(rho, povm, background):
    """``rho`` mixed with a dark state, in which counter category ``i`` fires
    on its own with weight ``background[i]``: one sector per category is
    appended, and each POVM element also reads its category's dark state."""
    n, k = rho.space.total_dim, len(background)
    mixed = np.zeros((n + k, n + k), dtype=complex)
    mixed[:n, :n] = rho.matrix
    mixed[n:, n:] = np.diag(background)
    space = SectorSpace(rho.space.sector_dims + (1,) * k)
    dark_povm = []
    for i, element in enumerate(povm):
        padded = np.zeros_like(mixed)
        padded[:n, :n] = element
        padded[n + i, n + i] = 1.0
        dark_povm.append(padded)
    return DensityMatrix(mixed / (1.0 + sum(background)), space), dark_povm


def random_excitation(rng):
    return ExcitationParams(n0=int(rng.integers(1, 10**6)), epsilon=rng.uniform(0.0, 1.0),
                            lam=rng.uniform(0.0, 3.0), t=rng.uniform(0.0, 3.0))


def random_decay(rng):
    # half the draws at a source purity below 1, which needs lam > 0
    return DecayParams(n0=int(rng.integers(1, 10**6)), lam=rng.uniform(0.01, 3.0),
                       t1=rng.uniform(0.0, 3.0), t2=rng.uniform(0.0, 3.0),
                       t3=rng.uniform(0.0, 3.0), lam_prime=rng.uniform(0.0, 3.0),
                       mu=rng.choice([1.0, rng.uniform(0.05, 1.0)]))


def random_photon(rng):
    return PhotonParams(n0=int(rng.integers(1, 10**6)), d=rng.uniform(0.0, 1.0),
                        u=rng.uniform(0.0, 1.0))


# each experiment's random params, channel and POVM; a POVM may read the params
EXPERIMENT_CHANNELS = {
    "excitation": (random_excitation, excitation_channel,
                   lambda p: excitation_povm(math.exp(-p.lam * p.t))),
    "decay": (random_decay, decay_channel, lambda p: decay_povm()),
    "photon": (random_photon, photon_channel, lambda p: photon_povm()),
}
PREDICTORS = {"excitation": predict_excitation, "decay": predict_decay,
              "photon": predict_photon}
CASES = [(name, h) for name, kind in EXPERIMENTS.items() for h in kind.hypotheses]


def assert_table(derived, table, n0):
    values = table.values()
    assert len(derived) == len(values)
    for got, want in zip(derived, values):
        assert abs(got * n0 - want) <= TABLE_TOL * n0, (derived, values)


@pytest.mark.parametrize("experiment, hypothesis", CASES, ids=lambda x: getattr(x, "name", x))
def test_tables_are_born_probabilities_of_the_channel(experiment, hypothesis):
    draw, prepare, povm = EXPERIMENT_CHANNELS[experiment]
    rng = np.random.default_rng(180)
    for _ in range(DRAWS):
        params = draw(rng)
        derived = table(prepare(params, hypothesis), povm(params))
        assert_table(derived, PREDICTORS[experiment](params, hypothesis), params.n0)


@pytest.mark.parametrize("experiment", ["excitation", "photon"])
def test_visibility_is_the_partial_pinching(experiment):
    # visibility v mixes the tables as v * POS + (1 - v) * CCQI: the Born
    # probabilities of the same mixture of the two states, which, the channels
    # being linear, is the partial pinching rho -> v * rho + (1 - v) * superselect(rho)
    draw, prepare, povm = EXPERIMENT_CHANNELS[experiment]
    rng = np.random.default_rng(182)
    for _ in range(DRAWS // 5):
        params, v = draw(rng), rng.uniform(0.0, 1.0)
        pos, ccqi = prepare(params, Hypothesis.POS), prepare(params, Hypothesis.CCQI)
        rho = DensityMatrix(v * pos.matrix + (1.0 - v) * ccqi.matrix, pos.space)
        model = build_model(experiment, params, visibility=v)
        for got, want in zip(table(rho, povm(params)), model.probabilities):
            assert abs(got - want) <= 4 * TABLE_TOL, experiment


@pytest.mark.parametrize("experiment, hypothesis", CASES, ids=lambda x: getattr(x, "name", x))
def test_background_is_a_mixture_with_a_dark_state(experiment, hypothesis):
    # a background b adds b_i to category i and renormalizes: the Born
    # probabilities of the particle's state mixed with a dark state of weight sum(b)
    draw, prepare, povm = EXPERIMENT_CHANNELS[experiment]
    rng = np.random.default_rng(183)
    for _ in range(DRAWS // 5):
        params = draw(rng)
        ncat = len(EXPERIMENTS[experiment].labels)
        background = rng.dirichlet(np.ones(ncat)) * rng.uniform(0.0, 1.0)
        rho, dark_povm = dark_mixture(prepare(params, hypothesis), povm(params), background)
        model = build_model(experiment, params, hypothesis, background=list(background))
        for got, want in zip(table(rho, dark_povm), model.probabilities):
            assert abs(got - want) <= 4 * TABLE_TOL, experiment
