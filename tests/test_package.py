import pytest

import mzsim
from mzsim import core, fringes, montecarlo


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from mzsim import *", namespace)
    assert set(mzsim.__all__) <= set(namespace)
    assert namespace["discriminate"] is mzsim.stats.discriminate
    assert namespace["simulate_photon"] is montecarlo.simulate_photon


def test_all_is_pinned():
    assert mzsim.__all__ == [
        "Hypothesis", "ExcitationParams", "DecayParams", "PhotonParams", "CountTable",
        "ATOM_LABELS", "PHOTON_LABELS", "Experiment", "EXPERIMENTS", "SimConfig",
        "FringeGeometry", "survival_fraction", "purity_time_offset",
        "MzsimError", "DomainError", "UnsupportedHypothesisError", "StructureError",
        "ContractError", "GeometryError", "DegenerateComparisonError",
        "ResourceLimitError", "ConfigError",
        "predict_excitation", "predict_decay", "predict_photon",
        "RunConfig", "parse_config",
        "FringeProfile", "coherent_intensity", "coherent_pattern", "incoherent_pattern",
        "calibration_patterns",
        "chunk_rng", "simulate_excitation", "simulate_decay", "simulate_photon",
        "SectorSpace", "SectorObservable", "StateVector", "DensityMatrix",
        "is_valid_observable", "sector_matrix_element", "superselect", "purity",
        "CategoryModel", "DiscriminationReport", "build_model", "log_likelihood",
        "discriminate", "min_sample_size",
        "__version__",
    ]


def test_dir_covers_all():
    assert set(mzsim.__all__) <= set(dir(mzsim))


def test_records_are_shared_with_the_numpy_layers():
    assert montecarlo.SimConfig is core.SimConfig is mzsim.SimConfig
    assert fringes.FringeGeometry is core.FringeGeometry is mzsim.FringeGeometry


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mzsim.no_such_name
