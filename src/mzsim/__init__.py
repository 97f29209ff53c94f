"""Simulation and analysis toolkit for interferometer tests of
superposition suppression.

The package answers one question three ways: if photon emission or
absorption collapsed path superpositions, what would detector counts
look like, and how many particles does it take to notice?

* :mod:`mzsim.predict` gives closed-form expected count tables per
  experiment and routing hypothesis.
* :mod:`mzsim.montecarlo` samples the same experiments at count level,
  exact in distribution and reproducible, as an independent
  cross-check and a source of realistic finite-sample fluctuations.
* :mod:`mzsim.fringes` renders the coherent-versus-incoherent screen
  patterns for the annihilation-photon variant.
* :mod:`mzsim.sectors` implements the superselection-sector algebra
  that makes "forbidden superposition" precise.
* :mod:`mzsim.stats` turns count data into decisions: exact
  likelihood-ratio tests and minimum-sample-size planning.
* :mod:`mzsim.cli` wires everything to config files and CSV/JSON.
"""

from .core import (
    ATOM_LABELS,
    EXPERIMENTS,
    PHOTON_LABELS,
    CountTable,
    DecayParams,
    ExcitationParams,
    Experiment,
    Hypothesis,
    PhotonParams,
    purity_time_offset,
    survival_fraction,
)
from .errors import (
    ConfigError,
    ContractError,
    DegenerateComparisonError,
    DomainError,
    GeometryError,
    MzsimError,
    ResourceLimitError,
    StructureError,
    UnsupportedHypothesisError,
)
from .fringes import (
    FringeGeometry,
    FringeProfile,
    calibration_patterns,
    coherent_intensity,
    coherent_pattern,
    incoherent_pattern,
)
from .montecarlo import (
    SimConfig,
    chunk_rng,
    simulate_decay,
    simulate_excitation,
    simulate_photon,
)
from .predict import predict_decay, predict_excitation, predict_photon
from .sectors import (
    DensityMatrix,
    SectorObservable,
    SectorSpace,
    StateVector,
    is_valid_observable,
    purity,
    sector_matrix_element,
    superselect,
)
from .stats import (
    CategoryModel,
    DiscriminationReport,
    build_model,
    discriminate,
    log_likelihood,
    min_sample_size,
)
from .config import RunConfig, parse_config

__version__ = "0.1.0"

__all__ = [
    "Hypothesis",
    "ExcitationParams",
    "DecayParams",
    "PhotonParams",
    "CountTable",
    "ATOM_LABELS",
    "PHOTON_LABELS",
    "Experiment",
    "EXPERIMENTS",
    "survival_fraction",
    "purity_time_offset",
    "predict_excitation",
    "predict_decay",
    "predict_photon",
    "SimConfig",
    "chunk_rng",
    "simulate_excitation",
    "simulate_decay",
    "simulate_photon",
    "FringeGeometry",
    "FringeProfile",
    "coherent_intensity",
    "coherent_pattern",
    "incoherent_pattern",
    "calibration_patterns",
    "SectorSpace",
    "SectorObservable",
    "StateVector",
    "DensityMatrix",
    "is_valid_observable",
    "sector_matrix_element",
    "superselect",
    "purity",
    "CategoryModel",
    "DiscriminationReport",
    "build_model",
    "log_likelihood",
    "discriminate",
    "min_sample_size",
    "RunConfig",
    "parse_config",
    "MzsimError",
    "DomainError",
    "UnsupportedHypothesisError",
    "StructureError",
    "ContractError",
    "GeometryError",
    "DegenerateComparisonError",
    "ResourceLimitError",
    "ConfigError",
    "__version__",
]
