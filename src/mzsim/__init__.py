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
  likelihood-ratio tests and minimum-sample-size planning.  It holds
  every rule of the test and its exact engine.
* :mod:`mzsim.cli` wires everything to config files and CSV/JSON.

``import mzsim`` loads only the standard-library layers (:mod:`~mzsim.core`,
:mod:`~mzsim.errors`, :mod:`~mzsim.predict`, :mod:`~mzsim.config`), so
closed-form predictions and configuration checks never import numpy.
The other modules are bound lazily: each one runs on the first access
to one of its attributes, including the names this package re-exports
from it.  None of the four imports numpy then:
``fringes`` computes its profiles in pure Python and loads numpy only
for a ``FringeProfile``'s ``positions`` and ``intensity`` arrays and
for :func:`~mzsim.fringes.coherent_intensity` of an array,
``montecarlo`` samples in pure Python, each run from one PCG64 state,
and loads numpy only in ``chunk_rng``, which returns the numpy
generator that starts from that state, ``sectors`` keeps its
matrices as Python complex numbers and loads numpy only for their
``matrix`` and ``amplitudes`` arrays, sector labels and its ``random_*``
builders, and ``stats`` loads it only for a
``CategoryModel.probabilities`` array and for its seeded simulations.
So of the CLI's requests only ``plan`` with ``method = simulation`` and
the seeded tests above ``stats.ROW_CAP`` import numpy.  None imports
:mod:`json`: :mod:`mzsim.cli` writes its JSON itself, byte for byte
what ``json.dumps`` writes.  And ``stats``' exact engine keeps its
binomial tails in lists, so ``discriminate`` and ``plan`` below
``ROW_CAP`` load no :mod:`array` either.
"""

import importlib.util
import sys

# each standard-library layer's exports are the names its __all__ lists
from .core import *
from .errors import *
from .predict import *
from .config import RunConfig, parse_config
from . import core, errors, predict


def _lazy(name: str):
    """The submodule ``name``, bound now and executed on first attribute access."""
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


fringes = _lazy("fringes")
montecarlo = _lazy("montecarlo")
sectors = _lazy("sectors")
stats = _lazy("stats")

# re-exported names served from the lazily bound modules
_LAZY_NAMES = {
    name: module
    for module, names in (
        (fringes, ("FringeProfile", "coherent_intensity", "coherent_pattern",
                   "incoherent_pattern", "calibration_patterns")),
        (montecarlo, ("chunk_rng", "simulate_excitation", "simulate_decay",
                      "simulate_photon")),
        (sectors, ("SectorSpace", "SectorObservable", "StateVector", "DensityMatrix",
                   "is_valid_observable", "sector_matrix_element", "superselect",
                   "purity")),
        (stats, ("CategoryModel", "DiscriminationReport", "build_model",
                 "log_likelihood", "discriminate", "min_sample_size")),
    )
    for name in names
}


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY_NAMES})


__version__ = "0.1.0"

# what each standard-library layer exports, plus the lazily served names;
# listing the lazy ones loads none of their modules
__all__ = [
    *core.__all__,
    *errors.__all__,
    *predict.__all__,
    "RunConfig",
    "parse_config",
    *_LAZY_NAMES,
    "__version__",
]
