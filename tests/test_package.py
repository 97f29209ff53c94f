import pytest

import mzsim
from mzsim import core, fringes, montecarlo


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from mzsim import *", namespace)
    assert set(mzsim.__all__) <= set(namespace)
    assert namespace["discriminate"] is mzsim.stats.discriminate
    assert namespace["simulate_photon"] is montecarlo.simulate_photon


def test_dir_covers_all():
    assert set(mzsim.__all__) <= set(dir(mzsim))


def test_records_are_shared_with_the_numpy_layers():
    assert montecarlo.SimConfig is core.SimConfig is mzsim.SimConfig
    assert fringes.FringeGeometry is core.FringeGeometry is mzsim.FringeGeometry


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mzsim.no_such_name
