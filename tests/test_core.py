import copy
import math
import pickle
import re
import sys

import numpy as np
import pytest

from mzsim.config import StatsOptions, _Output
from mzsim.core import (
    ATOM_LABELS,
    EXPERIMENTS,
    PHOTON_LABELS,
    CountTable,
    DecayParams,
    ExcitationParams,
    Experiment,
    Format,
    FringeGeometry,
    Hypothesis,
    PhotonParams,
    SimConfig,
    _Record,
    purity_time_offset,
    survival_fraction,
)
from mzsim.errors import DomainError, StructureError
from mzsim.fringes import FringeProfile
from mzsim.sectors import DensityMatrix, SectorObservable, SectorSpace, StateVector
from mzsim.stats import CategoryModel, DiscriminationReport


def exp_series(x: float, terms: int = 80) -> float:
    """Power-series evaluation of exp, independent of math.exp."""
    total, term = 0.0, 1.0
    for k in range(1, terms):
        total += term
        term *= x / k
    return total


class TestSurvivalFraction:
    def test_zero_elapsed_time(self):
        assert survival_fraction(1.0, 0.0) == 1.0

    def test_half_life(self):
        assert survival_fraction(1.0, math.log(2)) == pytest.approx(0.5, rel=1e-14)

    def test_matches_series_oracle(self):
        assert survival_fraction(0.5, 2.0) == pytest.approx(
            exp_series(-1.0), rel=1e-12
        )

    def test_rejects_negative_rate(self):
        with pytest.raises(DomainError):
            survival_fraction(-0.1, 1.0)

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            survival_fraction(1.0, -1e-9)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            survival_fraction(float("nan"), 1.0)
        with pytest.raises(DomainError):
            survival_fraction(1.0, float("nan"))

    @pytest.mark.parametrize(
        "lam, dt, name",
        [(math.inf, 0.0, "lam"), (0.0, math.inf, "dt"), (math.inf, 1.0, "lam"),
         (1.0, math.inf, "dt")],
    )
    def test_rejects_infinity_naming_the_argument(self, lam, dt, name):
        # exp(-inf * 0) is a NaN, not a survival fraction
        with pytest.raises(DomainError, match=f"^{name} must be a finite number"):
            survival_fraction(lam, dt)

    def test_monotone_non_increasing_in_time(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            lam = rng.uniform(0.0, 3.0)
            times = np.sort(rng.uniform(0.0, 5.0, size=5))
            values = [survival_fraction(lam, t) for t in times]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_semigroup_over_consecutive_intervals(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            lam = rng.uniform(0.0, 4.0)
            a, b = rng.uniform(0.0, 3.0, size=2)
            assert survival_fraction(lam, a + b) == pytest.approx(
                survival_fraction(lam, a) * survival_fraction(lam, b), rel=1e-12
            )


class TestPurityTimeOffset:
    def test_pure_source_needs_no_offset(self):
        assert purity_time_offset(1.0, 3.0) == 0.0

    def test_half_life_inversion(self):
        assert purity_time_offset(0.5, 1.0) == pytest.approx(math.log(2), rel=1e-14)

    def test_round_trip_example(self):
        dt = purity_time_offset(0.25, 2.0)
        assert dt == pytest.approx(math.log(4) / 2, rel=1e-14)
        assert survival_fraction(2.0, dt) == pytest.approx(0.25, rel=1e-12)

    def test_round_trip_property(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            mu = rng.uniform(1e-6, 1.0)
            lam = rng.uniform(1e-3, 10.0)
            assert survival_fraction(lam, purity_time_offset(mu, lam)) == pytest.approx(
                mu, rel=1e-12
            )

    @pytest.mark.parametrize("mu", [0.0, -0.5, 1.0000001, 2.0])
    def test_rejects_bad_purity(self, mu):
        with pytest.raises(DomainError):
            purity_time_offset(mu, 1.0)

    def test_rejects_zero_rate_with_impure_source(self):
        with pytest.raises(DomainError):
            purity_time_offset(0.5, 0.0)

    def test_pure_source_tolerates_zero_rate(self):
        # no offset is needed, so no finite-offset constraint applies
        assert purity_time_offset(1.0, 0.0) == 0.0

    def test_rejects_negative_rate(self):
        with pytest.raises(DomainError):
            purity_time_offset(0.5, -1.0)


class TestParamValidation:
    def test_accepts_boundary_values(self):
        ExcitationParams(n0=0, epsilon=0.0, lam=0.0, t=0.0)
        ExcitationParams(n0=1, epsilon=1.0, lam=5.0, t=2.0)
        DecayParams(n0=10, lam=1.0, t1=0.0, t2=0.0, t3=0.0, mu=1.0)
        PhotonParams(n0=3, d=0.0, u=1.0)

    def test_rejects_random_invalid_fields(self):
        rng = np.random.default_rng(14)
        good = {
            ExcitationParams: dict(n0=10, epsilon=0.5, lam=1.0, t=1.0),
            DecayParams: dict(n0=10, lam=1.0, t1=0.1, t2=0.2, t3=0.3, mu=0.9),
            PhotonParams: dict(n0=10, d=0.5, u=0.5),
        }
        bad_values = {
            "n0": lambda: rng.integers(-100, 0),
            "epsilon": lambda: rng.choice([-rng.uniform(0.01, 5), 1 + rng.uniform(0.01, 5)]),
            "lam": lambda: -rng.uniform(0.01, 5),
            "t": lambda: -rng.uniform(0.01, 5),
            "t1": lambda: -rng.uniform(0.01, 5),
            "t2": lambda: -rng.uniform(0.01, 5),
            "t3": lambda: -rng.uniform(0.01, 5),
            "mu": lambda: rng.choice([0.0, -rng.uniform(0.01, 5), 1 + rng.uniform(0.01, 5)]),
            "d": lambda: rng.choice([-rng.uniform(0.01, 5), 1 + rng.uniform(0.01, 5)]),
            "u": lambda: rng.choice([-rng.uniform(0.01, 5), 1 + rng.uniform(0.01, 5)]),
        }
        for _ in range(200):
            cls = [ExcitationParams, DecayParams, PhotonParams][rng.integers(3)]
            fields = dict(good[cls])
            field = str(rng.choice(sorted(set(fields) & set(bad_values))))
            fields[field] = bad_values[field]()
            with pytest.raises(DomainError):
                cls(**fields)

    @pytest.mark.parametrize(
        "cls, fields, name",
        [
            (DecayParams, dict(n0=10, lam=math.inf, t1=0, t2=0, t3=0), "lam"),
            (ExcitationParams, dict(n0=10, epsilon=0.5, lam=0, t=math.inf), "t"),
            (ExcitationParams, dict(n0=10, epsilon=True, lam=0, t=1.0), "epsilon"),
            (DecayParams, dict(n0=10, lam=1.0, t1=0, t2=0, t3=0, lam_prime=math.nan),
             "lam_prime"),
            (PhotonParams, dict(n0=10, d=0.5, u=np.float64(-np.inf)), "u"),
            (PhotonParams, dict(n0=10, d="0.5", u=0.5), "d"),
            (DecayParams, dict(n0=10, lam=1.0, t1=0, t2=0, t3=0, mu=True), "mu"),
        ],
    )
    def test_rejects_non_finite_and_bool_fields(self, cls, fields, name):
        with pytest.raises(DomainError, match=f"^{name} must be a finite number"):
            cls(**fields)

    def test_rejects_flight_times_whose_sum_overflows(self):
        # each time is finite, but survival over t1 + t2 + t3 would see inf
        with pytest.raises(DomainError, match=r"^t1 \+ t2 \+ t3 must be a finite time"):
            DecayParams(n0=10, lam=1.0, t1=1e308, t2=1e308, t3=0.0)

    def test_accepts_integers_beyond_the_float_range(self):
        # finite, so the record takes them; comparing with inf cannot overflow
        ExcitationParams(n0=10, epsilon=1, lam=0, t=10**400)

    def test_rejects_non_integer_n0(self):
        with pytest.raises(DomainError):
            ExcitationParams(n0=10.5, epsilon=0.5, lam=1.0, t=1.0)
        with pytest.raises(DomainError):
            PhotonParams(n0=True, d=0.5, u=0.5)

    def test_rejects_n0_beyond_the_float_range(self):
        ExcitationParams(n0=int(sys.float_info.max), epsilon=0.5, lam=1.0, t=1.0)
        for cls, fields in (
            (ExcitationParams, dict(epsilon=0.5, lam=1.0, t=1.0)),
            (DecayParams, dict(lam=1.0, t1=0.1, t2=0.2, t3=0.3)),
            (PhotonParams, dict(d=0.5, u=0.5)),
        ):
            for n0 in (2**1024, 10**400 - 1):
                with pytest.raises(DomainError, match="n0"):
                    cls(n0=n0, **fields)

    def test_rejects_negative_lam_prime(self):
        with pytest.raises(DomainError):
            DecayParams(n0=10, lam=1.0, t1=0.1, t2=0.2, t3=0.3, lam_prime=-1.0)

    def test_rejects_impure_source_without_decay(self):
        # no t1 offset folds mu < 1 in at lam = 0
        with pytest.raises(DomainError, match="mu"):
            DecayParams(n0=10, lam=0.0, t1=0.1, t2=0.2, t3=0.3, mu=0.5)
        DecayParams(n0=10, lam=0.0, t1=0.1, t2=0.2, t3=0.3, mu=1.0)


class TestPurityFold:
    def test_fold_extends_t1(self):
        p = DecayParams(n0=1000, lam=2.0, t1=0.3, t2=0.4, t3=0.2, mu=0.25)
        f = p.with_purity_folded()
        assert f.mu == 1.0
        assert f.t1 == pytest.approx(0.3 + purity_time_offset(0.25, 2.0), rel=1e-14)
        assert (f.t2, f.t3, f.n0, f.lam) == (p.t2, p.t3, p.n0, p.lam)

    def test_fold_reproduces_source_deficit(self):
        p = DecayParams(n0=1000, lam=2.0, t1=0.3, t2=0.4, t3=0.2, mu=0.25)
        f = p.with_purity_folded()
        assert survival_fraction(2.0, f.t1) == pytest.approx(
            0.25 * survival_fraction(2.0, 0.3), rel=1e-12
        )

    @pytest.mark.parametrize(
        "lam, t1, t2",
        [(5e-324, 0.0, 0.0), (1e-308, 1.2e308, 0.0), (1e-308, 1e307, 1.5e308)],
    )
    def test_refuses_a_pad_that_leaves_no_finite_time(self, lam, t1, t2):
        # the pad -ln(mu)/lam, t1 plus it, or the folded total time overflows
        with pytest.raises(DomainError, match=r"^mu = 0\.5 at lam = "):
            DecayParams(n0=10, lam=lam, t1=t1, t2=t2, t3=0.0, mu=0.5)

    def test_fold_never_fails_at_the_edge_of_the_float_range(self):
        # -ln(0.5) / 1e-308 is finite, and so is t1 plus it
        p = DecayParams(n0=10, lam=1e-308, t1=1e308, t2=0.0, t3=0.0, mu=0.5)
        assert p.with_purity_folded().t1 == 1e308 + math.log(2) / 1e-308

    def test_fold_is_identity_for_pure_source(self):
        p = DecayParams(n0=1000, lam=2.0, t1=0.3, t2=0.4, t3=0.2)
        assert p.with_purity_folded() is p


class TestCountTables:
    def test_total_and_dict(self):
        t = CountTable(1, 2, 3, 4)
        assert t.total == 10
        assert t.values() == (1, 2, 3, 4)
        assert t.as_dict() == {"na1": 1, "na2": 2, "nb1": 3, "nb2": 4}

    def test_photon_total(self):
        t = CountTable(5.0, 2.5, 2.5, labels=PHOTON_LABELS)
        assert t.total == 10.0
        assert t.labels == ("counter1", "counter2", "lost")

    def test_rejects_negative_entries(self):
        with pytest.raises(DomainError):
            CountTable(-1, 0, 0, 0)
        with pytest.raises(DomainError):
            CountTable(1.0, -0.5, 0.0, labels=PHOTON_LABELS)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            CountTable(float("nan"), 0, 0, 0)

    def test_rejects_a_count_per_label_mismatch(self):
        with pytest.raises(StructureError, match=r"^expected 4 counts \('na1'.*, got 3$"):
            CountTable(1, 2, 3)
        with pytest.raises(StructureError, match="^expected 3 counts"):
            CountTable(1, 2, 3, 4, labels=PHOTON_LABELS)


EXCITATION = ExcitationParams(n0=1000, epsilon=0.2, lam=1.0, t=0.5)
SPACE = SectorSpace((1, 1))
# each record that keeps a view: its arguments, a view, its dtype and a new value for it
VIEW_RECORDS = [
    (CategoryModel, {"labels": ("a", "b"), "probabilities": (0.25, 0.75)},
     "probabilities", np.float64, [0.5, 0.5]),
    (FringeProfile, {"positions": np.array([0.0, 1.0]), "intensity": [1.0, 2.0]},
     "positions", np.float64, [0.0, 2.0]),
    (FringeProfile, {"positions": [0.0, 1.0], "intensity": np.array([1.0, 2.0])},
     "intensity", np.float64, [2.0, 1.0]),
    (SectorObservable, {"matrix": np.eye(2), "space": SPACE},
     "matrix", np.complex128, [[0.0, 1j], [-1j, 0.0]]),
    (StateVector, {"amplitudes": [0.6, 0.8j], "space": SPACE},
     "amplitudes", np.complex128, [0.8, 0.6]),
    (DensityMatrix, {"matrix": np.eye(2) / 2, "space": SPACE},
     "matrix", np.complex128, [[1.0, 0.0], [0.0, 0.0]]),
]


class TestRecords:
    """The shared record base: construction, immutability, equality, replace, copies."""

    def test_positional_and_keyword_construction_agree(self):
        assert ExcitationParams(1000, 0.2, 1.0, 0.5) == EXCITATION
        assert ExcitationParams(1000, 0.2, lam=1.0, t=0.5) == EXCITATION
        assert (EXCITATION.n0, EXCITATION.epsilon, EXCITATION.lam, EXCITATION.t) == (
            1000, 0.2, 1.0, 0.5)

    def test_defaults_fill_the_fields_left_out(self):
        assert (SimConfig().seed, SimConfig().chunk_size) == (0, 65536)
        assert SimConfig(7).chunk_size == 65536
        decay = DecayParams(10, 1.0, 0.1, 0.2, 0.3)
        assert (decay.lam_prime, decay.mu) == (None, 1.0)
        opts = StatsOptions()
        assert (opts.h0, opts.h1, opts.method, opts.alpha) == (
            Hypothesis.POS, Hypothesis.CCQI, "auto", None)

    @pytest.mark.parametrize("args, kwargs, message", [
        ((1000, 0.2, 1.0), {}, "missing required argument 't'"),
        ((), {"n0": 1000, "epsilon": 0.2, "lam": 1.0}, "missing required argument 't'"),
        ((1000, 0.2, 1.0, 0.5), {"tau": 1.0}, "unexpected keyword argument 'tau'"),
        ((1000, 0.2, 1.0, 0.5, 0.1), {}, "takes 4 positional arguments but 5 were given"),
        ((1000, 0.2), {"epsilon": 0.3, "lam": 1.0, "t": 0.5},
         "multiple values for argument 'epsilon'"),
    ])
    def test_a_missing_unknown_or_repeated_field_is_a_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            ExcitationParams(*args, **kwargs)

    @pytest.mark.parametrize("record, field", [
        (EXCITATION, "epsilon"), (SimConfig(), "seed"), (CountTable(1, 2, 3, 4), "labels"),
        (StatsOptions(), "alpha"),
    ])
    def test_assigning_or_deleting_a_field_raises(self, record, field):
        with pytest.raises(AttributeError, match=f"assign to field '{field}'"):
            setattr(record, field, 1)
        with pytest.raises(AttributeError, match=f"delete field '{field}'"):
            delattr(record, field)

    def test_equality_and_hash_follow_type_and_values(self):
        twin = ExcitationParams(1000, 0.2, 1.0, 0.5)
        assert twin == EXCITATION and hash(twin) == hash(EXCITATION)
        assert EXCITATION != ExcitationParams(1000, 0.2, 1.0, 0.6)
        assert len({EXCITATION, twin, EXCITATION.replace(t=0.6)}) == 2
        assert PhotonParams(10, 0.5, 0.5) != PhotonParams(10, 0.5, 0.25)
        # the same fields and values under another type
        twin_type = type("Photons", (_Record,), {"__annotations__": dict(PhotonParams._fields)})
        assert twin_type(10, 0.5, 0.5) != PhotonParams(10, 0.5, 0.5)
        assert CountTable(1, 2, 3, 4) == CountTable(1, 2, 3, 4)
        assert CountTable(1, 2, 3, labels=PHOTON_LABELS) != CountTable(1, 2, 3, 4)
        assert EXCITATION.__eq__(SimConfig()) is NotImplemented

    def test_a_subclass_appends_its_fields_to_those_it_inherits(self):
        class Counted(PhotonParams):
            label: str = "run"

        record = Counted(10, 0.5, 0.25)
        assert tuple(Counted._fields) == ("n0", "d", "u", "label")
        assert repr(record).endswith(".<locals>.Counted(n0=10, d=0.5, u=0.25, label='run')")
        with pytest.raises(DomainError, match="d must be"):
            record.replace(d=2.0)

    def test_repr_lists_the_fields_in_order(self):
        assert repr(EXCITATION) == "ExcitationParams(n0=1000, epsilon=0.2, lam=1.0, t=0.5)"
        assert repr(SimConfig(3)) == "SimConfig(seed=3, chunk_size=65536)"
        report = DiscriminationReport(1.5, 0.25, "inconclusive")
        assert repr(report) == (
            "DiscriminationReport(log_likelihood_ratio=1.5, p_value_h0=0.25, "
            "decision='inconclusive')")
        assert report.as_dict() == {
            "log_likelihood_ratio": 1.5, "p_value_h0": 0.25, "decision": "inconclusive"}

    def test_replace_changes_the_named_fields_and_checks_again(self):
        moved = EXCITATION.replace(epsilon=0.5, t=2.0)
        assert moved == ExcitationParams(1000, 0.5, 1.0, 2.0)
        assert EXCITATION.epsilon == 0.2
        with pytest.raises(DomainError, match="epsilon"):
            EXCITATION.replace(epsilon=1.5)
        with pytest.raises(TypeError, match="tau"):
            EXCITATION.replace(tau=1.0)
        # __post_init__ runs again: numpy integers become ints
        assert type(SimConfig().replace(seed=np.uint64(5)).seed) is int

    @pytest.mark.parametrize("cls, kwargs, name, dtype, new", VIEW_RECORDS,
                             ids=[f"{cls.__name__}.{name}" for cls, _, name, *_ in VIEW_RECORDS])
    def test_records_holding_arrays_compare_by_identity(self, cls, kwargs, name, dtype, new):
        a, b = cls(**kwargs), cls(*kwargs.values())
        assert a == a and a != b
        assert hash(a) == object.__hash__(a)
        assert len({a, b}) == 2
        view = getattr(a, name)
        assert type(view) is np.ndarray and view.dtype == dtype and not view.flags.writeable
        assert view.tolist() == np.asarray(kwargs[name], dtype).tolist()
        assert getattr(a, name) is view
        # replace takes the view's name, not the field that keeps its values
        moved = a.replace(**{name: new})
        assert getattr(moved, name).tolist() == np.asarray(new, dtype).tolist()
        assert not getattr(moved, name).flags.writeable
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{cls._views[name][0]}'"):
            a.replace(**{cls._views[name][0]: new})
        for copied in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert copied != a and repr(copied) == repr(a)
            assert name not in copied.__dict__
            array = getattr(copied, name)
            assert array.tolist() == view.tolist() and array.dtype == dtype
            assert not array.flags.writeable

    @pytest.mark.parametrize("record", [
        EXCITATION,
        DecayParams(10, 1.0, 0.1, 0.2, 0.3, lam_prime=2.0, mu=0.5),
        CountTable(1, 2, 3, labels=PHOTON_LABELS),
        EXPERIMENTS["decay"],
        SimConfig(3, 17),
        FringeGeometry(1e-3, 5e-7, 1.0, -1e-3, 1e-3, 11),
        StatsOptions(alpha=0.05, counts=(1, 2, 3, 4)),
        DiscriminationReport(1.5, 0.25, "favor_H1"),
        SectorSpace((2, 1)),
    ])
    def test_pickle_and_deepcopy_round_trip(self, record):
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(copied) is type(record) and copied == record
            assert repr(copied) == repr(record)
            with pytest.raises(AttributeError):
                copied.n0 = 1


# per record type: a record, changes for replace, the constructor call that
# makes the changed record, and the error that call raises (None: it succeeds)
RECORD_EXAMPLES = {
    ExcitationParams: (lambda: EXCITATION, {"epsilon": 1.5},
                       lambda: ExcitationParams(1000, 1.5, 1.0, 0.5), DomainError),
    DecayParams: (lambda: DecayParams(10, 1.0, 0.1, 0.2, 0.3, lam_prime=2.0, mu=0.5),
                  {"lam": 0.0}, lambda: DecayParams(10, 0.0, 0.1, 0.2, 0.3, 2.0, 0.5),
                  DomainError),
    PhotonParams: (lambda: PhotonParams(10, 0.5, 0.25), {"u": -1.0},
                   lambda: PhotonParams(10, 0.5, -1.0), DomainError),
    CountTable: (lambda: CountTable(1, 2, 3, labels=PHOTON_LABELS), {"counts": (1, -2, 3)},
                 lambda: CountTable(1, -2, 3, labels=PHOTON_LABELS), DomainError),
    Experiment: (lambda: EXPERIMENTS["photon"], {"labels": ATOM_LABELS},
                 lambda: Experiment("photon", PhotonParams, ATOM_LABELS,
                                    (Hypothesis.POS, Hypothesis.CCQI)), None),
    SimConfig: (lambda: SimConfig(3, 17), {"chunk_size": 0}, lambda: SimConfig(3, 0),
                DomainError),
    FringeGeometry: (lambda: FringeGeometry(1e-3, 5e-7, 1.0, -1e-3, 1e-3, 11), {"n_points": 1},
                     lambda: FringeGeometry(1e-3, 5e-7, 1.0, -1e-3, 1e-3, 1), DomainError),
    StatsOptions: (lambda: StatsOptions(alpha=0.05, counts=(1, 2, 3, 4)), {"alpha": 1.5},
                   lambda: StatsOptions(alpha=1.5, counts=(1, 2, 3, 4)), DomainError),
    _Output: (lambda: _Output(Format.JSON, "out.json"), {"format": "json"},
              lambda: _Output("json", "out.json"), DomainError),
    CategoryModel: (lambda: CategoryModel(("a", "b"), (0.25, 0.75)), {"labels": ("a",)},
                    lambda: CategoryModel(("a",), (0.25, 0.75)), StructureError),
    DiscriminationReport: (lambda: DiscriminationReport(1.5, 0.25, "favor_H1"),
                           {"decision": "maybe"},
                           lambda: DiscriminationReport(1.5, 0.25, "maybe"), DomainError),
    FringeProfile: (lambda: FringeProfile([0.0, 1.0], [1.0, 2.0]), {"intensity": [1.0, -2.0]},
                    lambda: FringeProfile([0.0, 1.0], [1.0, -2.0]), DomainError),
    SectorSpace: (lambda: SectorSpace((2, 1)), {"sector_dims": (2, 0)},
                  lambda: SectorSpace((2, 0)), DomainError),
    SectorObservable: (lambda: SectorObservable(np.diag([1.0, 2.0]), SPACE),
                       {"matrix": [[0.0, 1j], [0.0, 0.0]]},
                       lambda: SectorObservable([[0.0, 1j], [0.0, 0.0]], SPACE), DomainError),
    StateVector: (lambda: StateVector([0.6, 0.8], SPACE), {"amplitudes": [1.0, 1.0]},
                  lambda: StateVector([1.0, 1.0], SPACE), DomainError),
    DensityMatrix: (lambda: DensityMatrix(np.eye(2) / 2, SPACE), {"matrix": np.eye(2)},
                    lambda: DensityMatrix(np.eye(2), SPACE), DomainError),
}


def _record_types(base=_Record):
    """Every record type mzsim defines, subclasses of subclasses included."""
    for cls in base.__subclasses__():
        if cls.__module__.startswith("mzsim."):
            yield cls
        yield from _record_types(cls)


@pytest.mark.parametrize("cls", sorted(_record_types(), key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_every_record_checks_itself_however_it_is_made(cls, monkeypatch):
    assert cls in RECORD_EXAMPLES, f"add an example of {cls.__name__} to RECORD_EXAMPLES"
    make, changes, make_changed, error = RECORD_EXAMPLES[cls]
    record = make()
    same = record.replace()
    assert type(same) is cls and repr(same) == repr(record)
    if error is None:
        assert repr(record.replace(**changes)) == repr(make_changed())
    else:
        with pytest.raises(error) as built:
            make_changed()
        with pytest.raises(error, match=re.escape(str(built.value))):
            record.replace(**changes)

    checked = []
    check = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: checked.append(self) or check(self))
    for duplicate in (lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy, copy.copy):
        checked.clear()
        copied = duplicate(record)
        assert len(checked) == 1 and checked[0] is copied
        assert type(copied) is cls and repr(copied) == repr(record)
        for value in vars(copied).values():
            assert not isinstance(value, np.ndarray) or not value.flags.writeable


@pytest.mark.parametrize("cls", RECORD_EXAMPLES, ids=lambda cls: cls.__name__)
def test_a_repr_names_the_constructor_arguments(cls):
    record = RECORD_EXAMPLES[cls][0]()
    values = list(record.__getstate__().values())
    text = repr(record)
    for value in values:  # a record in a field shows keywords of its own
        if isinstance(value, _Record):
            text = text.replace(repr(value), "...")
    keywords = re.findall(r"(?:\(|, )(\w+)=", text)
    args = values.pop(0) if cls is CountTable else ()  # the counts go by position
    # the repr's keywords, given the fields' values in order, rebuild the record
    rebuilt = cls(*args, **dict(zip(keywords, values, strict=True)))
    assert repr(rebuilt) == repr(record)


def test_stats_options_check_their_ranges():
    with pytest.raises(DomainError, match=re.escape("alpha must be in (0, 1), got 1.5")):
        StatsOptions(alpha=1.5)


# per config record, fields it takes
GOOD_FIELDS = {
    ExcitationParams: dict(n0=10, epsilon=0.2, lam=1.0, t=1.0),
    DecayParams: dict(n0=10, lam=1.0, t1=0.1, t2=0.2, t3=0.3),
    PhotonParams: dict(n0=10, d=0.5, u=0.5),
    SimConfig: {},
    FringeGeometry: dict(source_separation=1e-3, wavelength=5e-7, screen_distance=1.0,
                         x_min=-1e-3, x_max=1e-3, n_points=11),
    StatsOptions: {},
    _Output: {},
    CountTable: dict(labels=()),
}


@pytest.mark.parametrize("cls, kwargs, message", [
    (ExcitationParams, {"n0": 1.5}, "n0 must be an integer, got 1.5"),
    (ExcitationParams, {"epsilon": "0.2"}, "epsilon must be a finite number, got '0.2'"),
    (ExcitationParams, {"lam": math.nan}, "lam must be a finite number, got nan"),
    (ExcitationParams, {"t": True}, "t must be a finite number, got True"),
    (DecayParams, {"n0": 10.0}, "n0 must be an integer, got 10.0"),
    (DecayParams, {"lam": None}, "lam must be a finite number, got None"),
    (DecayParams, {"t1": math.inf}, "t1 must be a finite number, got inf"),
    (DecayParams, {"t2": "1"}, "t2 must be a finite number, got '1'"),
    (DecayParams, {"t3": -math.inf}, "t3 must be a finite number, got -inf"),
    (DecayParams, {"lam_prime": math.nan}, "lam_prime must be a finite number, got nan"),
    (DecayParams, {"mu": True}, "mu must be a finite number, got True"),
    (PhotonParams, {"n0": "10"}, "n0 must be an integer, got '10'"),
    (PhotonParams, {"d": None}, "d must be a finite number, got None"),
    (PhotonParams, {"u": math.inf}, "u must be a finite number, got inf"),
    (SimConfig, {"seed": 1.0}, "seed must be an integer, got 1.0"),
    (SimConfig, {"chunk_size": True}, "chunk_size must be an integer, got True"),
    (FringeGeometry, {"source_separation": math.nan},
     "source_separation must be a finite number, got nan"),
    (FringeGeometry, {"wavelength": math.inf}, "wavelength must be a finite number, got inf"),
    (FringeGeometry, {"screen_distance": "1"},
     "screen_distance must be a finite number, got '1'"),
    (FringeGeometry, {"x_min": None}, "x_min must be a finite number, got None"),
    (FringeGeometry, {"x_max": -math.inf}, "x_max must be a finite number, got -inf"),
    (FringeGeometry, {"n_points": 2.5}, "n_points must be an integer, got 2.5"),
    (StatsOptions, {"replicates": 1.5}, "replicates must be an integer, got 1.5"),
    (StatsOptions, {"replicates": True}, "replicates must be an integer, got True"),
    (StatsOptions, {"counts": (1.5, 2)}, "counts must be an integer, got 1.5"),
    (StatsOptions, {"h0": "pos"}, "h0 must be a Hypothesis, got 'pos'"),
    (StatsOptions, {"h1": None}, "h1 must be a Hypothesis, got None"),
    (StatsOptions, {"alpha": "0.05"}, "alpha must be a finite number, got '0.05'"),
    (StatsOptions, {"power": math.nan}, "power must be a finite number, got nan"),
    (StatsOptions, {"visibility": True}, "visibility must be a finite number, got True"),
    (StatsOptions, {"background": (1e-3, math.inf)},
     "background must be a finite number, got inf"),
    (StatsOptions, {"method": 5}, "method must be a Method, got 5"),
    # a tuple field given a value that is not iterable raised a bare TypeError
    (StatsOptions, {"counts": 5}, "counts must be an iterable, got 5"),
    (StatsOptions, {"background": 0.5}, "background must be an iterable, got 0.5"),
    (CountTable, {"labels": 5}, "labels must be an iterable, got 5"),
    (CountTable, {"labels": ("a", 1)}, "labels must be a str, got 1"),
    (_Output, {"format": "csv"}, "format must be a Format, got 'csv'"),
    (_Output, {"path": 5}, "path must be a str, got 5"),
])
def test_config_records_check_their_types(cls, kwargs, message):
    # each StatsOptions value used to construct, and replicates = 1.5 reached the stats layer
    good = cls(**GOOD_FIELDS[cls])
    forged = object.__new__(cls)  # holds the bad value unchecked, to be pickled
    forged.__dict__.update(good.__getstate__(), **kwargs)
    for make in (lambda: cls(**{**GOOD_FIELDS[cls], **kwargs}), lambda: good.replace(**kwargs),
                 lambda: pickle.loads(pickle.dumps(forged))):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            make()


def test_records_built_from_lists_hash_and_equal_tuple_built_ones():
    # StatsOptions kept a list, so hashing it raised TypeError
    for from_list, from_tuple in (
        (StatsOptions(counts=[1, 2], background=[0.5]),
         StatsOptions(counts=(1, 2), background=(0.5,))),
        (StatsOptions(counts=np.array([1, 2])), StatsOptions(counts=(1, 2))),
        (SectorSpace([2, 1]), SectorSpace((2, 1))),
        (CountTable(1, 2, 3, labels=list(PHOTON_LABELS)),
         CountTable(1, 2, 3, labels=PHOTON_LABELS)),
    ):
        assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
        assert repr(from_list) == repr(from_tuple)


def test_a_log_likelihood_ratio_may_be_infinite_but_a_p_value_must_be_finite():
    # a category impossible under one model decides the test outright
    assert DiscriminationReport(math.inf, 0.0, "favor_H1").log_likelihood_ratio == math.inf
    assert DiscriminationReport(-math.inf, 1.0, "favor_H0").log_likelihood_ratio == -math.inf
    with pytest.raises(DomainError, match="^p_value_h0 must be a finite number, got nan$"):
        DiscriminationReport(0.0, math.nan, "inconclusive")
