import re

import pytest

from mzsim.config import StatsOptions, _record, parse_config
from mzsim.core import (
    MAX_REPLICATES,
    DecayParams,
    ExcitationParams,
    Hypothesis,
    PhotonParams,
    SimConfig,
    _Record,
)
from mzsim.errors import ConfigError

MINIMAL_EXCITATION = """
[experiment]
experiment = excitation
hypothesis = pos
n0 = 10000
epsilon = 0.2
lambda = 1.0
t = 0.6931471805599453
"""


class TestParsing:
    def test_minimal_excitation_with_defaults(self):
        cfg = parse_config(MINIMAL_EXCITATION)
        assert cfg.experiment == "excitation"
        assert cfg.hypothesis is Hypothesis.POS
        assert isinstance(cfg.params, ExcitationParams)
        assert cfg.params.n0 == 10000
        assert cfg.sim.seed == 0
        assert cfg.sim.chunk_size == 65536
        assert cfg.output_format is None  # subcommand default (csv)
        assert cfg.output_path is None

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# leading comment\n\n[experiment]\nexperiment = photon  # kind\n"
            "n0 = 5\nd = 0.5\nu = 0.25\n"
        )
        assert isinstance(cfg.params, PhotonParams)
        assert cfg.params.u == 0.25

    def test_decay_section_with_optional_keys(self):
        cfg = parse_config(
            "[experiment]\nexperiment = decay\nhypothesis = modified_rate\n"
            "n0 = 100\nlambda = 1.0\nlambda_prime = 2.0\n"
            "t1 = 0.1\nt2 = 0.2\nt3 = 0.3\nmu = 0.9\n"
        )
        assert isinstance(cfg.params, DecayParams)
        assert cfg.params.lam_prime == 2.0
        assert cfg.params.mu == 0.9
        assert cfg.hypothesis is Hypothesis.MODIFIED_RATE

    def test_empty_simulation_section_keeps_the_defaults(self):
        assert parse_config(MINIMAL_EXCITATION + "\n[simulation]\n").sim == SimConfig()

    def test_all_sections_together(self):
        cfg = parse_config(
            MINIMAL_EXCITATION
            + "\n[simulation]\nseed = 9\nchunk_size = 1024\nworkers = 4\n"
            + "[stats]\nalpha = 0.01\npower = 0.999\ncounts = 9000,1000,0,0\n"
            + "background = 1e-4\nmethod = simulation\nreplicates = 2000\n"
            + "[fringes]\nsource_separation = 1e-3\nwavelength = 5e-7\n"
            + "screen_distance = 1.0\nx_min = -0.01\nx_max = 0.01\nn_points = 101\n"
            + "pattern = incoherent\n"
            + "[output]\nformat = json\npath = out.json\n"
        )
        assert cfg.sim.seed == 9 and cfg.sim.chunk_size == 1024
        assert cfg.stats.alpha == 0.01
        assert cfg.stats.counts == (9000, 1000, 0, 0)
        assert cfg.stats.background == (1e-4,)
        assert cfg.stats.method == "simulation"
        assert cfg.stats.replicates == 2000
        assert cfg.geometry is not None
        assert cfg.fringe_pattern == "incoherent"
        assert cfg.output_format == "json"
        assert cfg.output_path == "out.json"


class TestErrors:
    def test_range_violation_names_key_and_constraint(self):
        bad = MINIMAL_EXCITATION.replace("epsilon = 0.2", "epsilon = 1.5")
        with pytest.raises(ConfigError, match=r"epsilon.*\[0, 1\]"):
            parse_config(bad)

    def test_cross_experiment_keys_are_unknown(self):
        with pytest.raises(ConfigError, match="unknown key 'u'"):
            parse_config(
                "[experiment]\nexperiment = decay\nn0 = 100\nlambda = 1.0\n"
                "t1 = 1\nt2 = 1\nt3 = 1\nu = 0.5\nd = 0.5\n"
            )

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"line 1: unknown section"):
            parse_config("[experiments]\n")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("[experiment]\nexperiment = photon\nn0 10\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside any"):
            parse_config("n0 = 10\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key 'n0'"):
            parse_config("[experiment]\nexperiment = photon\nn0 = 1\nn0 = 2\nd = 0\nu = 0\n")

    def test_duplicate_section(self):
        with pytest.raises(ConfigError, match="duplicate section"):
            parse_config("[output]\n[output]\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="requires key 'epsilon'"):
            parse_config(
                "[experiment]\nexperiment = excitation\nn0 = 10\nlambda = 1\nt = 1\n"
            )

    def test_bad_hypothesis_value(self):
        with pytest.raises(ConfigError, match="hypothesis must be one of"):
            parse_config(MINIMAL_EXCITATION.replace("pos", "both"))

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="n0 must be an integer"):
            parse_config(MINIMAL_EXCITATION.replace("n0 = 10000", "n0 = many"))

    def test_bad_experiment_kind(self):
        with pytest.raises(ConfigError, match="experiment must be one of"):
            parse_config("[experiment]\nexperiment = spin\nn0 = 1\n")

    def test_counts_arity_must_match_experiment(self):
        with pytest.raises(ConfigError, match="counts needs 4 values"):
            parse_config(MINIMAL_EXCITATION + "\n[stats]\ncounts = 1,2,3\n")

    def test_background_arity_must_match_experiment(self):
        with pytest.raises(ConfigError, match="background needs 1 or 4 values"):
            parse_config(MINIMAL_EXCITATION + "\n[stats]\nbackground = 0.1,0.1\n")

    @pytest.mark.parametrize(
        "text, where",
        [
            (
                MINIMAL_EXCITATION.replace("lambda = 1.0", "lambda = inf").replace(
                    "t = 0.6931471805599453", "t = 0"
                ),
                "line 7: lambda",
            ),
            (MINIMAL_EXCITATION.replace("epsilon = 0.2", "epsilon = nan"), "line 6: epsilon"),
            (MINIMAL_EXCITATION + "\n[stats]\nbackground = nan\n", "line 11: background"),
        ],
    )
    def test_non_finite_numbers_are_rejected(self, text, where):
        with pytest.raises(ConfigError, match=f"{where} must be (a )?finite"):
            parse_config(text)

    def test_workers_below_one(self):
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            parse_config(MINIMAL_EXCITATION + "\n[simulation]\nworkers = 0\n")

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError, match=r"alpha must be in \(0, 1\)"):
            parse_config("[stats]\nalpha = 0\n")

    @pytest.mark.parametrize("replicates", [0, MAX_REPLICATES + 1, 10**13])
    def test_replicates_out_of_range(self, replicates):
        with pytest.raises(ConfigError, match="replicates must be in"):
            parse_config(f"[stats]\nreplicates = {replicates}\n")
        parse_config(f"[stats]\nreplicates = {MAX_REPLICATES}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[stats]\npower = 1.5\n", r"^power must be in \(0, 1\), got 1\.5$"),
            ("[stats]\nalpha = 1\n", r"^alpha must be in \(0, 1\), got 1\.0$"),
            ("[stats]\nreplicates = 0\n", r"^replicates must be in \[1, 2097152\], got 0$"),
            ("[stats]\nreplicates = 1.5\n", "^line 2: replicates must be an integer, got '1.5'$"),
            ("[stats]\ncounts = 1,2,-3,4\n",
             r"^counts must be non-negative integers, got \(1, 2, -3, 4\)$"),
            ("[stats]\nbackground = -1e-3\n", "^background probabilities must be >= 0$"),
            ("[stats]\nvisibility = 1.5\n", r"^visibility must be in \[0, 1\], got 1\.5$"),
            ("[stats]\nvisibility = -3\n", r"^visibility must be a number >= 0, got -3\.0$"),
            ("[stats]\nalpha = 1%\n", "^line 2: alpha must be a number, got '1%'$"),
            ("[stats\nalpha = 0.01\n", r"^line 1: malformed section header '\[stats'$"),
            ("[stats]\nalpha =\n", "^line 2: expected 'key = value', got 'alpha ='$"),
            ("[stats]\ncounts = 1,x,3,4\n",
             "^line 2: counts must be comma-separated int values, got '1,x,3,4'$"),
        ],
    )
    def test_stats_refusals_name_their_key_or_line(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_h0_and_visibility_are_exclusive(self):
        with pytest.raises(ConfigError, match="either h0 or visibility, not both"):
            parse_config("[stats]\nh0 = ccqi\nvisibility = 0.9\n")
        assert parse_config("[stats]\nh0 = ccqi\n").stats.h0 is Hypothesis.CCQI
        assert parse_config("[stats]\nvisibility = 0.9\n").stats.visibility == 0.9

    def test_bad_output_format(self):
        # the [output] and pattern refusals, line number included
        fringes = ("[fringes]\nsource_separation = 1e-3\nwavelength = 5e-7\n"
                   "screen_distance = 1.0\nx_min = -0.01\nx_max = 0.01\nn_points = 11\n")
        for text, message in [
            ("[output]\nformat = xml\n", "line 2: format must be one of csv, json, got 'xml'"),
            (MINIMAL_EXCITATION + "[output]\npath = out.csv\nformat = JSON\n",
             "line 11: format must be one of csv, json, got 'JSON'"),
            ("[output]\npath = out.csv\nfoo = 1\n",
             "line 3: unknown key 'foo' in [output]; allowed: format, path"),
            (fringes + "pattern = striped\n",
             "line 8: pattern must be one of coherent, incoherent, got 'striped'"),
        ]:
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                parse_config(text)

    def test_far_field_violation_is_a_config_error(self):
        with pytest.raises(ConfigError, match="far-field"):
            parse_config(
                "[fringes]\nsource_separation = 0.5\nwavelength = 5e-7\n"
                "screen_distance = 1.0\nx_min = -0.01\nx_max = 0.01\nn_points = 11\n"
            )


class _Knobs(_Record):
    k: int | None = None
    weights: tuple[float, ...] | None = None
    h: Hypothesis = Hypothesis.POS


@pytest.mark.parametrize("cls, key", [(StatsOptions, "replicates"), (_Knobs, "k")])
def test_an_optional_int_field_parses_as_an_int(cls, key):
    # an int | None field was parsed as a float, so 1.5 and 2.0 were taken
    for text in ("1.5", "2.0"):
        with pytest.raises(ConfigError, match=f"^line 3: {key} must be an integer, got '{text}'$"):
            _record("stats", cls, {key: (text, 3)}, {})
    record, _ = _record("stats", cls, {key: ("2", 3)}, {})
    assert getattr(record, key) == 2 and type(getattr(record, key)) is int


def test_a_record_parses_by_its_annotations_alone():
    entries = {"k": ("7", 2), "weights": ("0.5, 2", 3), "h": ("ccqi", 4)}
    record, parsed = _record("knobs", _Knobs, entries, parsers={})
    assert record == _Knobs(7, (0.5, 2.0), Hypothesis.CCQI) and parsed == {}
    assert _record("knobs", _Knobs, {}, parsers={})[0] == _Knobs()
    for key, text, message in (
        ("weights", "0.5, x", "weights must be comma-separated float values, got '0.5, x'"),
        ("weights", "0.5, nan", "weights must be finite numbers, got '0.5, nan'"),
        ("h", "bogus", "h must be one of pos, ccqi, modified_rate, got 'bogus'"),
    ):
        with pytest.raises(ConfigError, match=f"^line 3: {re.escape(message)}$"):
            _record("knobs", _Knobs, {key: (text, 3)}, parsers={})
