import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsim.cli import main

LN2 = "0.6931471805599453"

EXCITATION = f"""
[experiment]
experiment = excitation
hypothesis = pos
n0 = 10000
epsilon = 0.2
lambda = 1.0
t = {LN2}
"""

PHOTON = """
[experiment]
experiment = photon
hypothesis = ccqi
n0 = 16000
d = 0.5
u = 0.5
"""

FRINGES = """
[fringes]
source_separation = 1e-3
wavelength = 5e-7
screen_distance = 1.0
x_min = -0.001
x_max = 0.001
n_points = 5
"""


@pytest.fixture
def write_config(tmp_path):
    def _write(text, name="run.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPredict:
    def test_csv_row_matches_hand_table(self, write_config, capsys):
        code, out, err = run_cli(capsys, "predict", "--config", write_config(EXCITATION))
        assert code == 0 and err == ""
        assert out == "na1,na2,nb1,nb2\n9000,1000,0,0\n"

    def test_json_output(self, write_config, capsys):
        code, out, _ = run_cli(
            capsys, "predict", "--config", write_config(PHOTON), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"counter1": 5000.0, "counter2": 5000.0, "lost": 6000.0}

    def test_decay_purity_is_folded_automatically(self, write_config, capsys):
        config = (
            "[experiment]\nexperiment = decay\nhypothesis = pos\nn0 = 1000\n"
            "lambda = 1.0\nt1 = 0\nt2 = 0\nt3 = 0\nmu = 0.5\n"
        )
        code, out, _ = run_cli(capsys, "predict", "--config", write_config(config))
        assert code == 0
        row = out.splitlines()[1].split(",")
        # only the mu offset elapses, so half the atoms arrive excited
        assert float(row[0]) == pytest.approx(500.0, rel=1e-12)
        assert float(row[1]) == pytest.approx(500.0, rel=1e-12)

    def test_missing_hypothesis_is_config_error(self, write_config, capsys):
        config = EXCITATION.replace("hypothesis = pos\n", "")
        code, out, err = run_cli(capsys, "predict", "--config", write_config(config))
        assert code == 2 and out == "" and "hypothesis" in err

    def test_wrong_hypothesis_for_experiment(self, write_config, capsys):
        config = PHOTON.replace("ccqi", "modified_rate")
        code, _, err = run_cli(capsys, "predict", "--config", write_config(config))
        assert code == 2 and "MODIFIED_RATE" in err


class TestSimulate:
    def test_embeds_prediction_and_z_scores(self, write_config, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--config", write_config(EXCITATION), "--seed", "7"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "na1,na2,nb1,nb2"
        assert len(lines) == 4
        sampled = [int(v) for v in lines[1].split(",")]
        predicted = [float(v) for v in lines[2].split(",")]
        z = [float(v) for v in lines[3].split(",")]
        assert sum(sampled) == 10000
        assert predicted == [9000.0, 1000.0, 0.0, 0.0]
        assert all(abs(v) < 6 for v in z)

    def test_no_excitation_gives_zero_z_scores(self, write_config, capsys):
        config = EXCITATION.replace("epsilon = 0.2", "epsilon = 0")
        code, out, _ = run_cli(capsys, "simulate", "--config", write_config(config))
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "10000,0,0,0"
        assert [float(v) for v in lines[3].split(",")] == [0.0, 0.0, 0.0, 0.0]

    def test_json_format(self, write_config, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--config", write_config(PHOTON), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"simulated", "predicted", "z_scores"}
        assert sum(payload["simulated"].values()) == 16000

    def test_seed_flag_overrides_config(self, write_config, tmp_path, capsys):
        config = write_config(EXCITATION + "\n[simulation]\nseed = 1\n")
        _, out_config_seed, _ = run_cli(capsys, "simulate", "--config", config)
        _, out_flag_seed, _ = run_cli(
            capsys, "simulate", "--config", config, "--seed", "2"
        )
        _, out_flag_again, _ = run_cli(
            capsys, "simulate", "--config", config, "--seed", "2"
        )
        assert out_flag_seed == out_flag_again
        assert out_flag_seed != out_config_seed


class TestFringes:
    def test_csv_profile(self, write_config, capsys):
        code, out, _ = run_cli(capsys, "fringes", "--config", write_config(FRINGES))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "position,intensity"
        assert len(lines) == 6
        center = lines[3].split(",")
        assert float(center[0]) == 0.0
        assert float(center[1]) == 4.0

    def test_incoherent_pattern_selection(self, write_config, capsys):
        code, out, _ = run_cli(
            capsys, "fringes", "--config", write_config(FRINGES + "pattern = incoherent\n")
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            assert line.endswith(",2")

    def test_requires_fringes_section(self, write_config, capsys):
        code, _, err = run_cli(capsys, "fringes", "--config", write_config(EXCITATION))
        assert code == 2 and "[fringes]" in err


class TestDiscriminate:
    def test_b_click_rejects_pos(self, write_config, capsys):
        config = EXCITATION + "\n[stats]\nalpha = 0.01\ncounts = 8999,1000,1,0\n"
        code, out, _ = run_cli(capsys, "discriminate", "--config", write_config(config))
        assert code == 0
        payload = json.loads(out)
        assert payload["decision"] == "favor_H1"
        assert payload["p_value_h0"] == 0.0
        assert payload["log_likelihood_ratio"] is None  # +inf has no JSON encoding

    def test_counts_at_expectation_favor_h0(self, write_config, capsys):
        config = EXCITATION + "\n[stats]\nalpha = 0.01\ncounts = 9000,1000,0,0\nreplicates = 20000\n"
        code, out, _ = run_cli(capsys, "discriminate", "--config", write_config(config))
        assert code == 0
        payload = json.loads(out)
        assert payload["decision"] == "favor_H0"
        assert payload["p_value_h0"] > 0.01

    def test_exact_p_value_does_not_depend_on_the_seed(self, write_config, capsys):
        path = write_config(
            EXCITATION + "\n[stats]\nalpha = 0.01\ncounts = 70,8,1,1\nbackground = 1e-3\n"
        )
        outs = {run_cli(capsys, "discriminate", "--config", path, "--seed", seed)
                for seed in ("1", "2")}
        assert len(outs) == 1
        code, out, _ = outs.pop()
        assert code == 0 and json.loads(out)["decision"] == "favor_H1"

    def test_csv_format_is_rejected(self, write_config, capsys):
        config = EXCITATION + "\n[stats]\nalpha = 0.01\ncounts = 9000,1000,0,0\n"
        code, _, err = run_cli(
            capsys, "discriminate", "--config", write_config(config), "--format", "csv"
        )
        assert code == 2 and "JSON" in err

    def test_identical_models_is_runtime_error(self, write_config, capsys):
        config = EXCITATION + "\n[stats]\nalpha = 0.01\ncounts = 9000,1000,0,0\nh1 = pos\n"
        code, _, err = run_cli(capsys, "discriminate", "--config", write_config(config))
        assert code == 3 and "identical" in err

    def test_missing_counts(self, write_config, capsys):
        config = EXCITATION + "\n[stats]\nalpha = 0.01\n"
        code, _, err = run_cli(capsys, "discriminate", "--config", write_config(config))
        assert code == 2 and "counts" in err


class TestPlan:
    def test_closed_form_design(self, write_config, capsys):
        config = EXCITATION + "\n[stats]\npower = 0.999\n"
        code, out, _ = run_cli(capsys, "plan", "--config", write_config(config))
        assert code == 0
        payload = json.loads(out)
        assert payload["min_n0"] == 66
        assert payload["power"] == 0.999

    def test_visibility_mixes_the_null(self, write_config, capsys):
        config = EXCITATION + "\n[stats]\npower = 0.999\nvisibility = 1.0\n"
        code, out, _ = run_cli(capsys, "plan", "--config", write_config(config))
        assert code == 0
        assert json.loads(out)["min_n0"] == 66

    def test_missing_power(self, write_config, capsys):
        config = EXCITATION + "\n[stats]\nalpha = 0.01\n"
        code, _, err = run_cli(capsys, "plan", "--config", write_config(config))
        assert code == 2 and "power" in err


class TestSectorsDemo:
    def test_prints_matrix_dump(self, capsys):
        code, out, err = run_cli(capsys, "sectors-demo")
        assert code == 0 and err == ""
        assert "purity: 1" in out
        assert "purity: 0.5" in out
        assert "+0.5000+0.0000j" in out


class TestPlumbing:
    def test_missing_config_file(self, capsys):
        code, out, err = run_cli(capsys, "predict", "--config", "/nonexistent.cfg")
        assert code == 2 and out == "" and "cannot read config" in err

    def test_out_flag_writes_file_and_keeps_stdout_clean(
        self, write_config, tmp_path, capsys
    ):
        target = tmp_path / "result.csv"
        code, out, _ = run_cli(
            capsys, "predict", "--config", write_config(EXCITATION), "--out", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text() == "na1,na2,nb1,nb2\n9000,1000,0,0\n"

    def test_repeated_runs_are_byte_identical(self, write_config, tmp_path, capsys):
        config = write_config(EXCITATION + "\n[simulation]\nseed = 3\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "simulate", "--config", config, "--out", str(a))[0] == 0
        assert run_cli(capsys, "simulate", "--config", config, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_output(self, write_config, tmp_path, capsys):
        base = EXCITATION + "\n[simulation]\nseed = 3\nchunk_size = 1000\nworkers = {n}\n"
        a, b = tmp_path / "w1.csv", tmp_path / "w8.csv"
        cfg1 = write_config(base.format(n=1), "w1.cfg")
        cfg8 = write_config(base.format(n=8), "w8.cfg")
        assert run_cli(capsys, "simulate", "--config", cfg1, "--out", str(a))[0] == 0
        assert run_cli(capsys, "simulate", "--config", cfg8, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()


DECAY_WITHOUT_OFFSET = """
[experiment]
experiment = decay
hypothesis = pos
n0 = 1000
lambda = 0
t1 = 0.5
t2 = 0.5
t3 = 0.5
mu = 0.5
"""


class TestConfigInducedErrors:
    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("predict", DECAY_WITHOUT_OFFSET, "mu"),
            ("plan", EXCITATION + "\n[stats]\npower = 0.99\nbackground = 1e-3\n", "alpha"),
            (
                "discriminate",
                EXCITATION + "\n[stats]\nalpha = 0.01\ncounts = 9000,1000,0,0\n"
                "background = 0.1,0.1\n",
                "background",
            ),
            (
                "simulate",
                EXCITATION + "\n[simulation]\nchunk_size = 100000000000000000000\n",
                "chunk_size",
            ),
            (
                "simulate",
                EXCITATION.replace("n0 = 10000", "n0 = 1000000000000000"),
                "n0",
            ),
        ],
    )
    def test_exit_2_naming_the_key(self, write_config, capsys, command, config, key):
        code, out, err = run_cli(capsys, command, "--config", write_config(config))
        assert code == 2 and out == ""
        assert err.startswith("mzsim: config error:") and key in err


HYPOTHESES = st.sampled_from(["pos", "ccqi", "modified_rate"])
UNIT = st.floats(min_value=0.0, max_value=1.0)
RATE = st.floats(min_value=0.0, max_value=5.0)
EXPERIMENT_KEYS = {
    "excitation": {"epsilon": UNIT, "lambda": RATE, "t": RATE},
    "decay": {"lambda": RATE, "lambda_prime": RATE, "t1": RATE, "t2": RATE, "t3": RATE,
              "mu": UNIT},
    "photon": {"d": UNIT, "u": UNIT},
}
# what replaces a value or a list: zero, negative, out of range, non-finite, junk, wrong length
BAD_VALUES = st.sampled_from(
    ["0", "-1", "1.5", "inf", "-inf", "nan", "1e400", "abc", "1,2", "1,2,3,4,5"]
)


def _joined(values) -> str:
    return ",".join(map(str, values))


@st.composite
def config_documents(draw):
    """A valid experiment with a [stats] section, then up to three entries broken."""
    kind = draw(st.sampled_from(sorted(EXPERIMENT_KEYS)))
    ncat = 3 if kind == "photon" else 4
    experiment = {"experiment": kind, "hypothesis": draw(HYPOTHESES),
                  "n0": draw(st.integers(0, 10**4))}
    experiment.update({k: draw(v) for k, v in EXPERIMENT_KEYS[kind].items()})
    stats = {
        "replicates": draw(st.integers(1, 1000)),
        "alpha": draw(UNIT),
        "power": draw(st.sampled_from([0.5, 0.9, 0.99])),
        "h0": draw(HYPOTHESES),
        "h1": draw(HYPOTHESES),
        "counts": _joined(draw(st.lists(st.integers(0, 60), min_size=ncat, max_size=ncat))),
        "background": draw(st.one_of(
            st.floats(0.0, 1e-2),
            st.lists(st.floats(0.0, 1e-2), min_size=ncat, max_size=ncat).map(_joined),
        )),
    }
    if draw(st.booleans()):
        stats["visibility"] = draw(UNIT)
    if draw(st.booleans()):
        stats["method"] = draw(st.sampled_from(["auto", "closed_form", "simulation"]))
    sections = {"experiment": experiment, "stats": stats}
    for _ in range(draw(st.integers(0, 3))):
        section = sections[draw(st.sampled_from(sorted(sections)))]
        key = draw(st.sampled_from(sorted(k for k in section if k != "replicates")))
        bad = draw(st.none() | BAD_VALUES)
        if bad is None:
            del section[key]
        else:
            section[key] = bad
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
        for name, entries in sections.items()
    )


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["predict", "simulate", "discriminate", "plan"]),
    text=config_documents(),
)
def test_random_configs_run_or_exit_with_a_config_error(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", path])
    message = err.getvalue()
    if code == 0:
        assert message == "" and out.getvalue()
    elif code == 2:
        assert message.startswith("mzsim: config error:") and out.getvalue() == ""
    else:
        assert code == 3 and ("identical" in message or "cap" in message), message
