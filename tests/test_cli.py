import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mzsim
from mzsim.cli import _z_score, main

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

    def test_z_scores_match_the_array_formula_exactly(self):
        rng = np.random.default_rng(5)
        n0 = 10**6
        probs = np.append(rng.dirichlet(np.ones(5)), [0.0, 0.0, 0.0, 1.0])
        tallies = np.append(rng.integers(0, n0, 5), [0, 3, 0, n0 - 1]).astype(float)
        variance = n0 * probs * (1.0 - probs)
        deviation = tallies - probs * n0
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.where(
                variance > 0, deviation / np.sqrt(variance), np.sign(deviation) * np.inf
            )
        want[(variance == 0) & (deviation == 0)] = 0.0
        got = [_z_score(t, p, n0) for t, p in zip(tallies.tolist(), probs.tolist())]
        assert got == want.tolist()

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

    def test_counts_beyond_int64_are_echoed_as_given(self, write_config, capsys):
        big = 2**62
        for counts in (f"{2 * big},0,0,0", f"{big},0,0,{big}"):
            config = EXCITATION + f"\n[stats]\nalpha = 0.01\ncounts = {counts}\n"
            code, out, err = run_cli(
                capsys, "discriminate", "--config", write_config(config)
            )
            assert code == 2 and out == ""
            assert f"({counts.replace(',', ', ')})" in err and "np." not in err

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


HUGE_N0 = EXCITATION.replace("n0 = 10000", "n0 = " + "9" * 400)
# modified_rate needs lambda_prime, which this config leaves out
DECAY_MODIFIED_RATE = DECAY_WITHOUT_OFFSET.replace(
    "hypothesis = pos", "hypothesis = modified_rate"
).replace("lambda = 0", "lambda = 1")
# the purity pad -ln(mu)/lambda overflows, although every time is 0
DECAY_INFINITE_PAD = DECAY_WITHOUT_OFFSET.replace("lambda = 0", "lambda = 5e-324").replace(
    "t1 = 0.5\nt2 = 0.5\nt3 = 0.5", "t1 = 0\nt2 = 0\nt3 = 0"
)
# the background fills counter b, so no category is impossible under h0
BACKGROUND_PLAN = EXCITATION + "\n[stats]\npower = 0.99\nbackground = 1e-3\n"

# (subcommand, config, key the error must name)
CONFIG_ERRORS = [
    ("predict", DECAY_WITHOUT_OFFSET, "mu"),
    ("predict", DECAY_INFINITE_PAD, "lambda"),
    # a design without a null-impossible category needs the power search
    ("plan", BACKGROUND_PLAN, "alpha"),
    ("plan", BACKGROUND_PLAN + "method = simulation\n", "alpha"),
    ("plan", BACKGROUND_PLAN + "alpha = 0.01\nmethod = closed_form\n", "method"),
    # four categories at 0.3 each
    ("plan", EXCITATION + "\n[stats]\npower = 0.99\nbackground = 0.3\n", "background"),
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
    ("predict", HUGE_N0, "n0"),
    ("simulate", HUGE_N0, "n0"),
    ("plan", HUGE_N0 + "\n[stats]\nalpha = 0.01\npower = 0.99\n", "n0"),
    # above the cap; validation refuses it before anything is allocated
    ("fringes", FRINGES.replace("n_points = 5", "n_points = 100000000000000"),
     "n_points"),
    ("plan", DECAY_WITHOUT_OFFSET + "\n[stats]\nalpha = 0.01\npower = 0.9\n", "mu"),
    # above ROW_CAP the null sample would need 291 TiB
    (
        "discriminate",
        EXCITATION.replace(LN2, "0.7") + "\n[stats]\nalpha = 0.01\ncounts = 300,40,2,2\n"
        "background = 1e-3\nreplicates = 10000000000000\n",
        "replicates",
    ),
    # the records name these fields lam and lam_prime
    ("predict", EXCITATION.replace("lambda = 1.0", "lambda = -1"), "lambda"),
    ("predict", DECAY_MODIFIED_RATE, "lambda_prime"),
]


class TestConfigInducedErrors:
    @pytest.mark.parametrize("command, config, key", CONFIG_ERRORS)
    def test_exit_2_naming_the_key(self, write_config, capsys, command, config, key):
        code, out, err = run_cli(capsys, command, "--config", write_config(config))
        assert code == 2 and out == ""
        assert err.startswith("mzsim: config error:") and key in err

    @pytest.mark.parametrize("command", ["simulate", "discriminate", "plan"])
    def test_missing_lambda_prime_is_named_by_its_key(self, write_config, capsys, command):
        config = DECAY_MODIFIED_RATE + (
            "\n[stats]\nalpha = 0.01\npower = 0.9\ncounts = 1,1,1,1\nh1 = modified_rate\n"
        )
        code, out, err = run_cli(capsys, command, "--config", write_config(config))
        assert (code, out) == (2, "")
        assert err == "mzsim: config error: lambda_prime is required under MODIFIED_RATE\n"

    @pytest.mark.parametrize(
        "config, echoed",
        [(EXCITATION.replace("lambda", "lam"), "unknown key 'lam'"),
         (EXCITATION + "[lam]\n", "unknown section [lam]")],
    )
    def test_echoed_user_text_keeps_its_spelling(self, write_config, capsys, config, echoed):
        code, _, err = run_cli(capsys, "predict", "--config", write_config(config))
        assert code == 2 and echoed in err


# runs in a fresh interpreter: import the package and the CLI (or the modules
# named in argv), answer every request given on stdin, then report the exit
# codes and whether numpy, numpy.random and the exact engine loaded
GUARD_SCRIPT = """
import contextlib, importlib, io, json, os, sys, tempfile
for name in sys.argv[1:] or ["mzsim", "mzsim.cli"]:
    getattr(importlib.import_module(name), "__all__")  # runs a lazily bound module
codes = []
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "run.cfg")
    for command, config, *flags in json.load(sys.stdin):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config)
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            codes.append(sys.modules["mzsim.cli"].main([command, "--config", path, *flags]))
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules,
                  "numpy_random": "numpy.random" in sys.modules,
                  "exact_engine": "mzsim._exact" in sys.modules}))
"""


def run_guard(requests, *modules) -> dict:
    src = os.path.dirname(os.path.dirname(mzsim.__file__))
    result = subprocess.run(
        [sys.executable, "-c", GUARD_SCRIPT, *modules],
        input=json.dumps(requests),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    return json.loads(result.stdout)


# at t = 0.7 nb1 and nb2 do not tie, so a background design keeps four pooled cells
FOUR_CELLS = EXCITATION.replace(LN2, "0.7") + "[stats]\nalpha = 0.05\nbackground = 1e-3\n"


def test_predict_and_config_errors_do_not_import_numpy():
    decay = DECAY_WITHOUT_OFFSET.replace("mu = 0.5", "mu = 1")
    impure_decay = DECAY_WITHOUT_OFFSET.replace("lambda = 0", "lambda = 1")
    predicts = [
        ["predict", config, "--format", fmt]
        for config in (EXCITATION, decay, impure_decay, PHOTON)
        for fmt in ("csv", "json")
    ]
    # the zero-cell closed form: without alpha, with it unused, under visibility 1, by name
    closed_form = [
        ["plan", EXCITATION + "[stats]\npower = 0.9\n" + extra]
        for extra in ("", "alpha = 0.05\n", "visibility = 1\n", "method = closed_form\n")
    ]
    # exact tests and power searches: three pooled cells, and four, where 80
    # draws have 91,881 outcomes but 3,321 rows
    stats = EXCITATION + "[stats]\nalpha = 0.05\nbackground = 1e-3\n"
    exact = [
        ["discriminate", stats + "counts = 80,15,3,2\n"],
        ["discriminate", stats + "counts = 80,15,3,2\nvisibility = 0.9\n"],
        ["discriminate", EXCITATION + "[stats]\nalpha = 0.05\ncounts = 80,15,3,2\n"],
        ["plan", stats + "power = 0.9\n"],
        ["discriminate", FOUR_CELLS + "counts = 62,12,3,3\n"],
        ["plan", FOUR_CELLS + "power = 0.9\n"],
    ]
    errors = [[command, config] for command, config, key in CONFIG_ERRORS]
    report = run_guard(predicts + closed_form + exact + errors)
    assert report["codes"] == [0] * len(predicts + closed_form + exact) + [2] * len(errors)
    assert report["numpy"] is False and report["exact_engine"] is True


def test_importing_the_cli_does_not_load_the_exact_engine():
    assert run_guard([]) == {
        "codes": [], "numpy": False, "numpy_random": False, "exact_engine": False
    }


def test_importing_stats_does_not_import_numpy():
    report = run_guard([], "mzsim.stats", "mzsim.cli")
    assert report["numpy"] is False and report["exact_engine"] is True


def test_only_the_simulation_above_the_cap_imports_numpy_random():
    # numpy.random takes ~14 ms to import, and only the Monte Carlo paths use it;
    # 344 draws over four pooled cells lie above ROW_CAP, so discriminate draws
    sampled = run_guard([["discriminate", FOUR_CELLS + "counts = 300,40,2,2\nreplicates = 10\n"]])
    assert sampled == {
        "codes": [0], "numpy": True, "numpy_random": True, "exact_engine": True
    }


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
