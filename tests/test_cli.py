import argparse
import ast
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mzsim
from mzsim.cli import _COMMANDS, _json, _parse_args, _z_score, main
from mzsim.config import parse_config
from mzsim.core import Method
from mzsim.errors import MzsimError

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

    def test_n0_at_the_int64_bound_is_simulated(self, write_config, capsys):
        # 2**63 - 1, the most trials numpy's binomial takes; 2**63 exits 2 (CONFIG_ERRORS)
        config = EXCITATION.replace("n0 = 10000", f"n0 = {2**63 - 1}")
        code, out, _ = run_cli(capsys, "simulate", "--config", write_config(config),
                               "--format", "json")
        assert code == 0
        assert sum(json.loads(out)["simulated"].values()) == 2**63 - 1


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

    @pytest.mark.parametrize("h0", ["pos", "ccqi"])
    def test_h0_with_visibility_is_refused(self, write_config, capsys, h0):
        # visibility replaces h0, so an explicit h0 would be dropped unseen
        config = (EXCITATION.replace(LN2, "0.7") + "[stats]\nalpha = 0.05\npower = 0.9\n"
                  f"background = 1e-3\nh0 = {h0}\nh1 = pos\nvisibility = 0.9\n")
        assert run_cli(capsys, "plan", "--config", write_config(config)) == (
            2, "", "mzsim: config error: set either h0 or visibility, not both: "
            "visibility replaces h0\n",
        )

    def test_missing_power(self, write_config, capsys):
        config = EXCITATION + "\n[stats]\nalpha = 0.01\n"
        code, _, err = run_cli(capsys, "plan", "--config", write_config(config))
        assert code == 2 and "power" in err

    def test_alpha_below_what_the_replicates_resolve(self, write_config, capsys):
        # four cells and no null-impossible one: the search passes the exact
        # engine's cap, where 99 replicates resolve no p-value below 0.01
        config = (EXCITATION.replace("epsilon = 0.2", "epsilon = 0.03").replace(LN2, "0.7")
                  + "[stats]\nalpha = 0.001\npower = 0.9\nbackground = 1e-3\nreplicates = 99\n")
        assert run_cli(capsys, "plan", "--config", write_config(config)) == (
            2, "",
            "mzsim: config error: alpha = 0.001 is below 1 / (replicates + 1) = 0.01, the "
            "smallest p-value that replicates = 99 can resolve, so the sampled power is 0 "
            "at every sample size above the exact engine's cap\n",
        )


class TestSectorsDemo:
    def test_prints_matrix_dump(self, capsys):
        code, out, err = run_cli(capsys, "sectors-demo")
        assert code == 0 and err == ""
        assert "purity: 1" in out
        assert "purity: 0.5" in out
        assert "+0.5000+0.0000j" in out


class TestPlumbing:
    def test_missing_config_file(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "predict", "--config", "/nonexistent.cfg")
        assert code == 2 and out == "" and "cannot read config" in err
        not_utf8 = tmp_path / "bad.ini"
        not_utf8.write_bytes(b"[experiment]\nexperiment = excitation\xff\n")
        code, out, err = run_cli(capsys, "predict", "--config", str(not_utf8))
        assert code == 2 and out == ""
        assert err.startswith("mzsim: config error: cannot read config: ")

    def test_a_byte_order_mark_reads_like_a_plain_file(self, tmp_path, capsys):
        # the mark sat in front of the first header and was refused with line 1
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(EXCITATION.lstrip(), encoding="utf-8")
        marked.write_text(EXCITATION.lstrip(), encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        results = [run_cli(capsys, "predict", "--config", str(path)) for path in (plain, marked)]
        assert results[0] == results[1] == (0, "na1,na2,nb1,nb2\n9000,1000,0,0\n", "")

    @pytest.mark.parametrize("data, message", [
        (b"\xef\xbb\xbf[experiment]\nexperiment = excitation\xff\n",
         "byte 0xff in position 36: invalid start byte"),
        (b"[experiment]\r\nexperiment = excitation\r\n\xff\r\n",
         "byte 0xff in position 39: invalid start byte"),
        (b"\xef\xbb\xbf[experiment]\r\nexperiment = excitation\r\n\xfe\r\n",
         "byte 0xfe in position 39: invalid start byte"),
        (b"\xef\xbb\xbf# " + b"x" * 9990 + b"\n\xc3\x28\n",
         "byte 0xc3 in position 9993: invalid continuation byte"),
        (b"\xef\xbb[experiment]\n", "bytes in position 0-1: invalid continuation byte"),
    ])
    def test_an_undecodable_byte_is_refused_at_its_offset_past_the_mark(
        self, tmp_path, capsys, data, message
    ):
        # the offsets a text-mode utf-8-sig read gave: past the mark, before
        # CRLF line ends are translated
        path = tmp_path / "bad.cfg"
        path.write_bytes(data)
        assert run_cli(capsys, "predict", "--config", str(path)) == (
            2, "", f"mzsim: config error: cannot read config: 'utf-8' codec can't decode {message}\n")

    def test_out_flag_writes_file_and_keeps_stdout_clean(
        self, write_config, tmp_path, capsys
    ):
        target = tmp_path / "result.csv"
        code, out, _ = run_cli(
            capsys, "predict", "--config", write_config(EXCITATION), "--out", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text() == "na1,na2,nb1,nb2\n9000,1000,0,0\n"

    def test_out_into_a_missing_directory_is_an_io_error(self, write_config, tmp_path, capsys):
        target = tmp_path / "missing" / "result.csv"
        code, out, err = run_cli(
            capsys, "predict", "--config", write_config(EXCITATION), "--out", str(target)
        )
        assert (code, out) == (3, "") and not target.parent.exists()
        assert err.startswith("mzsim: error: [Errno 2] No such file or directory: ")

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

    def test_chunk_size_does_not_change_output(self, write_config, tmp_path, capsys):
        base = EXCITATION + "\n[simulation]\nseed = 3\n{chunk}"
        outputs = []
        for i, chunk in enumerate(["", "chunk_size = 1\n", "chunk_size = 4096\n",
                                   f"chunk_size = {2**63 - 1}\n"]):
            out = tmp_path / f"c{i}.csv"
            config = write_config(base.format(chunk=chunk), f"c{i}.cfg")
            assert run_cli(capsys, "simulate", "--config", config, "--out", str(out))[0] == 0
            outputs.append(out.read_bytes())
        assert len(set(outputs)) == 1


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser whose reading of a command line ``cli._parse_args`` keeps."""
    parser = argparse.ArgumentParser(
        prog="mzsim",
        description="Interferometer count predictions, Monte Carlo runs, "
        "fringe profiles, and hypothesis discrimination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument(
            "--config",
            required=name != "sectors-demo",
            help="path to the run configuration file",
        )
        p.add_argument("--out", help="write the artifact here instead of stdout")
        if name != "sectors-demo":
            p.add_argument(
                "--format", choices=("csv", "json"), help="override [output] format"
            )
        if name in ("simulate", "discriminate", "plan"):
            p.add_argument("--seed", type=int, help="override [simulation] seed")
    return parser


def argparse_reading(argv):
    """(status, parsed): 0 and the namespace's values, or the exit status with None."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            ns = _build_parser().parse_args(argv)
        except SystemExit as stop:
            return stop.code, None
    return 0, (ns.command, ns.config, ns.out, getattr(ns, "format", None),
               getattr(ns, "seed", None))


def new_reading(argv):
    command, options = _parse_args(argv)
    return command, options["config"], options["out"], options["format"], options["seed"]


OPTIONS = ("--config", "--out", "--format", "--seed")
# each option in full and by each prefix
SPELLINGS = {name: [name[:k] for k in range(3, len(name) + 1)] for name in OPTIONS}
HELP_SPELLINGS = ["-h", "--h", "--he", "--hel", "--help"]
# values each option takes, then values that are wrong somewhere: a format or
# seed that is refused, text with a space, option-like words
OPTION_VALUES = {"--config": ["run.cfg", "-5", "x y", ""], "--out": ["out.txt", "-1.5", "a=b"],
                 "--format": ["csv", "json"], "--seed": ["3", "-5", "1_0", " 7"]}
WRONG_VALUES = ["xml", "JSON", "1.5", "abc", "", "-x", "-h", "--config", "-", "--"]
# arguments no subcommand takes: unknown options, help with a tail, stray words
STRAYS = ["--bogus", "--bogus=1", "-x", "---config", "--conf-ig", "--=x", "--=", "-hh",
          "-hx", "-h=h", "-h=", "--help=x", "--", "extra", "-5", "-1.5", "- ", "-"]


@st.composite
def command_lines(draw):
    """An argv: maybe a leading word, a subcommand (or junk), then options and strays.

    Most options are well formed, so that about half the lines parse.
    """
    words = []
    if draw(st.integers(0, 9)) == 0:
        words.append(draw(st.sampled_from(["-h", "--he", "--bogus", "-x", "--", "-5"])))
    if draw(st.integers(0, 19)):
        words.append(draw(st.sampled_from([*_COMMANDS, "predic", "nope", ""])))
    if draw(st.integers(0, 4)):
        words += ["--config", "run.cfg"]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 99))
        name = draw(st.sampled_from(OPTIONS))
        spelling = draw(st.sampled_from(SPELLINGS[name]))
        value = draw(st.sampled_from(OPTION_VALUES[name] if kind < 70 else WRONG_VALUES))
        if (kind < 25 or 70 <= kind < 75) and value != "--":
            # "--opt=--" is left out: argparse hands that option an empty list
            words.append(f"{spelling}={value}")
        elif kind < 80:
            words += [spelling, value]
        elif kind < 85:
            words.append(spelling)  # a missing value, unless the next word gives one
        elif kind < 90:
            words.append(draw(st.sampled_from(HELP_SPELLINGS)))
        else:
            words.append(draw(st.sampled_from(STRAYS)))
    return words


@settings(max_examples=1500, deadline=None)
@given(argv=command_lines())
def test_the_option_table_reads_every_command_line_as_argparse_did(argv):
    status, parsed = argparse_reading(argv)
    if status == 0 and parsed is not None:
        assert new_reading(argv) == parsed
        return
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == status
    if status == 0:  # help
        assert out.getvalue().startswith("usage: mzsim") and err.getvalue() == ""
    else:
        assert status == 2 and out.getvalue() == ""
        usage, message = err.getvalue().splitlines()
        assert usage.startswith("usage: mzsim") and message.startswith("mzsim: error: ")


class TestCommandLine:
    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["--"], "the following arguments are required: command"),
        (["nope"], "argument command: invalid choice: 'nope' (choose from 'predict', "
         "'simulate', 'fringes', 'discriminate', 'plan', 'sectors-demo')"),
        (["predict"], "the following arguments are required: --config"),
        (["predict", "--config"], "argument --config: expected one argument"),
        (["predict", "--config", "--out", "x"], "argument --config: expected one argument"),
        (["predict", "--config", "--", "x"], "argument --config: expected one argument"),
        (["simulate", "--config", "a", "--seed", "1.5"],
         "argument --seed: invalid int value: '1.5'"),
        (["simulate", "--config", "a", "--form=xml"],
         "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
        (["predict", "--config", "a", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["--bogus", "plan", "--config", "a", "extra"], "unrecognized arguments: --bogus extra"),
        (["plan", "--config", "a", "--", "-h"], "unrecognized arguments: -- -h"),
        (["plan", "--=a"], "ambiguous option: --=a could match --help, --config, --out, "
         "--format, --seed"),
        (["plan", "-hx"], "argument -h/--help: ignored explicit argument 'x'"),
    ])
    def test_a_usage_error_exits_2_with_nothing_on_stdout(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.splitlines()[1] == f"mzsim: error: {message}"

    def test_the_usage_line_names_the_subcommand_and_its_options(self, capsys):
        assert run_cli(capsys, "sectors-demo", "--format", "csv")[2].splitlines()[0] == (
            "usage: mzsim [-h] {predict,simulate,fringes,discriminate,plan,sectors-demo} ...")
        assert run_cli(capsys, "simulate", "--seed")[2].splitlines()[0] == (
            "usage: mzsim simulate [-h] --config CONFIG [--out OUT] [--format {csv,json}] "
            "[--seed SEED]")

    @pytest.mark.parametrize("argv", [["-h"], ["--he"], ["--bogus", "-hh"], ["plan", "-h"],
                                      ["sectors-demo", "--format", "csv", "--help"],
                                      ["predict", "--config", "a", "--h", "--format", "xml"]])
    def test_help_exits_0_on_stdout_before_any_later_refusal(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "" and out.startswith("usage: mzsim")
        assert "  -h, --help" in out and out.endswith("\n")

    def test_help_lists_each_option_of_the_subcommand(self, capsys):
        out = run_cli(capsys, "simulate", "-h")[1]
        assert out == (
            "usage: mzsim simulate [-h] --config CONFIG [--out OUT] [--format {csv,json}] "
            "[--seed SEED]\n\noptions:\n"
            "  -h, --help           show this help message and exit\n"
            "  --config CONFIG      path to the run configuration file\n"
            "  --out OUT            write the artifact here instead of stdout\n"
            "  --format {csv,json}  override [output] format\n"
            "  --seed SEED          override [simulation] seed\n"
        )

    @pytest.mark.parametrize("spellings", [
        ["--config={path}", "--format=json"],
        ["--c", "{path}", "--form", "json"],
        ["--format", "csv", "--config", "/nonexistent", "--conf", "{path}", "--f", "json"],
    ])
    def test_option_spellings_reach_the_same_run(self, write_config, capsys, spellings):
        path = write_config(PHOTON)
        code, out, err = run_cli(capsys, "predict", *(w.format(path=path) for w in spellings))
        assert (code, err) == (0, "")
        assert json.loads(out) == {"counter1": 5000.0, "counter2": 5000.0, "lost": 6000.0}

    def test_a_double_dash_after_equals_is_the_value(self):
        # argparse handed "--config=--" an empty list, on which open() raised TypeError
        assert new_reading(["predict", "--config=--", "--out=--"]) == (
            "predict", "--", "--", None, None)

    def test_a_negative_seed_is_read_and_refused_by_the_config(self, write_config, capsys):
        code, out, err = run_cli(capsys, "simulate", "--config", write_config(EXCITATION),
                                 "--seed", "-5")
        assert (code, out) == (2, "")
        assert err == "mzsim: config error: seed must be a 64-bit unsigned integer, got -5\n"

    @pytest.mark.parametrize("argv, status", [(["predict"], 2), (["plan", "-h"], 0)])
    def test_the_console_script_exits_with_the_status(self, argv, status):
        src = os.path.dirname(os.path.dirname(mzsim.__file__))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from mzsim.cli import main; sys.exit(main())",
             *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == status
        assert (done.stdout if status == 0 else done.stderr).startswith("usage: mzsim")


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
        EXCITATION.replace("n0 = 10000", f"n0 = {2**63}"),
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


# (config, exit code, stderr) of plan requests refused before any sample size
PLAN_REFUSALS = [
    (
        BACKGROUND_PLAN,
        2,
        "mzsim: config error: alpha is required: this design has no category that is "
        "impossible under h0, so the sample size comes from a power search at "
        "significance alpha\n",
    ),
    (
        BACKGROUND_PLAN + "alpha = 0.01\nmethod = closed_form\n",
        2,
        "mzsim: config error: method = closed_form needs a category that is impossible "
        "under h0, and this design has none\n",
    ),
    (
        EXCITATION + "\n[stats]\npower = 0.99\nbackground = 0.3\n",
        2,
        "mzsim: config error: background probabilities must sum to at most 1\n",
    ),
    (
        EXCITATION + "\n[stats]\npower = 0.9\nh1 = modified_rate\n",
        2,
        "mzsim: config error: excitation run supports POS and CCQI, not MODIFIED_RATE\n",
    ),
    (
        EXCITATION + "\n[stats]\npower = 0.9\nh0 = ccqi\nh1 = ccqi\n",
        3,
        "mzsim: error: models are identical within tolerance; nothing to discriminate\n",
    ),
]


@pytest.mark.parametrize("config, code, message", PLAN_REFUSALS)
def test_plan_refusals_keep_their_bytes(write_config, capsys, config, code, message):
    assert run_cli(capsys, "plan", "--config", write_config(config)) == (code, "", message)


# runs in a fresh interpreter: import the package and the CLI (or the modules
# named in argv), answer every request given on stdin, then report the exit
# codes, whether numpy and numpy.random loaded, and which mzsim submodules
# ran; a lazily bound module counts once its code has executed, not when bound
# the requests and the report pass as Python literals, so that json and array
# in the report are modules that mzsim loaded
GUARD_SCRIPT = """
import ast, contextlib, importlib, importlib.util, io, os, sys, tempfile
for name in sys.argv[1:] or ["mzsim", "mzsim.cli"]:
    getattr(importlib.import_module(name), "__all__")  # runs a lazily bound module
codes = []
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "run.cfg")
    for command, config, *flags in ast.literal_eval(sys.stdin.read()):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config)
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            codes.append(sys.modules["mzsim.cli"].main([command, "--config", path, *flags]))
# type() reads no attribute, so it leaves a module that has not run unloaded
executed = sorted(
    name for name, module in list(sys.modules.items())
    if name.startswith("mzsim.") and type(module) is not importlib.util._LazyModule
)
print(repr({"codes": codes, "numpy": "numpy" in sys.modules,
            "numpy_random": "numpy.random" in sys.modules, "executed": executed,
            "dataclasses": "dataclasses" in sys.modules,
            "inspect": "inspect" in sys.modules,
            "argparse": "argparse" in sys.modules,
            "gettext": "gettext" in sys.modules,
            "json": "json" in sys.modules, "array": "array" in sys.modules,
            "utf_8_sig": "encodings.utf_8_sig" in sys.modules}))
"""

def run_guard(requests, *modules) -> dict:
    src = os.path.dirname(os.path.dirname(mzsim.__file__))
    result = subprocess.run(
        [sys.executable, "-c", GUARD_SCRIPT, *modules],
        input=repr(requests),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    return ast.literal_eval(result.stdout)


# at t = 0.7 nb1 and nb2 do not tie, so a background design keeps four pooled cells
FOUR_CELLS = EXCITATION.replace(LN2, "0.7") + "[stats]\nalpha = 0.05\nbackground = 1e-3\n"


# the layers only discriminate and plan run
STATS_LAYERS = {"mzsim.stats"}
# the zero-cell closed form: without alpha, with it unused, under visibility 1, by name
CLOSED_FORM_PLANS = [
    ["plan", EXCITATION + "[stats]\npower = 0.9\n" + extra]
    for extra in ("", "alpha = 0.05\n", "visibility = 1\n", "method = closed_form\n")
]


def parses(config: str) -> bool:
    try:
        parse_config(config)
    except MzsimError:
        return False
    return True


def test_predict_and_config_errors_do_not_import_numpy():
    decay = DECAY_WITHOUT_OFFSET.replace("mu = 0.5", "mu = 1")
    impure_decay = DECAY_WITHOUT_OFFSET.replace("lambda = 0", "lambda = 1")
    predicts = [
        ["predict", config, "--format", fmt]
        for config in (EXCITATION, decay, impure_decay, PHOTON)
        for fmt in ("csv", "json")
    ]
    # refused while parsing, or by a subcommand that runs no stats
    errors = [
        [command, config]
        for command, config, key in CONFIG_ERRORS
        if command not in ("discriminate", "plan") or not parses(config)
    ]
    report = run_guard(predicts + errors)
    assert report["codes"] == [0] * len(predicts) + [2] * len(errors)
    assert report["numpy"] is False
    assert STATS_LAYERS.isdisjoint(report["executed"])
    assert report["dataclasses"] is False and report["inspect"] is False
    assert report["argparse"] is False and report["gettext"] is False


def test_a_closed_form_plan_runs_stats_without_numpy():
    report = run_guard(CLOSED_FORM_PLANS)
    assert report["codes"] == [0] * len(CLOSED_FORM_PLANS)
    assert report["numpy"] is False and report["array"] is False
    assert STATS_LAYERS <= set(report["executed"])
    assert report["dataclasses"] is False and report["inspect"] is False
    assert report["argparse"] is False and report["gettext"] is False


def test_stats_requests_below_the_cap_do_not_import_numpy():
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
    # refused by the rules of stats, after the config has parsed
    errors = [
        [command, config]
        for command, config, key in CONFIG_ERRORS
        if command in ("discriminate", "plan") and parses(config)
    ]
    report = run_guard(CLOSED_FORM_PLANS + exact + errors)
    assert report["codes"] == [0] * len(CLOSED_FORM_PLANS + exact) + [2] * len(errors)
    # the binomial tails are lists
    assert report["numpy"] is False and report["array"] is False
    assert report["dataclasses"] is False and report["inspect"] is False
    assert report["argparse"] is False and report["gettext"] is False


def test_simulate_does_not_import_numpy():
    decay = DECAY_WITHOUT_OFFSET.replace("lambda = 0", "lambda = 1") + "lambda_prime = 2\n"
    experiments = {"excitation": EXCITATION, "decay": decay, "photon": PHOTON}
    pairs = [("excitation", "pos"), ("excitation", "ccqi"), ("decay", "pos"),
             ("decay", "ccqi"), ("decay", "modified_rate"), ("photon", "pos"),
             ("photon", "ccqi")]
    # n0 = 10000, 1000 and 16000, with a chunk_size that is checked and ignored
    sim = "[simulation]\nseed = 11\nchunk_size = 300\n"
    requests = [
        ["simulate", re.sub("hypothesis = .*", f"hypothesis = {h}", experiments[e]) + sim,
         "--format", fmt]
        for e, h in pairs
        for fmt in ("csv", "json")
    ]
    report = run_guard(requests)
    assert report["codes"] == [0] * len(requests)
    assert report["numpy"] is False and report["numpy_random"] is False
    assert STATS_LAYERS.isdisjoint(report["executed"])
    assert report["dataclasses"] is False and report["inspect"] is False
    assert report["argparse"] is False and report["gettext"] is False


def test_fringes_do_not_import_numpy(tmp_path):
    # four periods over 2001 points
    config = FRINGES.replace("n_points = 5", "n_points = 2001")
    out = tmp_path / "profile.csv"
    requests = [
        ["fringes", config + f"pattern = {pattern}\n", "--format", fmt]
        for pattern in ("coherent", "incoherent")
        for fmt in ("csv", "json")
    ] + [["fringes", config, "--out", str(out)]]
    report = run_guard(requests)
    assert report["codes"] == [0] * len(requests)
    assert report["numpy"] is False
    assert "mzsim.fringes" in report["executed"]
    assert report["dataclasses"] is False and report["inspect"] is False
    assert report["argparse"] is False and report["gettext"] is False
    assert out.read_text().count("\n") == 2002


def test_importing_the_cli_does_not_load_the_exact_engine():
    assert run_guard([]) == {
        "codes": [], "numpy": False, "numpy_random": False,
        "executed": ["mzsim.cli", "mzsim.config", "mzsim.core", "mzsim.errors",
                     "mzsim.predict"],
        "dataclasses": False, "inspect": False, "argparse": False, "gettext": False,
        "json": False, "array": False, "utf_8_sig": False,
    }


def test_one_process_runs_every_light_path_without_dataclasses_or_inspect():
    # predict, a config error, simulate, a closed-form plan and exact stats, in turn
    sim = "[simulation]\nseed = 3\nchunk_size = 4096\n"
    requests = [
        ["predict", PHOTON, "--format", "json"],
        ["predict", DECAY_WITHOUT_OFFSET],  # mu < 1 at lambda = 0
        ["simulate", EXCITATION + sim, "--format", "json"],
        CLOSED_FORM_PLANS[0],
        ["discriminate", FOUR_CELLS + "counts = 62,12,3,3\n"],
        ["plan", FOUR_CELLS + "power = 0.9\n"],
    ]
    report = run_guard(requests)
    assert report["codes"] == [0, 2, 0, 0, 0, 0]
    assert report["numpy"] is False
    assert {"mzsim.montecarlo", "mzsim.stats"} <= set(report["executed"])
    assert report["dataclasses"] is False and report["inspect"] is False
    assert report["argparse"] is False and report["gettext"] is False
    # reading a config drops a byte-order mark without the utf-8-sig codec
    assert report["utf_8_sig"] is False


def test_no_request_loads_json():
    # each subcommand in either format; discriminate and plan refuse csv
    requests = [
        [command, config, "--format", fmt]
        for command, config in [
            ["predict", PHOTON],
            ["simulate", EXCITATION + "[simulation]\nseed = 3\n"],
            ["fringes", FRINGES],
            ["discriminate", FOUR_CELLS + "counts = 62,12,3,3\n"],
            ["plan", FOUR_CELLS + "power = 0.9\n"],
            CLOSED_FORM_PLANS[0],
        ]
        for fmt in ("csv", "json")
    ] + [["sectors-demo", ""]]
    report = run_guard(requests)
    assert report["codes"] == [0] * 6 + [2, 0] * 3 + [0]
    assert report["json"] is False


def test_usage_errors_and_help_load_neither_argparse_nor_gettext():
    requests = [
        ["predict", PHOTON, "--format", "xml"],
        ["simulate", EXCITATION, "--seed", "abc"],
        ["fringes", FRINGES, "--bogus"],
        ["nope", ""],
        ["plan", EXCITATION, "--seed"],
        ["discriminate", EXCITATION, "-h"],
        ["sectors-demo", "", "--help"],
    ]
    report = run_guard(requests)
    assert report["codes"] == [2, 2, 2, 2, 2, 0, 0]
    assert report["argparse"] is False and report["gettext"] is False


def test_importing_stats_does_not_import_numpy():
    report = run_guard([], "mzsim.stats", "mzsim.cli")
    assert report["numpy"] is False and STATS_LAYERS <= set(report["executed"])


def test_sectors_demo_does_not_import_numpy(tmp_path):
    out = tmp_path / "demo.txt"
    report = run_guard([["sectors-demo", ""], ["sectors-demo", "", "--out", str(out)]])
    assert report["codes"] == [0, 0]
    assert report["numpy"] is False and report["numpy_random"] is False
    assert "mzsim.sectors" in report["executed"]
    assert report["argparse"] is False and report["gettext"] is False
    assert "purity: 0.5" in out.read_text()


def test_importing_sectors_does_not_import_numpy():
    report = run_guard([], "mzsim.sectors")
    assert report["numpy"] is False and "mzsim.sectors" in report["executed"]


def test_only_the_simulation_above_the_cap_imports_numpy_random():
    # numpy.random takes ~14 ms to import, and only the seeded tests above the
    # row cap use it; 344 draws over four pooled cells lie above ROW_CAP, so
    # discriminate draws
    sampled = run_guard([["discriminate", FOUR_CELLS + "counts = 300,40,2,2\nreplicates = 10\n"]])
    assert sampled["codes"] == [0]
    assert sampled["numpy"] is True and sampled["numpy_random"] is True
    assert STATS_LAYERS <= set(sampled["executed"])


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
        # visibility replaces h0; the pair is refused, so drop h0 half the time
        if draw(st.booleans()):
            del stats["h0"]
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


class _Float(float):
    """A float subclass with a repr of its own, which json does not use."""

    def __repr__(self):
        return "not json"


JSON_TEXT = st.text(st.sampled_from('"\\\x00\x1f\x7f\n\t\b\f\ré') | st.characters(
    exclude_categories=()))  # surrogates included
JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**4000), 2**4000)
    | st.floats() | st.sampled_from([-0.0, 5e-324, 2.0**-1030, 1e308, math.inf, math.nan])
    | st.floats().map(_Float) | st.sampled_from(list(Method)) | JSON_TEXT
)
JSON_PAYLOADS = st.recursive(JSON_LEAVES, lambda inner: (
    st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(JSON_TEXT, inner)))


@settings(max_examples=500, deadline=None)
@given(payload=JSON_PAYLOADS)
@example(payload={"methods": [*Method], "edges": (True, False, -0.0, 5e-324, 1e308, 2**4000)})
def test_json_reports_are_the_bytes_json_dumps_writes(payload):
    try:
        want = json.dumps(payload, allow_nan=False) + "\n"
    except ValueError:  # a non-finite float
        with pytest.raises(ValueError):
            _json(payload)
    else:
        assert _json(payload) == want



@pytest.mark.parametrize("payload", [object(), {"counts": {1, 2}}, [b"bytes"]])
def test_json_refuses_what_json_dumps_refuses(payload):
    with pytest.raises(TypeError) as want:
        json.dumps(payload, allow_nan=False)
    with pytest.raises(TypeError, match=f"^{re.escape(str(want.value))}$"):
        _json(payload)


CONSOLE_SCRIPT = "import sys; from mzsim.cli import main; sys.exit(main())"
STATS = EXCITATION + "[stats]\nalpha = 0.01\n"
# each exit path: its command line, with {config} for a file holding the config
# text and {out} for a file to write, the config text, and the exit status
EXIT_PATHS = {
    "predict csv": (["predict", "--config", "{config}"], EXCITATION, 0),
    "predict json": (["predict", "--config", "{config}", "--format", "json"], PHOTON, 0),
    "simulate": (["simulate", "--config", "{config}", "--seed", "3"], EXCITATION, 0),
    "fringes": (["fringes", "--config", "{config}"], FRINGES, 0),
    "discriminate": (["discriminate", "--config", "{config}"], STATS + "counts = 70,8,1,1\n", 0),
    "plan": (["plan", "--config", "{config}"], EXCITATION + "[stats]\npower = 0.999\n", 0),
    "sectors-demo": (["sectors-demo"], None, 0),
    "--out": (["predict", "--config", "{config}", "--out", "{out}"], EXCITATION, 0),
    "config error": (["predict", "--config", "{config}"], DECAY_WITHOUT_OFFSET, 2),
    "runtime error": (["discriminate", "--config", "{config}"],
                      STATS + "counts = 9000,1000,0,0\nh1 = pos\n", 3),
    "usage error": (["simulate", "--bogus"], None, 2),
    "help": (["plan", "-h"], None, 0),
}


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mzsim.__file__))}


@pytest.mark.parametrize("case", EXIT_PATHS)
def test_a_process_exits_with_what_main_returns_and_writes(case, write_config, tmp_path):
    argv, text, status = EXIT_PATHS[case]
    config = write_config(text) if text else None
    runs = []
    for where in ("child", "in process"):
        out = tmp_path / f"{where}.out"
        args = [arg.format(config=config, out=out) for arg in argv]
        if where == "child":
            done = subprocess.run([sys.executable, "-c", CONSOLE_SCRIPT, *args],
                                  capture_output=True, env=_child_env())
            code, stdout, stderr = done.returncode, done.stdout, done.stderr
        else:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(args)
            stdout, stderr = stdout.getvalue().encode(), stderr.getvalue().encode()
        runs.append((code, stdout, stderr, out.read_bytes() if out.exists() else None))
    assert runs[0] == runs[1]
    assert runs[0][0] == status
    assert (runs[0][3] is not None) == (case == "--out")


def test_main_registers_one_exit_hook_however_often_it_runs():
    # count the freezes; a hook registered before main's runs after it
    script = (
        "import atexit, gc, sys\n"
        "freeze, calls = gc.freeze, []\n"
        "gc.freeze = lambda: calls.append(1) or freeze()\n"
        "from mzsim.cli import main\n"
        "atexit.register(lambda: print('freezes', len(calls), gc.get_freeze_count() > 0))\n"
        "codes = [main(['-h']), main(['predict']), main(['sectors-demo'])]\n"
        "print('codes', codes, file=sys.stderr)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_child_env())
    assert done.returncode == 0
    assert done.stderr.endswith("codes [0, 2, 0]\n")
    assert done.stdout.startswith("usage: mzsim [-h]")
    assert done.stdout.endswith("freezes 1 True\n")
