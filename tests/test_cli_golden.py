"""Pinned CLI output: fixed requests, their stdout digests and exit codes.

Each case runs one ``mzsim`` request in process and compares the sha256
of its stdout and its exit code with the recorded ones.  The cases
cover every subcommand and both formats, decay with an impure source,
``discriminate`` exact over three and four pooled cells and by Monte
Carlo above ``ROW_CAP``, and ``plan`` by closed form, by
``method = simulation`` and by exact search.  A change that keeps every byte of output keeps them passing;
a failing case prints its actual digest, so an intended change can be
recorded.
"""

import hashlib

import pytest

from mzsim.cli import main

LN2 = "0.6931471805599453"


def _ini(**sections) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in entries.items())
        for name, entries in sections.items()
    )


def _excitation(hypothesis="pos", n0=10000, epsilon=0.2, t=LN2):
    return {"experiment": "excitation", "hypothesis": hypothesis, "n0": n0,
            "epsilon": epsilon, "lambda": 1.0, "t": t}


def _decay(hypothesis):
    return {"experiment": "decay", "hypothesis": hypothesis, "n0": 100000,
            "lambda": 1.0, "lambda_prime": 0.4, "t1": 0.2, "t2": 0.5, "t3": 0.3,
            "mu": 0.83}


def _photon(hypothesis, n0=16000, d=0.5):
    return {"experiment": "photon", "hypothesis": hypothesis, "n0": n0, "d": d, "u": 0.5}


FRINGES = {"source_separation": 1e-3, "wavelength": 5e-7, "screen_distance": 1.0,
           "x_min": -0.002, "x_max": 0.0015, "n_points": 41}
# the same dark-count rate, as one value and repeated for each category
BACKGROUND = "1e-3"
BACKGROUND_EACH = "1e-3,1e-3,1e-3,1e-3"
PLAN_EXACT = {"alpha": 0.05, "power": 0.9}

# id: (subcommand, config, flags)
REQUESTS = {
    "predict-excitation-pos-csv": ("predict", _ini(experiment=_excitation()), []),
    "predict-excitation-ccqi-json": (
        "predict", _ini(experiment=_excitation("ccqi")), ["--format", "json"]),
    "predict-decay-pos-mu-csv": ("predict", _ini(experiment=_decay("pos")), []),
    "predict-decay-modified_rate-mu-json": (
        "predict", _ini(experiment=_decay("modified_rate")), ["--format", "json"]),
    "predict-photon-pos-csv": ("predict", _ini(experiment=_photon("pos")), []),
    "simulate-excitation-ccqi-csv": (
        "simulate", _ini(experiment=_excitation("ccqi"),
                         simulation={"seed": 7, "chunk_size": 4096}), []),
    "simulate-excitation-pos-json": (
        "simulate", _ini(experiment=_excitation()), ["--format", "json", "--seed", "12345"]),
    "simulate-decay-ccqi-mu-csv": (
        "simulate", _ini(experiment=_decay("ccqi"),
                         simulation={"seed": 2**32, "chunk_size": 1000}), []),
    "simulate-decay-modified_rate-mu-json": (
        "simulate", _ini(experiment=_decay("modified_rate"),
                         simulation={"seed": 3, "chunk_size": 65536}), ["--format", "json"]),
    "simulate-photon-pos-json": (
        "simulate", _ini(experiment=_photon("pos"),
                         simulation={"seed": 2**64 - 1, "chunk_size": 999}),
        ["--format", "json"]),
    "simulate-photon-ccqi-csv": (
        "simulate", _ini(experiment=_photon("ccqi"), simulation={"chunk_size": 5000}), []),
    "fringes-coherent-csv": ("fringes", _ini(fringes=FRINGES), []),
    "fringes-incoherent-json": (
        "fringes", _ini(fringes={**FRINGES, "pattern": "incoherent"}), ["--format", "json"]),
    "sectors-demo": ("sectors-demo", None, []),
    "discriminate-exact-zero-cells": (
        "discriminate", _ini(experiment=_excitation(),
                             stats={"alpha": 0.01, "counts": "90,8,1,1"}), []),
    "discriminate-exact-background": (
        "discriminate", _ini(experiment=_excitation(),
                             stats={"alpha": 0.01, "counts": "80,15,3,2",
                                    "background": BACKGROUND}), []),
    "discriminate-exact-background-each": (
        "discriminate", _ini(experiment=_excitation(),
                             stats={"alpha": 0.01, "counts": "80,15,3,2",
                                    "background": BACKGROUND_EACH}), []),
    "discriminate-exact-visibility": (
        "discriminate", _ini(experiment=_excitation(),
                             stats={"alpha": 0.05, "counts": "80,15,3,2",
                                    "visibility": 0.9, "background": BACKGROUND}), []),
    # 200 draws over three pooled cells (nb1 and nb2 tie at t = ln 2): 20,301 outcomes
    "discriminate-exact-pooled": (
        "discriminate", _ini(experiment=_excitation(),
                             stats={"alpha": 0.01, "counts": "160,30,6,4",
                                    "background": BACKGROUND, "replicates": 20000}),
        ["--seed", "5"]),
    # at t = 0.7 the four cells stay apart: 80 draws, 91,881 outcomes, 3,321 rows
    "discriminate-exact-four-cells": (
        "discriminate", _ini(experiment=_excitation(t=0.7),
                             stats={"alpha": 0.01, "counts": "62,12,3,3",
                                    "background": BACKGROUND}), []),
    # 200 draws over four cells: 1,373,701 outcomes, 20,301 rows
    "discriminate-exact-four-cells-200": (
        "discriminate", _ini(experiment=_excitation(t=0.7),
                             stats={"alpha": 0.01, "counts": "160,30,6,4",
                                    "background": BACKGROUND, "replicates": 20000}),
        ["--seed", "5"]),
    # 344 draws over four cells lie above ROW_CAP
    "discriminate-monte-carlo": (
        "discriminate", _ini(experiment=_excitation(t=0.7),
                             stats={"alpha": 0.01, "counts": "300,40,2,2",
                                    "background": BACKGROUND, "replicates": 20000}),
        ["--seed", "5"]),
    "plan-closed-form": (
        "plan", _ini(experiment=_excitation(), stats={"alpha": 0.01, "power": 0.95}), []),
    "plan-simulation": (
        "plan", _ini(experiment=_excitation(),
                     stats={"alpha": 0.01, "power": 0.95, "method": "simulation",
                            "replicates": 2000}), []),
    "plan-exact-background": (
        "plan", _ini(experiment=_excitation(),
                     stats={**PLAN_EXACT, "background": BACKGROUND}), []),
    "plan-exact-background-each": (
        "plan", _ini(experiment=_excitation(),
                     stats={**PLAN_EXACT, "background": BACKGROUND_EACH}), []),
    # three cells, 3,301 draws: sampled (3357 at this seed) before the rows
    "plan-exact-photon": (
        "plan", _ini(experiment=_photon("pos", n0=1000, d=0.1),
                     stats={"alpha": 0.01, "power": 0.95, "replicates": 2000}), []),
    "config-error-lambda": (
        "predict", _ini(experiment={**_excitation(), "lambda": -1}), []),
}

# id: (sha256 of stdout, exit code)
GOLDEN = {
    "predict-excitation-pos-csv": ("144753cb1410aa70d9543d5b787175e58f90bec205350c2b89f858f0004f7959", 0),
    "predict-excitation-ccqi-json": ("1eb8a50199be738c0753ff448429d8408a92978540516b65f000c485de98d664", 0),
    "predict-decay-pos-mu-csv": ("34a8374500404073d899381d8a8f114d229e2d2433706c3fc88fdbbc8a7dc27c", 0),
    "predict-decay-modified_rate-mu-json": ("e51f7a6802440ea44276207395995522db9d584caed708684bd6a83d8f74894d", 0),
    "predict-photon-pos-csv": ("e877a36e82801b0d51a82f6d0c989d27729f7058ce8b32829708273464587987", 0),
    "simulate-excitation-ccqi-csv": ("5bc17180ac979748bb8a2685417e07f6b53fa214f5827661f8805db97e9d66db", 0),
    "simulate-excitation-pos-json": ("6f96b410bf63c094d5b766745135863489ba7c197da4dcc2865c08d32c2fefe1", 0),
    "simulate-decay-ccqi-mu-csv": ("1fa12ae24ef530583393c66dcf852b23eb4af012c2fd64b7246f9968fa9c6455", 0),
    "simulate-decay-modified_rate-mu-json": ("85335358c32dbc1904f723b0c350b7362046fa237f157b3ac185541bf2f37512", 0),
    "simulate-photon-pos-json": ("e3083efe2e1d1e0c53cc90123e6127f465d3ce31bb22737676f6393d058c503a", 0),
    "simulate-photon-ccqi-csv": ("36c05142844619dfc35a9477de9b42cce05f1518696d65eafd91135ac287001f", 0),
    "fringes-coherent-csv": ("77100498eb2de9b507f585618494870507a8963a28e07e5eaf877f3a669a4b3d", 0),
    "fringes-incoherent-json": ("1f96e883a94151ef407efd82287117a26683c6870947d1aa42e1ca2c5515c403", 0),
    "sectors-demo": ("bc605d2fb7b1bc59126fbec507970591b050fdbda8cb0eaae8dbfb6064f60dcc", 0),
    "discriminate-exact-zero-cells": ("458f2c40f95ff8740f4f91392deb2de52234be54daac8786657ceeca1eda10ca", 0),
    "discriminate-exact-background": ("d1a3e2040e9f27622f1786dab337c8c1db0a25c6db187415ce75765f412966e3", 0),
    "discriminate-exact-background-each": ("d1a3e2040e9f27622f1786dab337c8c1db0a25c6db187415ce75765f412966e3", 0),
    "discriminate-exact-visibility": ("c8d1d9178a29aca2f06e6b03951f69702b8680264793c2d83ebd7e37a9b5961f", 0),
    "discriminate-exact-pooled": ("c849cc86b5d137f387ac33c78a6bc4e4b8bb441645142ad6f121b8bdbaf264b6", 0),
    "discriminate-exact-four-cells": ("d8e1b6362d692c35264c16c584604b670453f38aa326158dc30e9c180bab835b", 0),
    "discriminate-exact-four-cells-200": ("b0ca3c171a3696fb8e7b05f24eed0e55fceb01e6388389dfc4fd22e0f197ec48", 0),
    "discriminate-monte-carlo": ("b40e5d2ec6a66224a3d74301c652445441454f14fd3e45236f205c364ffe0b44", 0),
    "plan-closed-form": ("6fce2fc43e1f922687fe8ba340de0268c102289a2f789cd69b55276277c35162", 0),
    "plan-simulation": ("1369457ab97f5dfb7a1e20e15d9a5f3fcc72eebb20236e54a8637eb312143706", 0),
    "plan-exact-background": ("4bb13803cd4a7cfc6cc117ef49644e3597638804d31ae57437f7f30bbc397a49", 0),
    "plan-exact-background-each": ("4bb13803cd4a7cfc6cc117ef49644e3597638804d31ae57437f7f30bbc397a49", 0),
    "plan-exact-photon": ("9b70e835f5b579d85f1eba4ac4ef67f9150d6292f6fd0ac2b2dacb57f436df0f", 0),
    "config-error-lambda": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
}


@pytest.mark.parametrize("name", list(REQUESTS))
def test_stdout_and_exit_code_are_pinned(name, tmp_path, capsys):
    command, config, flags = REQUESTS[name]
    argv = [command, *flags]
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config, encoding="utf-8")
        argv += ["--config", str(path)]
    code = main(argv)
    actual = (hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(), code)
    assert actual == GOLDEN[name], f"{name}: actual {actual}"
