"""Golden CLI artifacts: every command reproduces its checked-in output byte for byte.

Each case runs ``klpriv.cli.main`` at small sizes with a relative ``--out``
inside a fresh working directory, so the ``out=`` and ``data=`` header lines
are the same on every machine, and compares every file it writes with the
file of the same name under ``tests/golden``.  The files were recorded from
these exact argument lists; a deliberate change to an output format or to
the arithmetic behind a number re-records them the same way.

``namespaces.json`` holds ``repr`` of every attribute of
``build_parser().parse_args([command])``, so the parser's flags, defaults
and their types are pinned independently of how the parser is built.
``public_names.json`` lists the public names of the ``klpriv`` package
(its exports and its submodules, ``cli`` included since this module imports
it), so adding or removing one is a visible diff.
"""

import json
import shutil
from pathlib import Path

import pytest

import klpriv
from klpriv.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"

_TINY = ["--data", "synth:6", "--d", "4", "--width", "6", "--depth", "3",
         "--steps", "4", "--runs", "2", "--eta", "0.05", "--sigma2", "0.02",
         "--pool-size", "3"]
_MULTI = ["--data", "csv:multiclass.csv", "--outputs", "3", "--width", "5",
          "--depth", "2", "--steps", "3", "--runs", "2", "--eta", "0.05",
          "--sigma2", "0.02", "--pool-size", "3"]
_NEIGHBORS = (".neighbors.csv",)

# name -> (argv without --out, suffixes of the files written next to --out)
CASES = {
    "bound": (["bound", "--scheme", "all", "--n", "32", "--time", "0.5",
               "--beta-smooth", "0.1", "--x-sqnorm", "16"], ()),
    "estimate-remove": (["estimate", *_TINY, "--neighbor", "remove"], _NEIGHBORS),
    "estimate-add": (["estimate", *_TINY, "--neighbor", "add", "--scheme", "he"],
                     _NEIGHBORS),
    "estimate-replace": (["estimate", *_TINY, "--neighbor", "replace",
                          "--scheme", "xavier"], _NEIGHBORS),
    # large enough that a GEMM's summation order shows in the last bits
    "estimate-replace-n64": (["estimate", "--data", "synth:64", "--d", "32", "--width", "32",
                              "--depth", "4", "--steps", "3", "--runs", "1", "--eta", "1e-3",
                              "--sigma2", "1e-2", "--neighbor", "replace", "--pool-size", "8",
                              "--cap", "64"], _NEIGHBORS),
    "linearized-remove": (["estimate", "--linearize", *_TINY, "--neighbor", "remove"],
                          _NEIGHBORS),
    "linearized-replace": (["estimate", "--linearize", *_TINY, "--neighbor", "replace",
                            "--scheme", "ntk"], _NEIGHBORS),
    "multiclass-replace": (["estimate", *_MULTI, "--neighbor", "replace"], _NEIGHBORS),
    "multiclass-linearized-add": (["estimate", "--linearize", *_MULTI, "--neighbor", "add"],
                                  _NEIGHBORS),
    "estimate-exact": (["estimate", *_TINY, "--kl-constant", "exact", "--record-every", "2"],
                       _NEIGHBORS),
    "mc-verify": (["mc-verify", "--scheme", "all", "--d", "4", "--width", "8",
                   "--depth", "3", "--samples", "50", "--mc-n", "8"], ()),
    "mc-verify-multi": (["mc-verify", "--scheme", "ntk", "--d", "4", "--width", "8",
                         "--depth", "2", "--outputs", "2", "--samples", "50"], ()),
    "lazy": (["lazy", "--data", "synth:8", "--d", "16", "--width", "32", "--depth", "2",
              "--steps", "20", "--eta", "0.05", "--sigma2", "1e-4"], ()),
    # one record: lazy trains without any neighbor set
    "lazy-n1": (["lazy", "--data", "synth:1", "--d", "16", "--width", "32", "--depth", "2",
                 "--steps", "3"], ()),
    "sweep": (["sweep", "--metric", "both", "--scheme", "he", "--widths", "6,8",
               "--depths", "2", "--d", "4", "--data", "synth:6", "--steps", "3",
               "--runs", "2", "--eta", "0.05", "--sigma2", "0.02"], ()),
    # both runs diverge after step 2: step 2 finite, steps 4-8 inf with diverged=1
    "estimate-diverged": (["estimate", "--data", "synth:6", "--d", "4", "--width", "6",
                           "--depth", "4", "--steps", "8", "--runs", "2", "--eta", "1e4",
                           "--sigma2", "1", "--record-every", "2"], _NEIGHBORS),
    # run 0 completes 5 steps, run 1 only 2
    "estimate-diverged-mixed": (["estimate", "--data", "synth:6", "--d", "4", "--width", "6",
                                 "--depth", "4", "--steps", "8", "--runs", "2", "--eta", "1e3",
                                 "--sigma2", "1", "--record-every", "2"], _NEIGHBORS),
    # the width-32 cell diverges after step 2, the width-4 cell does not
    "sweep-diverged": (["sweep", "--metric", "both", "--scheme", "he", "--widths", "4,32",
                        "--depths", "3", "--d", "4", "--data", "synth:6", "--steps", "5",
                        "--runs", "2", "--eta", "100", "--sigma2", "1",
                        "--record-every", "2"], ()),
}

# exit code of each case that does not exit 0 (3: a run diverged)
EXIT_CODES = {"estimate-diverged": 3, "estimate-diverged-mixed": 3, "sweep-diverged": 3}

COMMANDS = ("bound", "estimate", "mc-verify", "lazy", "sweep")


def run_case(name: str, workdir: Path, exit_code: int = 0) -> list[str]:
    """Run one case inside ``workdir``, check its exit code and return the
    names of the files it wrote."""
    argv, suffixes = CASES[name]
    shutil.copy(GOLDEN / "multiclass.csv", workdir)
    out = f"{name}.csv"
    assert main([*argv, "--out", out]) == exit_code
    return [out, *(out + s for s in suffixes)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for artifact in run_case(name, tmp_path, EXIT_CODES.get(name, 0)):
        assert (tmp_path / artifact).read_bytes() == (GOLDEN / artifact).read_bytes(), artifact


@pytest.mark.parametrize("command", COMMANDS)
def test_parser_defaults_unchanged(command):
    expected = json.loads((GOLDEN / "namespaces.json").read_text())[command]
    ns = vars(build_parser().parse_args([command]))
    assert {k: repr(v) for k, v in ns.items()} == expected


def test_public_names_unchanged():
    expected = json.loads((GOLDEN / "public_names.json").read_text())
    assert sorted(n for n in vars(klpriv) if not n.startswith("_")) == expected
