"""CLI output byte for byte, and the packed-monomial range error at the CLI.

The files under data/golden hold the stdout of each command below as
recorded before monomials were packed into ints.  They cover the paths
that turn packed keys back into exponent tuples: JSON and text output of
polynomials, an operator image, an eigenvalue, and an expansion.
apply_omega7_421_n4.txt was recorded while the even operator step still
added two products per pair; it covers an image through three even levels.
expand_321.json was recorded while linalg still eliminated over Fraction;
its solve runs over the 462 degree-6 monomials in 6 variables and has
fractional coordinates.  qfun_4321_n4.json (a 4x4 Pfaffian) and
qk_n2_max9.txt were recorded while q_series still built each q_k from
the one before by restriction.  The two eigen_31_eulercubes_n3 files
were recorded while cmd_eigen still formatted its report itself; they
are the only goldens of a report that is not an eigenfunction.
The help_<command>.txt files hold `--help` of the top level and of each
subcommand at COLUMNS=80, recorded while build_parser still declared each
subcommand's flags by hand.  run_sweeps.txt holds the stdout of
scripts/run_sweeps.py, every desk-scale suite's PASS line and check
count, re-recorded when lemma121 left out m_() = 1 and lemma123i took
one monomial per S_n orbit, and again when supersym left out the
Q_lambda longer than n, which vanish (supersym at n = 2: 24 -> 20); the
other suites' lines are as recorded while lemma121 still summed its
levels in spectra and lemma123ii walked each Omega_k from level 1.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from schurq import cli
from schurq.algebra import MAX_DEGREE

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

COMMANDS = {
    "qk_n3_max6.json": ["qk", "--n", "3", "--max", "6"],
    "qk_n3_max6.txt": ["qk", "--n", "3", "--max", "6", "--format", "text"],
    "qfun_421_n4.json": ["qfun", "--lambda", "4,2,1", "--n", "4"],
    "qfun_421_n4.txt": ["qfun", "--lambda", "4,2,1", "--n", "4", "--format", "text"],
    "apply_omega3_31_n3.txt": ["apply", "--op", "omega3", "--lambda", "3,1", "--n", "3", "--format", "text"],
    "apply_omega7_421_n4.txt": ["apply", "--op", "omega7", "--lambda", "4,2,1", "--n", "4", "--format", "text"],
    "eigen_32_omega5_n3.json": ["eigen", "--lambda", "3,2", "--op", "omega5", "--n", "3"],
    "charmap_311_n3.json": ["char-map", "--nu", "3,1,1", "--n", "3"],
    "expand_32.txt": ["expand", "--lambda", "3,2", "--format", "text"],
    "expand_321.json": ["expand", "--lambda", "3,2,1"],
    "qfun_4321_n4.json": ["qfun", "--lambda", "4,3,2,1", "--n", "4"],
    "qk_n2_max9.txt": ["qk", "--n", "2", "--max", "9", "--format", "text"],
    "eigen_31_eulercubes_n3.json": ["eigen", "--op", "euler-cubes", "--lambda", "3,1", "--n", "3"],
    "eigen_31_eulercubes_n3.txt": ["eigen", "--op", "euler-cubes", "--lambda", "3,1", "--n", "3", "--format", "text"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden_bytes(name, capsys):
    assert cli.main(COMMANDS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


HELP = ["schurq", "qk", "qfun", "apply", "eigen", "verify", "char-map", "tableaux", "expand"]


def test_run_sweeps_stdout_matches_golden_bytes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_sweeps.py")],
        capture_output=True, env=env, timeout=300,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "run_sweeps.txt").read_bytes()


@pytest.mark.parametrize("name", HELP)
def test_help_matches_golden_bytes(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"] if name == "schurq" else [name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"help_{name}.txt").read_bytes()


class TestRangeErrorAtTheCli:
    ARGV = ["qk", "--n", "1", "--max", str(MAX_DEGREE + 1), "--force"]

    def test_in_process(self, capsys):
        assert cli.main(self.ARGV) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: total degree ")

    def test_process_exits_2_without_traceback(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "schurq", *self.ARGV],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("top", [300, MAX_DEGREE])
    def test_in_range_degrees_print_as_before(self, top, capsys):
        # in one variable q_k = 2 x1^k, which the CLI printed the same way for any k
        assert cli.main(["qk", "--n", "1", "--max", str(top), "--force", "--format", "text"]) == 0
        want = ["q0 = 1", "q1 = 2*x1"] + [f"q{k} = 2*x1^{k}" for k in range(2, top + 1)]
        assert capsys.readouterr().out == "\n".join(want) + "\n"
