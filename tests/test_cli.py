import dataclasses
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from schurq import cli, linalg, spectra
from schurq.algebra import Factor, Polynomial, RationalFunction
from schurq.qfunctions import StrictPartition, shifted_tableaux_count
from schurq.spectra import SweepReport, SweepSpec, skew_symmetry_sweep

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def patch_sweep(monkeypatch, name, sweep):
    """Run sweep for the suite name, keeping the suite's registered sizes."""
    monkeypatch.setitem(spectra.SWEEPS, name, dataclasses.replace(spectra.SWEEPS[name], sweep=sweep))


class TestBasicCommands:
    def test_qfun_text(self, capsys):
        rc, out, _ = run(capsys, ["qfun", "--lambda", "1", "--n", "2", "--format", "text"])
        assert rc == 0
        assert out.strip() == "2*x1 + 2*x2"

    def test_eigen_json(self, capsys):
        rc, out, _ = run(capsys, ["eigen", "--lambda", "2,1", "--op", "omega3", "--n", "3"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["eigenvalue"] == "0"
        assert obj["isEigen"] is True

    def test_eigen_in_one_variable(self, capsys):
        # Omega_3 on Q_(2) = 2x1^2 walks to level 3 with an empty coefficient row: 2^2 (2 - 1) = 4
        rc, out, _ = run(capsys, ["eigen", "--lambda", "2", "--op", "omega3", "--n", "1"])
        assert rc == 0
        assert json.loads(out) == {"eigenvalue": "4", "isEigen": True, "operator": "omega3", "partition": "2"}

    def test_tableaux(self, capsys):
        rc, out, _ = run(capsys, ["tableaux", "--lambda", "3,2,1", "--format", "text"])
        assert rc == 0
        assert out.strip() == "2"

    def test_qk_json(self, capsys):
        rc, out, _ = run(capsys, ["qk", "--n", "1", "--max", "2"])
        assert rc == 0
        objs = json.loads(out)
        assert objs[2] == {"n": 1, "terms": [{"exp": [2], "coeff": "2"}]}

    def test_apply(self, capsys):
        rc, out, _ = run(
            capsys, ["apply", "--op", "omega3", "--lambda", "2", "--n", "2", "--format", "text"]
        )
        assert rc == 0
        assert out.strip() == "8*x1^2 + 16*x1*x2 + 8*x2^2"

    def test_char_map(self, capsys):
        rc, out, _ = run(capsys, ["char-map", "--nu", "3", "--n", "2", "--format", "text"])
        assert rc == 0
        assert out.strip() == "2*x1^3 + 2*x2^3"

    def test_expand(self, capsys):
        rc, out, _ = run(capsys, ["expand", "--lambda", "3"])
        assert rc == 0
        assert json.loads(out) == {"3": "2/3", "1,1,1": "4/3"}

    def test_expand_empty_partition(self, capsys):
        # Q_() = 1 = p_()
        rc, out, _ = run(capsys, ["expand", "--lambda", ""])
        assert (rc, json.loads(out)) == (0, {"": "1"})


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        argv = ["qfun", "--lambda", "4,2,1", "--n", "3"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestVerify:
    def test_passing_suite_exit_zero(self, capsys):
        rc, out, _ = run(capsys, ["verify", "--suite", "aux35", "--n", "2", "--format", "text"])
        assert rc == 0
        assert "PASS" in out

    def test_skew_suite_json(self, capsys):
        rc, out, _ = run(capsys, ["verify", "--suite", "skew", "--n", "2", "--max", "3"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["passed"] is True
        assert obj["checked"] > 0

    def test_seeded_failure_flips_exit_code(self, capsys, monkeypatch):
        def broken(n, d):
            report = SweepReport("injected")
            report.checked = 2
            report.failures += ["injected failure", "second failure"]
            return report

        patch_sweep(monkeypatch, "skew", broken)
        rc, out, _ = run(capsys, ["verify", "--suite", "skew", "--n", "2", "--format", "text"])
        assert rc == 1
        assert out == "injected: FAIL (2 checks)\n  injected failure\n  second failure\n"

    def test_separation_suite(self, capsys):
        argv = ["verify", "--suite", "separation", "--n", "3", "--max", "5", "--format", "text"]
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        assert out.startswith("separation(n=3,maxweight=5): PASS")

    def test_aux35_rejects_max(self, capsys):
        rc, out, err = run(capsys, ["verify", "--suite", "aux35", "--n", "3", "--max", "9"])
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "--max" in err

    def test_aux35_without_max_unchanged(self, capsys):
        rc, out, _ = run(capsys, ["verify", "--suite", "aux35", "--n", "3", "--format", "text"])
        assert (rc, out) == (0, "aux35(n=3): PASS (3 checks)\n")
        rc, out, _ = run(capsys, ["verify", "--suite", "aux35", "--n", "3"])
        obj = {"checked": 3, "failures": [], "passed": True, "suite": "aux35(n=3)"}
        assert (rc, out) == (0, json.dumps(obj, sort_keys=True) + "\n")

    def test_sizes_below_the_range_are_refused(self, capsys):
        # a sweep over no variables or a negative size would PASS with 0 checks
        for name, spec in spectra.SWEEPS.items():
            rc, out, err = run(capsys, ["verify", "--suite", name, "--n", "0"])
            assert (rc, out) == (2, ""), name
            assert err.startswith("error: ") and "--n" in err, name
            if spec.desk_max is None:
                continue
            rc, out, err = run(capsys, ["verify", "--suite", name, "--n", "2", "--max", "-1"])
            assert (rc, out) == (2, ""), name
            assert err.startswith("error: ") and "--max" in err, name

    def test_max_zero_still_checks(self, capsys):
        rc, out, _ = run(capsys, ["verify", "--suite", "lemma123i", "--n", "2", "--max", "0"])
        obj = json.loads(out)
        assert rc == 0 and obj["passed"] and obj["checked"] > 0

    def test_a_pass_with_no_checks_is_refused(self, capsys):
        # at --max 0 a suite checks something or exits 2: a PASS over no
        # checks would say nothing about the identity
        for name, spec in spectra.SWEEPS.items():
            sizes = ["--n", "2"] + (["--max", "0"] if spec.desk_max is not None else [])
            rc, out, err = run(capsys, ["verify", "--suite", name, *sizes])
            if rc == 0:
                assert json.loads(out)["checked"] > 0, name
            else:
                assert (rc, out) == (2, ""), name
                assert err.startswith(f"error: suite {name} checked nothing at --n 2 --max 0"), name
        rc, out, err = run(capsys, ["verify", "--suite", "separation", "--n", "2", "--max", "1"])
        assert (rc, out, err) == (2, "", "error: suite separation checked nothing at --n 2 --max 1\n")

    def test_a_failure_with_no_checks_still_exits_1(self, capsys, monkeypatch):
        def failed(n, d):
            report = SweepReport("injected")
            report.failures.append("setup failed")
            return report

        patch_sweep(monkeypatch, "skew", failed)
        rc, out, _ = run(capsys, ["verify", "--suite", "skew", "--n", "2", "--format", "text"])
        assert (rc, out) == (1, "injected: FAIL (0 checks)\n  setup failed\n")

    def test_default_max_is_6(self, capsys, monkeypatch):
        seen = {}

        def record(n, d):
            seen[n] = d
            report = SweepReport("recorded")
            report.check(True, "")  # a report that checked nothing is refused
            return report

        for name in spectra.SWEEPS:
            if name == "aux35":
                continue
            seen.clear()
            patch_sweep(monkeypatch, name, record)
            rc, _, _ = run(capsys, ["verify", "--suite", name, "--n", "2"])
            assert (rc, seen) == (0, {2: 6}), name

    def test_readme_lists_every_suite(self):
        readme = (ROOT / "README.md").read_text()
        listing = re.search(r"Verification suites: (.*?)\.", readme, re.S).group(1)
        assert re.findall(r"`([^`]+)`", listing) == sorted(spectra.SWEEPS)

    def test_readme_lists_every_limit(self):
        # each refusal phrase is derived from spectra.LIMITS, so changing an entry fails here until README follows
        readme = " ".join((ROOT / "README.md").read_text().split())
        phrases = []
        for name, (max_n, caps) in spectra.LIMITS.items():
            op = name in spectra.OPERATORS
            if max_n < cli.MAX_N:
                phrases.append(f"`--op {name}` in `apply` and `eigen` above n={max_n}" if op else f"`{name}` above n={max_n}")
            for n, cap in caps.items():
                phrases.append(f"`--op {name} --n {n}` above |λ|={cap}" if op else f"`{name} --n {n}` above `--max {cap}`")
        assert len(phrases) >= len(spectra.LIMITS)
        assert [p for p in phrases if p not in readme] == []

    def test_every_registered_sweep_is_a_suite(self):
        parser = cli.build_parser()
        for name in spectra.SWEEPS:
            args = parser.parse_args(["verify", "--suite", name, "--n", "2"])
            assert args.suite == name
        with pytest.raises(SystemExit):
            parser.parse_args(["verify", "--suite", "unregistered", "--n", "2"])


class TestErrors:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["qfun", "--lambda", "1", "--n", "2", "--bogus"])
        assert exc.value.code == 2

    def test_unknown_operator_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["apply", "--op", "omega2", "--lambda", "1", "--n", "2"])
        assert exc.value.code == 2

    def test_bad_partition_exits_2(self, capsys):
        rc, _, err = run(capsys, ["qfun", "--lambda", "1,2", "--n", "2"])
        assert rc == 2
        assert "error" in err

    def test_guardrail_without_force(self, capsys):
        rc, _, err = run(capsys, ["qk", "--n", "7", "--max", "2"])
        assert rc == 2
        assert "guardrail" in err

    def test_guardrail_with_force(self, capsys):
        rc, out, _ = run(capsys, ["qk", "--n", "7", "--max", "1", "--force", "--format", "text"])
        assert rc == 0
        assert "q1" in out

    def test_expand_guardrail_counts_variables(self, capsys):
        # expand works in n = |lambda| variables, so |lambda| = 7 exceeds MAX_N
        rc, _, err = run(capsys, ["expand", "--lambda", "7"])
        assert rc == 2
        assert "guardrail" in err
        rc, out, _ = run(capsys, ["expand", "--lambda", "7", "--force"])
        assert rc == 0
        assert json.loads(out)["7"] == "2/7"

    def test_tableaux_guardrail(self, capsys):
        rc, out, err = run(capsys, ["tableaux", "--lambda", "13"])
        assert (rc, out) == (2, "")
        assert "degree 13 exceeds the guardrail 12; pass --force" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_tableaux_past_the_digit_limit(self, capsys, fmt):
        # g_(90,..,1) has more digits than Python's int-to-str limit lets str() write
        lam = ",".join(str(p) for p in range(90, 0, -1))
        rc, out, _ = run(capsys, ["tableaux", "--lambda", lam, "--force", "--format", fmt])
        assert rc == 0
        count = shifted_tableaux_count(StrictPartition.parse(lam))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            digits = len(str(count))
            assert int(out if fmt == "text" else json.loads(out)["count"]) == count
        finally:
            sys.set_int_max_str_digits(limit)
        assert digits > limit
        assert len(re.search(r"\d+", out).group()) == digits

    @pytest.mark.parametrize(
        "argv",
        [
            ["eigen", "--op", "omega3-closed", "--lambda", "5,4,2,1", "--n", "6"],
            ["apply", "--op", "omega3-closed", "--lambda", "6,4,2", "--n", "6"],
        ],
    )
    def test_omega3_closed_guardrail_below_max_n(self, capsys, monkeypatch, argv):
        # n = 6 is within MAX_N, but the closed Omega_3 takes about a minute there
        def not_reached(f, n):
            raise AssertionError("the guardrail let omega3-closed run at n = 6")

        monkeypatch.setitem(spectra.OPERATORS, "omega3-closed", not_reached)
        assert int(argv[-1]) <= cli.MAX_N
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert "guardrail 5 for --op omega3-closed" in err

    def test_omega3_closed_admitted_at_n5(self, capsys):
        rc, out, _ = run(capsys, ["eigen", "--op", "omega3-closed", "--lambda", "2,1", "--n", "5"])
        assert rc == 0
        assert json.loads(out)["isEigen"] is True

    def test_char_map_needs_a_variable(self, capsys):
        rc, out, err = run(capsys, ["char-map", "--nu", "3", "--n", "0"])
        assert rc == 2
        assert out == ""
        assert "need n >= 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["qfun", "--lambda=", "--n", "0"],
            ["apply", "--op", "omega1", "--lambda=", "--n", "0"],
            ["eigen", "--lambda=", "--op", "omega3", "--n", "0"],
        ],
    )
    def test_q_function_needs_a_variable(self, capsys, argv):
        # Q_() in no variables was printed as a polynomial, or an eigen check
        # failed on an internal index error
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert "need n >= 1" in err

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def broken(n, d):
            raise linalg.InconsistentSystem("injected")

        patch_sweep(monkeypatch, "skew", broken)
        rc, out, err = run(capsys, ["verify", "--suite", "skew", "--n", "2"])
        assert rc == 3
        assert out == ""
        assert err.startswith("error: ")
        assert "injected" in err

    def test_apply_denominator_left_exits_3(self, capsys, monkeypatch):
        # every registered operator maps Q_lambda to a polynomial, so a
        # leftover denominator is a broken invariant, as in eigen
        leftover = RationalFunction(Polynomial.constant(2, 1), {Factor("diff", 1, 2): 1})
        monkeypatch.setattr(spectra, "apply_operator", lambda op, f, n: leftover)
        rc, out, err = run(capsys, ["apply", "--op", "omega3", "--lambda", "2", "--n", "2"])
        assert (rc, out) == (3, "")
        assert err.startswith("error: internal: DenominatorLeft")


def parent_refuses(entry, n, size):
    """The guard before spectra.LIMITS: n above 6 (5 for --op omega3-closed), or a size above 12."""
    return n > {"omega3-closed": 5}.get(entry, 6) or size > 12


# the cells past a measured time budget that the rule above admitted, by (suite, n): the sizes refused now
NEWLY_REFUSED = {
    ("lemma121", 5): range(7, 13),
    ("lemma121", 6): range(2, 13),
    ("lemma123i", 6): range(0, 13),
    ("lemma123i", 5): range(3, 13),
    ("skew", 5): range(11, 13),
    ("skew", 6): range(9, 13),
}


def guard_cells():
    """(command, flag, entry) for each command, its entry from the registry its flag chooses from."""
    for command in cli.COMMANDS:
        if command in ("apply", "eigen"):
            yield from ((command, "--op", op) for op in spectra.OPERATORS)
        elif command == "verify":
            yield from ((command, "--suite", suite) for suite in spectra.SWEEPS)
        else:
            yield command, None, None


class TestGuardTable:
    def test_every_cell_matches_the_parent_rule_but_the_listed_refusals(self):
        args = cli.PARSER.parse_args(["qfun", "--lambda", "1", "--n", "1"])
        for command, flag, entry in guard_cells():
            for n in range(9):
                for size in range(15):
                    try:
                        cli._guard(args, n=n, deg=size, entry=entry and (flag, entry))
                        refused = False
                    except ValueError:
                        refused = True
                    newly = size in NEWLY_REFUSED.get((entry, n), ())
                    assert refused == (parent_refuses(entry, n, size) or newly), (command, entry, n, size)
                    assert not (newly and parent_refuses(entry, n, size))

    def test_desk_and_benchmark_sizes_are_admitted(self):
        args = cli.PARSER.parse_args(["qfun", "--lambda", "1", "--n", "1"])
        for name, spec in spectra.SWEEPS.items():
            for n in spec.desk_n:
                cli._guard(args, n=n, deg=6 if spec.desk_max is None else spec.desk_max, entry=("--suite", name))
        for name in ("skew", "supersym", "stability"):
            cli._guard(args, n=4, deg=4, entry=("--suite", name))
        cli._guard(args, n=4, deg=7)

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--suite", "lemma123i", "--n", "6", "--max", "0"],
         ["verify", "--suite", "lemma121", "--n", "5", "--max", "8"]],
    )
    def test_long_sweeps_need_force(self, capsys, monkeypatch, argv):
        def not_reached(n, d):
            raise AssertionError(f"the guardrail let {argv[2]} run")

        patch_sweep(monkeypatch, argv[2], not_reached)
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert "exceeds the guardrail" in err and f"for --suite {argv[2]}; pass --force" in err

        def stub(n, d):
            report = SweepReport("stub")
            report.check(True, "")
            return report

        patch_sweep(monkeypatch, argv[2], stub)
        rc, out, _ = run(capsys, argv + ["--force", "--format", "text"])
        assert (rc, out) == (0, "stub: PASS (1 checks)\n")


def readme_cli_examples():
    """(argv, comment) for each line of README's CLI block."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        words = shlex.split(command)
        start = words.index("schurq")
        assert words[:start] in ([], ["PYTHONPATH=src", "python", "-m"]), line
        examples.append((words[start + 1:], comment.strip()))
    return examples


class TestReadmeCliBlock:
    def test_every_example_parses(self):
        examples = readme_cli_examples()
        assert len(examples) >= 9
        parser = cli.build_parser()
        for argv, _ in examples:
            parser.parse_args(argv)

    def test_every_op_is_registered(self):
        # with test_readme_lists_every_suite, README names only what spectra registers
        ops = [argv[argv.index("--op") + 1] for argv, _ in readme_cli_examples() if "--op" in argv]
        assert ops and set(ops) <= set(spectra.OPERATORS)

    def test_every_example_is_admitted(self, capsys):
        for argv, _ in readme_cli_examples():
            rc, _, err = run(capsys, argv)
            assert (rc, err) == (0, ""), argv

    def test_json_comments_are_the_output(self, capsys):
        shown = [(argv, c) for argv, c in readme_cli_examples() if c.startswith("{")]
        assert shown
        for argv, comment in shown:
            rc, out, _ = run(capsys, argv)
            assert (rc, out) == (0, comment + "\n"), argv


class TestModuleEntryPoint:
    def test_python_m_schurq_matches_main(self, capsys):
        argv = ["qfun", "--lambda", "2,1", "--n", "2"]
        rc, expected, _ = run(capsys, argv)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "schurq", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == rc == 0
        assert proc.stdout == expected

    def test_closed_stdout_exits_141_without_traceback(self):
        # about 812 KB of output, more than any pipe buffer holds
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "schurq", "qk", "--n", "6", "--max", "12"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert (head, err) == (b'[{"n": 6, ', b"")

    def test_closed_stdout_before_a_buffered_write_exits_141(self):
        # a short output waits in the stdout buffer, which main flushes itself
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(ROOT / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "schurq", "qfun", "--lambda", "2,1", "--n", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (141, b"")

    def test_main_builds_no_parser(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert cli.main(["qfun", "--lambda", "2,1", "--n", "2"]) == 0
        assert capsys.readouterr().out


class TestRunSweepsScript:
    def test_wall_time_goes_to_stderr(self, capsys, monkeypatch):
        path = ROOT / "scripts" / "run_sweeps.py"
        spec = importlib.util.spec_from_file_location("run_sweeps", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(spectra, "SWEEPS", {"skew": SweepSpec(skew_symmetry_sweep, (2,), 4)})
        assert script.main() == 0
        captured = capsys.readouterr()
        report = skew_symmetry_sweep(2, 4)
        assert captured.out == f"{report.name}: PASS ({report.checked} checks)\n"
        assert re.fullmatch(re.escape(report.name) + r": \d+\.\d ms\n", captured.err)


class TestEigenTableScript:
    def test_small_table(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "eigen_table.py"), "--n", "2", "--max", "4"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert "NOT EIGEN" not in proc.stdout
        header, _rule, *rows = proc.stdout.splitlines()
        assert header.split() == ["lambda", "omega1", "omega3", "omega5", "formula3"]
        assert len(rows) == 6  # strict partitions of 1..4 with at most 2 parts
        for row in rows:
            _lam, _omega1, omega3, _omega5, formula3 = row.split()
            assert omega3 == formula3

    def test_wrong_closed_form_fails(self, capsys, monkeypatch):
        path = ROOT / "scripts" / "eigen_table.py"
        spec = importlib.util.spec_from_file_location("eigen_table", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        argv = ["--n", "2", "--max", "4"]
        assert script.main(argv) == 0
        right = script.omega_eigenvalue
        monkeypatch.setattr(script, "omega_eigenvalue", lambda lam, k: right(lam, k) + (lam.weight == 4))
        assert script.main(argv) == 1
        capsys.readouterr()


class TestBenchmarkSelfcheck:
    def test_selfcheck_passes(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        assert proc.stdout.splitlines()[-1] == "0 failed checks"
