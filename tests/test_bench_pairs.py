"""scripts/bench_pairs.py: the gain rule on fixed numbers, and runs of stub checkouts."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
summarise = bench_pairs.summarise


class TestSummarise:
    PARENT = [1.00, 1.02, 1.01, 1.03, 1.00, 1.02, 1.04, 1.01, 1.02, 1.03]

    def test_quartiles_and_medians(self):
        s = summarise(self.PARENT, [x - 0.2 for x in self.PARENT], "lower")
        assert s["parent"] == pytest.approx((1.01, 1.02, 1.0275))
        assert s["change"] == pytest.approx((0.81, 0.82, 0.8275))
        assert (s["wins"], s["losses"], s["ties"]) == (10, 0, 0) and s["holds"]

    def test_direction(self):
        change = [x + 0.2 for x in self.PARENT]
        assert summarise(self.PARENT, change, "higher")["holds"]
        lower = summarise(self.PARENT, change, "lower")
        assert (lower["wins"], lower["losses"]) == (0, 10) and not lower["holds"]

    def test_nine_tenths_of_the_pairs_must_win(self):
        change = [x - 0.2 for x in self.PARENT]
        change[0] = self.PARENT[0]  # a tie counts for neither side
        s = summarise(self.PARENT, change, "lower")
        assert (s["wins"], s["losses"], s["ties"]) == (9, 0, 1) and s["holds"]
        change[1] = self.PARENT[1] + 0.1
        s = summarise(self.PARENT, change, "lower")
        assert (s["wins"], s["losses"], s["ties"]) == (8, 1, 1) and not s["holds"]

    def test_gap_must_exceed_the_parents_interquartile_range(self):
        # every pair wins by 0.015, but the parent's quartiles are 0.0175 apart
        s = summarise(self.PARENT, [x - 0.015 for x in self.PARENT], "lower")
        assert s["wins"] == 10 and not s["holds"]
        s = summarise(self.PARENT, [x - 0.025 for x in self.PARENT], "lower")
        assert s["wins"] == 10 and s["holds"]

    def test_worse_than_the_bound(self):
        # the parent's median is 1.02: a bound of 0.2 admits medians up to 1.224
        assert not summarise(self.PARENT, [x + 0.2 for x in self.PARENT], "lower", 0.2)["worse"]
        assert summarise(self.PARENT, [x + 0.25 for x in self.PARENT], "lower", 0.2)["worse"]
        assert summarise(self.PARENT, [x - 0.25 for x in self.PARENT], "higher", 0.2)["worse"]
        assert not summarise(self.PARENT, [x - 0.25 for x in self.PARENT], "lower", 0.2)["worse"]
        assert summarise(self.PARENT, [x + 0.01 for x in self.PARENT], "lower")["worse"]  # bound 0

    def test_unresolved_when_the_spread_is_wider_than_the_bound(self):
        # the parent's quartiles are 0.0175 apart: wider than 0.01 of its median 1.02
        s = summarise(self.PARENT, [x + 0.005 for x in self.PARENT], "lower", 0.01)
        assert s["unresolved"] and not s["worse"]
        assert not summarise(self.PARENT, [x + 0.005 for x in self.PARENT], "lower", 0.2)["unresolved"]
        assert summarise(self.PARENT, [x - 0.005 for x in self.PARENT], "higher", 0.01)["unresolved"]
        # every run of the change better than every run of the parent settles it
        assert summarise(self.PARENT, [x - 0.03 for x in self.PARENT], "lower", 0.01)["unresolved"]
        assert not summarise(self.PARENT, [x - 0.05 for x in self.PARENT], "lower", 0.01)["unresolved"]
        assert not summarise(self.PARENT, [x + 0.05 for x in self.PARENT], "higher", 0.01)["unresolved"]

    def test_one_pair(self):
        s = summarise([2.0], [1.0], "lower")
        assert s["parent"] == (2.0, 2.0, 2.0) and s["holds"]

    def test_bad_input(self):
        with pytest.raises(ValueError):
            summarise([1.0], [1.0, 2.0], "lower")
        with pytest.raises(ValueError):
            summarise([], [], "lower")
        with pytest.raises(ValueError):
            summarise([1.0], [1.0], "faster")


STUB = """
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
print("metrics above the result line")
print(json.dumps({{"correct": {correct}, "attempted": 10, "failed": {failed},
                   "metrics": {{"op_p50_ms": {{"value": {p50} + seed / 1000 + seed % 3 * {spread}, "unit": "ms"}},
                               "trace.overhead_s": {{"value": 1.0, "unit": "s"}}}}}}))
"""


def checkout(tmp_path, name, p50, correct=True, failed=0, spread=0):
    root = tmp_path / name
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB.format(correct=correct, failed=failed, p50=p50,
                                                          spread=spread))
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "op_p50_ms", "better": "lower", "bound": 0.2},
        {"name": "ops_per_s", "better": "higher", "bound": 0.2},
    ]}))
    return root


def pairs(parent, change, capsys, workloads=("span",)):
    flags = [arg for name in workloads for arg in ("--workload", name)]
    status = bench_pairs.main([str(parent), str(change), *flags, "--pairs", "3",
                               "--seconds", "1", "--seed-base", "7"])
    return status, capsys.readouterr()


class TestRuns:
    def test_alternates_and_summarises(self, tmp_path, capsys):
        status, out = pairs(checkout(tmp_path, "parent", 1.0), checkout(tmp_path, "change", 0.5), capsys)
        rows = [line.split() for line in out.out.splitlines() if line.startswith("pair")]
        assert [(r[1], r[3], r[4], r[6]) for r in rows] == [
            ("1", "7", "parent", "1"), ("1", "7", "change", "2"),
            ("2", "8", "change", "1"), ("2", "8", "parent", "2"),
            ("3", "9", "parent", "1"), ("3", "9", "change", "2"),
        ]
        assert rows[0][-1] == "op_p50_ms=1.007"
        (summary,) = [line for line in out.out.splitlines() if line.startswith("op_p50_ms")]
        assert summary.split()[-2:] == ["3/0/0", "holds"]
        assert "trace.overhead_s" not in out.out and status == 0

    @pytest.mark.parametrize("p50, verdict, gain", [(0.5, "ok(0.2)", "holds"), (1.5, "WORSE(0.2)", "no")])
    def test_prints_the_bound_verdict(self, tmp_path, capsys, p50, verdict, gain):
        status, out = pairs(checkout(tmp_path, "parent", 1.0), checkout(tmp_path, "change", p50), capsys)
        (summary,) = [line for line in out.out.splitlines() if line.startswith("op_p50_ms")]
        assert summary.split()[-3:-1] == [verdict, "3/0/0" if gain == "holds" else "0/3/0"]
        assert summary.split()[-1] == gain and status == 0

    @pytest.mark.parametrize("p50, verdict", [(1.3, "unresolved(0.2)"), (2.5, "WORSE(0.2)"), (0.5, "ok(0.2)")])
    def test_a_parent_spread_wider_than_the_bound(self, tmp_path, capsys, p50, verdict):
        # the parent reads 1.507, 2.008 and 1.009 on seeds 7, 8 and 9: quartiles 0.4995 apart
        parent = checkout(tmp_path, "parent", 1.0, spread=0.5)
        status, out = pairs(parent, checkout(tmp_path, "change", p50), capsys)
        (summary,) = [line for line in out.out.splitlines() if line.startswith("op_p50_ms")]
        assert summary.split()[-3] == verdict and status == 0

    @pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1)])
    def test_a_failed_run_exits_nonzero(self, tmp_path, capsys, correct, failed):
        bad = checkout(tmp_path, "change", 0.5, correct=correct, failed=failed)
        status, out = pairs(checkout(tmp_path, "parent", 1.0), bad, capsys)
        assert status == 1 and "error:" in out.err

    def test_a_run_without_result_exits_nonzero(self, tmp_path, capsys):
        broken = checkout(tmp_path, "change", 0.5)
        (broken / "perfbench" / "run.py").write_text("raise SystemExit(3)\n")
        status, out = pairs(checkout(tmp_path, "parent", 1.0), broken, capsys)
        assert status == 2 and "no result line" in out.err

    def test_one_table_per_workload(self, tmp_path, capsys):
        status, out = pairs(checkout(tmp_path, "parent", 1.0), checkout(tmp_path, "change", 0.5), capsys,
                            ("span", "eigen"))
        lines = out.out.splitlines()
        heads = [i for i, line in enumerate(lines) if line.startswith("workload")]
        assert [lines[i].split(",")[0] for i in heads] == ["workload span", "workload eigen"]
        for start, end in zip(heads, heads[1:] + [len(lines)]):
            block = lines[start:end]
            assert sum(line.startswith("pair") for line in block) == 6
            (summary,) = [line for line in block if line.startswith("op_p50_ms")]
            assert summary.split()[-2:] == ["3/0/0", "holds"]
        assert status == 0

    @pytest.mark.parametrize("broken, status", [("fails", 1), ("prints nothing", 2)])
    def test_exit_status_covers_every_workload(self, tmp_path, capsys, broken, status):
        # the change breaks on eigen only: span still runs and prints its table, in either order
        change = checkout(tmp_path, "change", 0.5, correct='"eigen" not in sys.argv')
        if broken == "prints nothing":
            run = change / "perfbench" / "run.py"
            run.write_text('import sys\nif "eigen" in sys.argv: raise SystemExit(3)\n' + run.read_text())
        parent = checkout(tmp_path, "parent", 1.0)
        for workloads in (("eigen", "span"), ("span", "eigen")):
            got, out = pairs(parent, change, capsys, workloads)
            assert got == status and "error: eigen:" in out.err
            assert sum(line.startswith("op_p50_ms") for line in out.out.splitlines()) == 1
            # eigen's first pair runs the parent, then the change, which stops the workload
            rows = 6 + (2 if broken == "fails" else 1)
            assert sum(line.startswith("pair") for line in out.out.splitlines()) == rows

    def test_the_worst_status_wins(self, tmp_path, capsys):
        change = checkout(tmp_path, "change", 0.5, correct='"eigen" not in sys.argv')
        run = change / "perfbench" / "run.py"
        run.write_text('import sys\nif "span" in sys.argv: raise SystemExit(3)\n' + run.read_text())
        status, out = pairs(checkout(tmp_path, "parent", 1.0), change, capsys, ("span", "eigen"))
        assert status == 2 and "error: span:" in out.err and "error: eigen:" in out.err
