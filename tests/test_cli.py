import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxbias
from maxbias import cli
from maxbias.curves import cm_estimate
from maxbias.efficiency import LAW_NAMES, avar_table, tune
from maxbias.rho import biweight
from maxbias._io import fmt
from maxbias.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCurveCommand:
    def test_cm_curve_csv(self, tmp_path, capsys):
        out = tmp_path / "cm.csv"
        code, _, _ = run(
            capsys,
            "curve",
            "--estimator", "cm",
            "--rho", "biweight",
            "--k", "1",
            "--b", "0.5",
            "--c", "4.835",
            "--model", "gaussian",
            "--grid", "0.01:0.49:0.01",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "eps,lower,upper,exact"
        assert len(lines) == 50
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_mm_cauchy_curve(self, tmp_path, capsys):
        out = tmp_path / "mm.csv"
        code, _, _ = run(
            capsys,
            "curve",
            "--estimator", "mm",
            "--k1", "1.56",
            "--k2", "4.68",
            "--b", "0.5",
            "--model", "cauchy",
            "--grid", "0.05:0.45:0.05",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 10
        last = lines[-1].split(",")
        assert float(last[1]) > 0 and math.isfinite(float(last[1]))

    def test_grid_beyond_breakdown_exits_3(self, capsys):
        code, _, err = run(
            capsys,
            "curve",
            "--estimator", "s",
            "--b", "0.5",
            "--k", "1.56",
            "--grid", "0.1:0.6:0.1",
        )
        assert code == 3
        assert "breakdown" in err or "inside" in err

    def test_missing_cm_tuning_exits_1(self, capsys):
        code, _, _ = run(
            capsys, "curve", "--estimator", "cm", "--b", "0.5", "--grid", "0.1:0.2:0.1"
        )
        assert code == 1

    def test_unknown_estimator_exits_1(self, capsys):
        code, _, _ = run(
            capsys, "curve", "--estimator", "tau", "--b", "0.5", "--grid", "0.1:0.2:0.1"
        )
        assert code == 1


class TestPhiCommand:
    def test_biweight_profile_is_unimodal(self, tmp_path, capsys):
        out = tmp_path / "phi.csv"
        code, _, _ = run(
            capsys, "phi", "--rho", "biweight", "--k", "4.68", "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "s,phi"
        phi = [float(line.split(",")[1]) for line in lines[1:]]
        diffs = [b - a for a, b in zip(phi, phi[1:])]
        sign_changes = sum(
            1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0)
        )
        assert sign_changes == 1

    def test_step_profile_peaks_at_one(self, tmp_path, capsys):
        out = tmp_path / "phi.csv"
        code, _, _ = run(
            capsys,
            "phi", "--rho", "alpha-quantile", "--k", "1",
            "--smin", "0.2", "--smax", "5", "--n", "301",
            "--out", str(out),
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        best = max(rows, key=lambda r: float(r[1]))
        assert float(best[0]) == pytest.approx(1.0, abs=0.02)

    def test_nonpositive_start_exits_1(self, capsys):
        code, _, _ = run(capsys, "phi", "--smin", "0", "--smax", "10")
        assert code == 1


class TestTuneCommand:
    def test_cm_95(self, capsys):
        code, out, _ = run(
            capsys, "tune", "--estimator", "cm", "--b", "0.5", "--target-eff", "0.95"
        )
        assert code == 0
        name, value = out.split("=")
        assert name.strip() == "c"
        assert float(value) == pytest.approx(4.835, abs=0.02)

    def test_unreachable_target_exits_1_with_range(self, capsys):
        code, _, err = run(
            capsys, "tune", "--estimator", "cm", "--b", "0.5", "--target-eff", "1.2"
        )
        assert code == 1
        assert "attainable" in err

    def test_s_quantile_from_cutoff(self, capsys):
        code, out, _ = run(capsys, "tune", "--estimator", "s", "--k", "4.68")
        assert code == 0
        assert float(out.split("=")[1]) == pytest.approx(0.12, abs=0.005)


class TestDominanceCommand:
    def test_report_and_profile(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        profile = tmp_path / "profile.csv"
        code, _, _ = run(
            capsys,
            "dominance",
            "--rho", "biweight",
            "--k", "1",
            "--b", "0.5",
            "--out", str(report),
            "--profile-out", str(profile),
        )
        assert code == 0
        text = report.read_text()
        assert "verdict=Dominated" in text
        low = float(next(l for l in text.splitlines() if l.startswith("dominance_interval_low=")).split("=")[1])
        high = float(next(l for l in text.splitlines() if l.startswith("dominance_interval_high=")).split("=")[1])
        assert low < 2.568 <= high
        assert profile.read_text().splitlines()[0] == "eps,c_eps"


class TestTableCommand:
    def test_reference_table(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code, _, _ = run(capsys, "table", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "estimator,law,avar,binding"
        assert len(lines) == 36
        s95_norm = next(l for l in lines if l.startswith("S95,NORM"))
        assert float(s95_norm.split(",")[2]) == pytest.approx(1.053, abs=0.005)


class TestCheckCommand:
    def test_biweight_gaussian_all_pass(self, capsys):
        code, out, _ = run(capsys, "check", "--rho", "biweight", "--k", "4.68")
        assert code == 0
        assert "phi-unimodal: pass" in out
        assert "g-convex: pass" in out
        assert "FAIL" not in out

    def test_step_cauchy(self, capsys):
        code, out, _ = run(
            capsys, "check", "--rho", "alpha-quantile", "--model", "cauchy"
        )
        assert code == 0
        assert "FAIL" not in out


class TestDeterminismAndRoundTrip:
    def test_identical_flags_identical_bytes(self, tmp_path, capsys):
        args = (
            "curve", "--estimator", "s", "--rho", "biweight", "--k", "1.56",
            "--b", "0.5", "--grid", "0.05:0.45:0.05",
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(a))[0] == 0
        assert run(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_round_trips_through_parsing(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        run(
            capsys,
            "curve", "--estimator", "mm", "--k1", "1.56", "--k2", "4.68",
            "--b", "0.5", "--grid", "0.05:0.45:0.05", "--out", str(out),
        )
        original = out.read_text()
        lines = original.strip().splitlines()
        rebuilt = [lines[0]]
        for line in lines[1:]:
            eps, lower, upper, exact = line.split(",")
            rebuilt.append(
                ",".join(
                    (fmt(float(eps)), fmt(float(lower)), fmt(float(upper)), exact)
                )
            )
        assert "\n".join(rebuilt) + "\n" == original

    def test_stdout_default(self, capsys):
        code, out, _ = run(
            capsys, "curve", "--estimator", "s", "--k", "1.56", "--b", "0.5",
            "--grid", "0.1:0.3:0.1",
        )
        assert code == 0
        assert out.startswith("eps,lower,upper,exact")


class TestFreshInterpreterDeterminism:
    """Table and CM tuning print the same bytes in fresh and warm processes."""

    COMMANDS = [["table"], ["tune", "--estimator", "cm", "--b", "0.5", "--target-eff", "0.95"]]

    def _fresh_stdout(self, argv):
        """stdout of argv in each of two fresh interpreters, run side by side."""
        src = str(Path(maxbias.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys; from maxbias.cli import main; sys.exit(main(sys.argv[1:]))"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code, *argv],
                env=dict(os.environ, PYTHONPATH=path),
                stdout=subprocess.PIPE,
            )
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=300)[0] for p in procs]
        assert [p.returncode for p in procs] == [0, 0]
        return outs

    def test_fresh_and_warm_stdout_are_identical(self, capsys):
        fresh = [self._fresh_stdout(argv) for argv in self.COMMANDS]
        # Warm the shared profiles with other queries of the same pairs first.
        tune("cm", b=0.4, target_eff=0.9)
        avar_table([("CM", cm_estimate(biweight(1.0), 0.35, 3.0))], LAW_NAMES)
        warm = [[run(capsys, *argv)[1].encode() for _ in range(2)] for argv in self.COMMANDS]
        for (a, b), (c, d) in zip(fresh, warm):
            assert a == b == c == d


class TestParserReuse:
    """main builds its parser on the first call and reuses it."""

    CALLS = [
        ["curve", "--estimator", "cm", "--b", "0.5", "--c", "4.835", "--grid", "0.05:0.45:0.1"],
        ["curve", "--estimator", "s", "--no-such-flag", "1"],
        ["dominance", "--b", "0.5"],
        ["curve", "--estimator", "cm", "--b", "0.5", "--c", "4.835", "--grid", "0.05:0.45:0.1"],
    ]

    def test_reused_parser_matches_a_fresh_one(self, capsys):
        fresh = []
        for argv in self.CALLS:
            cli._parser.cache_clear()
            fresh.append(run(capsys, *argv))
        reused = [run(capsys, *argv) for argv in self.CALLS]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 1, 0, 0]
        assert cli._parser.cache_info().hits >= len(self.CALLS) - 1

    def test_import_builds_no_parser(self):
        code = "import maxbias.cli as c; print(c._parser.cache_info().currsize)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "0"
