"""Byte equality of CLI output against files recorded in tests/golden/.

Each case is one ``maxbias`` invocation; its stdout is stored as
``<name>.txt`` and, for dominance, the ``--profile-out`` file as
``<name>.profile.csv``.  Re-record (only when an output change is intended)
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from maxbias.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "curve_s_gaussian": ["curve", "--estimator", "s", "--k", "1.548", "--b", "0.5",
                         "--grid", "0.02:0.48:0.02"],
    "curve_s_cauchy": ["curve", "--estimator", "s", "--rho", "alpha-quantile", "--b", "0.5",
                       "--model", "cauchy", "--grid", "0.02:0.48:0.02"],
    "curve_mm_gaussian": ["curve", "--estimator", "mm", "--k1", "1.548", "--k2", "4.685",
                          "--b", "0.5", "--grid", "0.02:0.48:0.02"],
    "curve_mm_cauchy": ["curve", "--estimator", "mm", "--k1", "1.56", "--k2", "4.68",
                        "--b", "0.5", "--model", "cauchy", "--grid", "0.05:0.45:0.05"],
    "curve_cm_gaussian": ["curve", "--estimator", "cm", "--b", "0.5", "--c", "4.835",
                          "--grid", "0.01:0.49:0.01"],
    "curve_cm_cauchy": ["curve", "--estimator", "cm", "--b", "0.3", "--c", "2.568",
                        "--model", "cauchy", "--grid", "0.02:0.28:0.02"],
    "phi_biweight_gaussian": ["phi", "--k", "1.56"],
    "phi_step_cauchy": ["phi", "--rho", "alpha-quantile", "--model", "cauchy",
                        "--smin", "0.05", "--smax", "20", "--n", "64"],
    "tune_s_b": ["tune", "--estimator", "s", "--b", "0.5"],
    "tune_s_k": ["tune", "--estimator", "s", "--k", "4.685"],
    "tune_mm": ["tune", "--estimator", "mm", "--b", "0.5", "--target-eff", "0.95"],
    "tune_cm": ["tune", "--estimator", "cm", "--b", "0.5", "--target-eff", "0.95"],
    "dominance_biweight": ["dominance", "--b", "0.5"],
    "dominance_step": ["dominance", "--rho", "alpha-quantile", "--b", "0.4"],
    "table": ["table"],
    "check_biweight_gaussian": ["check", "--k", "1.56"],
    "check_step_cauchy": ["check", "--rho", "alpha-quantile", "--model", "cauchy"],
}


def run_case(name: str, workdir: Path) -> dict[str, str]:
    """Run one case; map golden file names to the text it produced."""
    argv = list(CASES[name])
    profile = workdir / f"{name}.profile.csv"
    if argv[0] == "dominance":
        argv += ["--profile-out", str(profile)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0, f"{name}: exit code {code}"
    outputs = {f"{name}.txt": stdout.getvalue()}
    if profile.exists():
        outputs[f"{name}.profile.csv"] = profile.read_text()
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    for filename, text in run_case(name, tmp_path).items():
        assert text == (GOLDEN / filename).read_text(), filename


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for filename, text in run_case(case, Path(tmp)).items():
                (GOLDEN / filename).write_text(text)
                print(filename, file=sys.stderr)
