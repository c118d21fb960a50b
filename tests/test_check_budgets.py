"""scripts/check_budgets.py passes study outputs whose probability budget
closes and fails each that breaks one of its three bounds."""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from dirac_toa.csvio import write_csv

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_budgets.py"


def _write_study(root: Path, s_shift=0.0, residual_meta=1e-14, residual_col=1e-14,
                 leakage_meta=1e-9, leakage_col=1e-9, leakage_end=1e-9):
    """An evolution record whose S closes the trapezoid budget (then moved by
    s_shift at one row), a scan row and a summary, each with the given
    absorbed_residual and leakage."""
    tau = np.linspace(0.0, 2.0, 41)
    d = 0.2 * np.exp(-((tau - 1.0) / 0.3) ** 2)
    cum = np.concatenate([[0.0], np.cumsum((d[1:] + d[:-1]) / 2 * np.diff(tau))])
    leakage = leakage_end * tau / tau[-1]
    survival = 1.0 - cum - leakage
    survival[20] += s_shift
    write_csv(root / "density" / "evolution_p1.csv",
              {"tau": tau, "d": d, "S": survival, "leakage": leakage},
              metadata={"p0": 1.0, "absorbed_residual": 1e-14, "leakage": leakage_end})
    write_csv(root / "scan" / "arrival_scan.csv",
              {"p0": np.array([1.0]), "absorbed_residual": np.array([residual_col]),
               "leakage": np.array([leakage_col])})
    write_csv(root / "pdp" / "pdp_summary.csv", {"n": np.array([10])},
              metadata={"absorbed_residual": residual_meta, "leakage": leakage_meta})


def _check(monkeypatch, capsys, *roots):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *map(str, roots)])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    return stop.value.code, capsys.readouterr().out


def test_closed_budgets_pass(tmp_path, monkeypatch, capsys):
    _write_study(tmp_path / "a")
    _write_study(tmp_path / "b")
    code, out = _check(monkeypatch, capsys, tmp_path / "a", tmp_path / "b")
    assert code == 0
    assert out.splitlines()[-1] == "every budget closes"
    assert out.count("evolution_p1.csv: budget") == 2


@pytest.mark.parametrize("edit, path, broken", [
    ({"s_shift": 2e-11}, "density/evolution_p1.csv", "budget 2.00e-11 > 1e-11"),
    ({"residual_meta": 2e-12}, "pdp/pdp_summary.csv", "absorbed_residual 2.00e-12 > 1e-12"),
    ({"residual_col": 2e-12}, "scan/arrival_scan.csv", "absorbed_residual 2.00e-12 > 1e-12"),
    ({"leakage_meta": 2e-8}, "pdp/pdp_summary.csv", "leakage 2.00e-08 > 1e-8"),
    ({"leakage_col": 2e-8}, "scan/arrival_scan.csv", "leakage 2.00e-08 > 1e-8"),
    # the record's leakage rows and S move together, so only the leakage bound breaks
    ({"leakage_end": 2e-8}, "density/evolution_p1.csv", "leakage 2.00e-08 > 1e-8"),
])
def test_each_broken_bound_fails(edit, path, broken, tmp_path, monkeypatch, capsys):
    _write_study(tmp_path / "a")
    _write_study(tmp_path / "b", **edit)
    code, out = _check(monkeypatch, capsys, tmp_path / "a", tmp_path / "b")
    assert code == 1
    broken_lines = [line for line in out.splitlines() if " > " in line]
    assert broken_lines == [f"{tmp_path / 'b' / path}: {broken}"]
