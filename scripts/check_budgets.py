#!/usr/bin/env python3
"""Check that every study output under the given directories closes its
probability budget, and exit 1 if any does not:

- the trapezoid budget max |1 - S - int d - leakage| of every evolution
  record (evolution_*.csv), as perfbench/workloads.budget_residual computes
  it, at most 1e-11;
- every absorbed_residual a study writes (metadata or arrival_scan.csv
  column), at most 1e-12;
- every wall leakage it writes (metadata, arrival_scan.csv column or
  evolution record, whose largest row is its last), at most 1e-8.  The pdp
  presets' configured domain [-4, 2] lets 2.41e-9 through, the most of any
  study; every derived domain (fig2, fig2-desk, fig4, fig10) lets through
  at most 1e-12, and fig4-desk and fig10-desk 1e-15.

Usage: check_budgets.py DIR [DIR ...]
"""

import sys
from pathlib import Path

import numpy as np

from dirac_toa.csvio import read_csv

if __name__ == "__main__":
    broken = []
    for path in sorted(p for root in sys.argv[1:] for p in Path(root).rglob("*.csv")):
        meta, cols = read_csv(path)
        if path.name.startswith("evolution_"):
            tau, d = cols["tau"], cols["d"]
            cum = np.concatenate([[0.0], np.cumsum((d[1:] + d[:-1]) / 2 * np.diff(tau))])
            budget = float(np.abs((1.0 - cols["S"]) - cum - cols["leakage"]).max())
            print(f"{path}: budget {budget:.2e}")
            if not budget <= 1e-11:
                broken.append(f"{path}: budget {budget:.2e} > 1e-11")
        residuals = [float(meta["absorbed_residual"])] if "absorbed_residual" in meta else []
        for r in residuals + list(cols.get("absorbed_residual", [])):
            print(f"{path}: absorbed_residual {r:.2e}")
            if not r <= 1e-12:
                broken.append(f"{path}: absorbed_residual {r:.2e} > 1e-12")
        leakage = [float(meta["leakage"])] if "leakage" in meta else []
        if leakage or "leakage" in cols:
            worst = max(leakage + list(cols.get("leakage", [])))
            print(f"{path}: leakage {worst:.2e}")
            if not worst <= 1e-8:
                broken.append(f"{path}: leakage {worst:.2e} > 1e-8")
    print("\n".join(broken) or "every budget closes")
    sys.exit(bool(broken))
