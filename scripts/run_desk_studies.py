#!/usr/bin/env python3
"""Run every desk-scale study preset into results/<name> and print each
study's wall time and the total.  Seconds on a laptop; see
run_full_studies.py for the production-resolution runs."""

import sys
import time
from pathlib import Path

from dirac_toa.cli import main

STUDIES = [
    ("initial-state", "fig1-desk"),
    ("arrival-scan", "fig2-desk"),
    ("density", "fig4-desk"),
    ("frames", "fig10-desk"),
    ("point", "fig5-desk"),
    ("pdp", "pdp-desk"),
]

if __name__ == "__main__":
    base = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    total = 0.0
    for command, preset in STUDIES:
        out = base / preset
        print(f"== {command} --preset {preset} -> {out}", flush=True)
        start = time.perf_counter()
        rc = main([command, "--preset", preset, "--out", str(out)])
        wall = time.perf_counter() - start
        total += wall
        print(f"   {preset}: {wall:.2f} s wall", flush=True)
        if rc != 0:
            sys.exit(rc)
    print(f"all studies written under {base}/ in {total:.2f} s wall")
