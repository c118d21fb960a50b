#!/usr/bin/env python3
"""Production-resolution studies (per-momentum published step sizes, walls at
-6/+4 A).  All of them take about 30 s single-threaded on a 2-vCPU host: the
fig2 momentum scan 16 s, fig4 7.5 s and fig10 4.4 s; --threads runs the
scan's momenta in parallel.
"""

import argparse
import sys
from pathlib import Path

from dirac_toa.cli import main

STUDIES = [
    ("initial-state", "fig1"),
    ("arrival-scan", "fig2"),
    ("density", "fig4"),
    ("frames", "fig10"),
    ("point", "fig5"),
    ("pdp", "pdp"),
]

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="results-full")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--only", default=None, help="run a single preset by name")
    args = ap.parse_args()
    for command, preset in STUDIES:
        if args.only and preset != args.only:
            continue
        out = Path(args.out) / preset
        print(f"== {command} --preset {preset} -> {out}")
        rc = main([command, "--preset", preset, "--out", str(out),
                   "--threads", str(args.threads)])
        if rc != 0:
            sys.exit(rc)
