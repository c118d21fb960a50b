#!/usr/bin/env python3
"""Run every study preset of one set into OUT/<preset> and print each
study's wall time and the total.

    python scripts/run_studies.py desk OUT   # desk scale: seconds on a laptop
    python scripts/run_studies.py full OUT --threads 2

The full set runs at production resolution (dx = edge/2 = 0.001 A for every
momentum, each run on the smallest domain that holds its packet): about
4.1 s single-threaded on a 2-vCPU host, the fig2 momentum scan 2.6 s of it,
fig4 0.9 s and fig10 0.3 s.  --threads runs the scan's momenta in parallel.
A desk preset is the full preset's name with -desk appended.
"""

import argparse
import sys
import time
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
    ap.add_argument("set", choices=["desk", "full"])
    ap.add_argument("out", type=Path)
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()
    total = 0.0
    for command, name in STUDIES:
        preset = f"{name}-desk" if args.set == "desk" else name
        out = args.out / preset
        print(f"== {command} --preset {preset} -> {out}", flush=True)
        start = time.perf_counter()
        pool = ["--threads", str(args.threads)] if command == "arrival-scan" else []
        rc = main([command, "--preset", preset, "--out", str(out), *pool])
        wall = time.perf_counter() - start
        total += wall
        print(f"   {preset}: {wall:.2f} s wall", flush=True)
        if rc != 0:
            sys.exit(rc)
    print(f"all studies written under {args.out}/ in {total:.2f} s wall")
