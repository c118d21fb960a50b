#!/usr/bin/env python3
"""Run every study preset of one set into OUT/<preset> and print each
study's wall time and the total.

    python scripts/run_studies.py desk OUT   # desk scale: seconds on a laptop
    python scripts/run_studies.py full OUT

The full set runs at production resolution (dx = edge/2 = 0.001 A for every
momentum, each run on the smallest domain that holds its packet), one run
after another: 3.5-5.5 s on a 2-vCPU host with one BLAS thread, the fig2
momentum scan 2.1-3.7 s of it and fig4 0.8 s.  The desk set takes about
0.4 s.
The studies are the presets that have a desk twin, named with -desk
appended, in PRESETS order; each runs its preset's own command.
"""

import argparse
import sys
import time
from pathlib import Path

from dirac_toa.cli import main
from dirac_toa.presets import PRESETS

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("set", choices=["desk", "full"])
    ap.add_argument("out", type=Path)
    args = ap.parse_args()
    total = 0.0
    for name in [name for name in PRESETS if f"{name}-desk" in PRESETS]:
        preset = f"{name}-desk" if args.set == "desk" else name
        command = PRESETS[preset]["command"]
        out = args.out / preset
        print(f"== {command} --preset {preset} -> {out}", flush=True)
        start = time.perf_counter()
        rc = main([command, "--preset", preset, "--out", str(out)])
        wall = time.perf_counter() - start
        total += wall
        print(f"   {preset}: {wall:.2f} s wall", flush=True)
        if rc != 0:
            sys.exit(rc)
    print(f"all studies written under {args.out}/ in {total:.2f} s wall")
