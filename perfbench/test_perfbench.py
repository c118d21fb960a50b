"""Tests of the benchmark itself: a corrupted output and a non-zero exit each
count as a failed op, and a traced pass accounts for its whole wall time.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from dirac_toa.csvio import read_csv, write_csv, write_manifest  # noqa: E402

# a density run of about two seconds that passes the lattice-density checks
TINY = {
    "run": {"command": "density"},
    "detector": {"height": 1e-5, "width": 0.02, "edge": 0.008},
    "lattice": {"dtau": 0.004, "x_lo": -4.0, "x_hi": 2.0, "n_substeps": 8},
    "scan": {"p0_values": "0.75"},
}


def _perturb_d(out: Path) -> None:
    path = out / "evolution_p0.75.csv"
    meta, cols = read_csv(path)
    cols["d"] *= 1.1  # moves the detected total by ~4e-6, past the 1e-6 budget bound
    write_csv(path, cols, metadata=meta)


def _pass(tmp_path: Path, ops: list, trace: bool = False) -> dict:
    plan = workloads.Plan(ops)
    configs = {op.name: write_manifest(tmp_path / f"{op.name}.cfg", op.config) for op in plan.ops}
    return run.run_pass(plan, configs, tmp_path / "pass", trace, time.monotonic() + 120)


def test_corrupted_output_and_nonzero_exit_are_failed_ops(tmp_path):
    check = lambda out: workloads.check_density(out, [0.75])  # noqa: E731

    def corrupt_then_check(out):
        _perturb_d(out)
        return check(out)

    too_coarse = TINY | {"lattice": TINY["lattice"] | {"dtau": 0.008}}  # rejected: exit 2
    res = _pass(tmp_path, [
        workloads.Op("good", "density", TINY, check),
        workloads.Op("corrupt", "density", TINY, corrupt_then_check),
        workloads.Op("rejected", "density", too_coarse, check),
    ])
    assert set(res["errors"]) == {"corrupt", "rejected"}
    assert any("budget residual" in e for e in res["errors"]["corrupt"])
    assert res["errors"]["rejected"] == ["exit code 2"]
    assert res["exit"] == 1


def test_crashed_process_fails_every_op(tmp_path):
    res = _pass(tmp_path, [workloads.Op("a", "no-such-command", TINY, lambda out: []),
                           workloads.Op("b", "density", TINY, lambda out: [])])
    # argparse exits 2 on the unknown command; the second op still runs
    assert res["errors"] == {"a": ["exit code 2"]}


def test_traced_pass_accounts_for_its_wall_time(tmp_path):
    check = lambda out: workloads.check_density(out, [0.75])  # noqa: E731
    res = _pass(tmp_path, [workloads.Op("good", "density", TINY, check)], trace=True)
    assert res["errors"] == {}
    trace = res["child"]["trace"]
    metrics = tracer.layer_metrics(trace, res["op_wall_s"])
    layer_s = [v for k, v in metrics.items() if k.endswith("_s") and not k.startswith("trace.")]
    assert np.isclose(sum(layer_s), metrics["trace.wall_s"], rtol=1e-9, atol=0)
    assert metrics["propagator.runs"] == 1
    assert metrics["propagator.tail_violations"] == 1  # the known tail defect shows
    assert metrics["cli.csv_rows"] > 0 and metrics["cli.csv_bytes"] > 0
    assert metrics["propagator.evolve_s"] > 0.5 * metrics["trace.wall_s"]
