"""Benchmark of the dirac-toa desk studies.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, as a table

Run from the root of a source checkout.  Each workload pass runs the real CLI
commands (``cli.main`` with configs generated from the seed) in a fresh
single-threaded Python process, and passes repeat until ``--seconds`` have
elapsed.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics (medians over passes); with ``--trace 1``
each untraced pass is paired with a traced one and the object holds the
per-layer metrics of BENCHMARK.json.  Every op's outputs are checked; an op
fails on a non-zero exit or a failed check.  Environment details go to
standard error.  README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads, here and in every pass process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"
SETUP_PROBES = 1  # set-up-only processes after each untraced pass
DEADLINE_S = 170.0  # a workload run ends within this, killing a pass if needed


def child_env() -> dict:
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONHASHSEED="0")


def spawn(pass_dir: Path, ops: list[list[str]], trace: bool, deadline: float) -> dict:
    """Run one pass process; return its wall, CPU, peak RSS, set-up time and
    the child's own result (None if it wrote none)."""
    pass_dir.mkdir(parents=True)
    result_file = pass_dir / "result.json"
    spec_file = pass_dir / "pass.json"
    spec_file.write_text(json.dumps({"ops": ops, "trace": trace, "result": str(result_file)}))
    with open(pass_dir / "child.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(spec_file)], cwd=ROOT,
                                env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no pass process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = json.loads(result_file.read_text()) if result_file.exists() else None
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "setup_s": child["imported"] - t0 if child else None,
        "child": child,
    }


def run_pass(plan, configs: dict, pass_dir: Path, trace: bool, deadline: float) -> dict:
    """One workload pass: spawn, check every op's outputs, fingerprint them."""
    argvs = [[op.command, "--config", str(configs[op.name]), "--out", str(pass_dir / op.name)]
             for op in plan.ops]
    res = spawn(pass_dir, argvs, trace, deadline)
    rcs = [o["rc"] for o in res["child"]["ops"]] if res["child"] else [res["exit"] or 1] * len(argvs)
    res["errors"] = {}
    for op, rc in zip(plan.ops, rcs):
        if rc != 0:
            errors = [f"exit code {rc}"]
        else:
            try:
                errors = op.check(pass_dir / op.name)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                errors = [f"unreadable output: {exc!r}"]
        if errors:
            res["errors"][op.name] = errors
    res["op_wall_s"] = sum(o["wall_s"] for o in res["child"]["ops"]) if res["child"] else None
    digest = hashlib.sha256()
    for path in sorted(p for op in plan.ops for p in (pass_dir / op.name).rglob("*") if p.is_file()):
        digest.update(path.relative_to(pass_dir).as_posix().encode() + b"\0" + path.read_bytes())
    res["digest"] = digest.hexdigest()
    sys.stderr.write(f"{pass_dir.name}: wall {res['wall_s']:.3f} s, cpu {res['cpu_s']:.3f} s, "
                     f"rss {res['peak_rss_mb']:.1f} MB, setup {res['setup_s'] or float('nan'):.3f} s\n")
    if res["errors"] or res["exit"] != 0:
        sys.stderr.write(f"pass {pass_dir.name} failed: {res['errors']}, exit {res['exit']}\n")
        sys.stderr.write((pass_dir / "child.log").read_text()[-4000:])
    else:
        shutil.rmtree(pass_dir)
    return res


def environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    # these import dirac_toa, which main() has put on the path
    import tracer
    import workloads
    from dirac_toa.csvio import write_manifest

    started = time.monotonic()
    deadline = started + DEADLINE_S
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = workloads.build(name, seed)
    configs = {op.name: write_manifest(work / f"{op.name}.cfg", op.config) for op in plan.ops}

    # a warm-up process fills the bytecode and file caches
    spawn(work / "warmup", [], False, deadline)

    # Cycles of one pass and either its traced twin or a few set-up probes,
    # until the run time is spent; spreading the samples over the whole run
    # keeps one slow stretch of the machine from deciding the median.
    passes, traced, setups = [], [], []
    t0 = time.monotonic()
    while not passes or (time.monotonic() - t0 < seconds and time.monotonic() < deadline):
        passes.append(run_pass(plan, configs, work / f"pass{len(passes)}", False, deadline))
        if trace:
            traced.append(run_pass(plan, configs, work / f"traced{len(traced)}", True, deadline))
        else:
            for _ in range(SETUP_PROBES):
                setups.append(spawn(work / f"probe{len(setups)}", [], False, deadline)["setup_s"])
    shutil.rmtree(work, ignore_errors=True)

    problems = []
    every = passes + traced
    attempted = len(plan.ops) * len(every)
    failed = sum(len(p["errors"]) for p in every)
    if len({p["digest"] for p in every}) > 1:
        problems.append("outputs differ between passes")

    def median(values):
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else None

    if trace:
        layers, counted = [], set()
        for untraced, p in zip(passes, traced):
            if p["child"] is None or untraced["op_wall_s"] is None:
                continue
            counts = p["child"]["trace"]["counts"]
            counted.add(json.dumps(counts, sort_keys=True))
            for key, want in plan.work.items():
                if counts.get(key, 0) != want:
                    problems.append(f"trace counted {key} = {counts.get(key, 0)}, inputs give {want}")
            layers.append(tracer.layer_metrics(p["child"]["trace"], untraced["op_wall_s"]))
        if len(counted) > 1:
            problems.append("work counts differ between traced passes")
        values = {k: median(m[k] for m in layers) for k in (layers[0] if layers else {})}
        wanted = spec["per_layer"]
    else:
        ok = [p for p in passes if p["exit"] == 0]
        values = {
            "wall_s": median(p["wall_s"] for p in ok),
            "cpu_s": median(p["cpu_s"] for p in ok),
            "setup_s": median(setups + [p["setup_s"] for p in passes]),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in ok),
        }
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if values.get(m["name"]) is None:
            problems.append(f"metric {m['name']} not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for problem in problems:
        sys.stderr.write(f"{name}: {problem}\n")
    sys.stderr.write(f"{name}: {len(passes)} passes, {len(traced)} traced, "
                     f"{time.monotonic() - started:.1f} s\n")
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dirac_toa" / "cli.py").is_file():
        sys.stderr.write(f"no dirac_toa sources under {SRC}: run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.stderr.write(f"env {json.dumps(environment())}\n")

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)))
        return 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        print(f"{name:16s} {'ops_attempted':30s} {res['attempted']:>14d} count")
        print(f"{name:16s} {'ops_failed':30s} {res['failed']:>14d} count")
        for metric, m in res["metrics"].items():
            print(f"{name:16s} {metric:30s} {m['value']:>14.6g} {m['unit']}")
            total["metrics"][f"{name}/{metric}"] = m
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
