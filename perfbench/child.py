"""One workload pass in a fresh process.

Usage: python3 child.py <pass.json>

The pass file names the CLI argument lists to run, whether to trace, and
where to write the result.  The process imports ``dirac_toa.cli`` (the end of
set-up), runs each op through ``cli.main`` and writes, as JSON, the monotonic
time at which the import finished, each op's exit code and wall time, and the
trace summary when tracing.  With ``"ops": []`` it only measures set-up.
It exits non-zero if any op did.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path


def main(pass_file: str) -> int:
    spec = json.loads(Path(pass_file).read_text())
    from dirac_toa import cli

    imported = time.monotonic()
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    ops = []
    for argv in spec["ops"]:
        t0 = time.perf_counter()
        try:
            rc = tracer.call(tracing.OP_LAYER, cli.main, (argv,), {}) if tracer else cli.main(argv)
        except SystemExit as exc:  # argparse and config errors exit this way
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # an op that crashes is a failed op; run the rest
            traceback.print_exc()
            rc = 1
        ops.append({"argv": argv, "rc": int(rc or 0), "wall_s": time.perf_counter() - t0})

    result = {"imported": imported, "ops": ops}
    if tracer:
        result["trace"] = tracing.summary(tracer)
    Path(spec["result"]).write_text(json.dumps(result))
    return 1 if any(op["rc"] for op in ops) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
