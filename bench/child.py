"""Entry point of the benchmark's child processes (started by ``run.py``).

``python child.py <kind> --workload W --seed N --seconds S --scale K``
prints one JSON object on its last line of standard output.  The clock
for ``setup_s`` starts here, before ``repro`` is imported.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(_BENCH_DIR.parent / "src"), str(_BENCH_DIR)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("kind", choices=("measure", "setup", "trace", "layers"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--min-reps", type=int)
    args = parser.parse_args()

    if args.kind == "layers":
        from layers import run_layer_drivers

        result = run_layer_drivers(smoke=args.scale > 1)
    else:
        import harness
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        if args.kind == "measure":
            result = harness.measure(workload, args.seed, args.seconds,
                                     args.scale, _PROCESS_STARTED,
                                     args.min_reps)
        elif args.kind == "setup":
            result = harness.setup_only(workload, args.seed, args.scale,
                                        _PROCESS_STARTED)
        else:
            from trace import traced_run

            result = traced_run(workload, args.seed, args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
