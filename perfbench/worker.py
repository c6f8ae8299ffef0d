"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --t0 T [--trace FILE]

T is CLOCK_MONOTONIC when the parent started this process; set-up time runs
from T to the moment the inputs are ready, so it covers interpreter
start-up, the imports and the construction of the inputs.  With --trace the
public functions of pieces_lab are wrapped (spans.py) and the spans are
written to FILE.  The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import resource
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace")
    args = ap.parse_args()

    import pieces_lab as pl
    import spans
    import workloads

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(pl.__file__).startswith(src + os.sep):
        sys.exit(f"pieces_lab was imported from {pl.__file__}, not from {src}")
    tracer = spans.Tracer().install(pl) if args.trace else None
    parts, _ = workloads.WORKLOADS[args.workload]
    inputs = [make_inputs(pl, args.seed) for make_inputs, _ in parts]
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0

    rnd = workloads.Round()
    for (_, run), inp in zip(parts, inputs):
        run(pl, inp, rnd)

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": rnd.ops,
    }
    if tracer is not None:
        tracer.write(args.trace)
        result["layers"] = tracer.metrics()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
