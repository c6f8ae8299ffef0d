"""pieces-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of one workload until S seconds are used, each round in a fresh
interpreter (worker.py) so that every module-level cache of pieces_lab
starts empty, as it does for a command-line run.  Rounds run one after
another, so the load is one process, with one BLAS thread.  All rounds of a
run use the same inputs, made from the seed.

With --trace 0 the result carries the end-to-end metrics, each the median
over the rounds; with --trace 1 it carries the per-layer metrics computed
from the spans of traced rounds, and the spans are written to
perfbench/out/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Workloads, metrics and
oracles are described in perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

# every round of every workload ends well inside this; a run must end
# within 180 s
ROUND_TIMEOUT_S = 150.0


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _on_term(signum, frame):
    # raising here makes subprocess.run kill and reap the running worker
    raise SystemExit(128 + signum)


def run_round(workload, seed, trace_file, timeout):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    t0 = _now()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} round exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), _now() - t0


def _stage(ops, stage, how):
    times = [op["seconds"] for op in ops if op["stage"] == stage]
    if how == "sum" or not times:  # no times when an earlier operation raised
        return sum(times)
    return statistics.median(times)


def _medians(per_round):
    return {name: {"value": statistics.median(m[name][0] for m in per_round),
                   "unit": unit}
            for name, (_, unit) in per_round[0].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "pieces_lab" / "__init__.py").is_file():
        sys.exit(f"no pieces_lab sources under {ROOT / 'src'}")
    signal.signal(signal.SIGTERM, _on_term)

    _, stages = WORKLOADS[args.workload]
    if args.trace:
        OUT.mkdir(exist_ok=True)

    start = _now()
    rounds = []
    while True:
        trace_file = (OUT / f"{args.workload}-seed{args.seed}-round{len(rounds)}.json"
                      if args.trace else None)
        timeout = ROUND_TIMEOUT_S - (_now() - start)
        result, took = run_round(args.workload, args.seed, trace_file, timeout)
        rounds.append(result)
        # start another round only if it should end by the deadline
        if _now() - start + took > args.seconds:
            break

    ops = [op for r in rounds for op in r["ops"]]
    failed = [op for op in ops if not op["ok"]]
    for op in failed:
        print(f"FAILED {args.workload} {op['name']}: {op['detail']}")
    # every stage name of every workload, so that a traced run reports the
    # same per-layer metrics on each workload (0 for the other's stages)
    all_stages = [name for _, st in WORKLOADS.values() for name, _ in st.values()]
    per_round, stage_rounds = [], []
    for r in rounds:
        wall = sum(op["seconds"] for op in r["ops"])
        st = {f"stage.{name}": (_stage(r["ops"], stage, how), "s")
              for stage, (name, how) in stages.items()}
        if args.trace:
            m = {k: tuple(v) for k, v in r["layers"].items()}
            m["trace.wall_s"] = (wall, "s")
            m.update({f"stage.{name}": st.get(f"stage.{name}", (0.0, "s"))
                      for name in all_stages})
        else:
            m = {"setup_s": (r["setup_s"], "s"), "wall_s": (wall, "s"),
                 "peak_rss_mb": (r["peak_rss_mb"], "MiB")}
        per_round.append(m)
        stage_rounds.append(st)
    metrics = _medians(per_round)

    for op in rounds[0]["ops"]:
        print(f"# {op['name']:<28} {op['seconds']:9.4f} s  {op['detail']}")
    print(f"# {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{len(ops)} operations, {len(failed)} failed; medians over rounds")
    if not args.trace:
        for name, m in _medians(stage_rounds).items():
            print(f"# {name:<38} {m['value']:>14.6g} {m['unit']}")
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": not any(not op["raised"] for op in failed),
                      "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
