"""gaplab benchmark: Monte Carlo trial throughput, set-up time and memory.

Usage, from the root of a gaplab source tree:

    python3 perfbench/run.py --workload thermal-shell --seed 1 --seconds 20 --trace 0

The workload's experiment configuration is built from ``--seed`` and run from
``src/`` of that tree in fresh child processes, each with one gaplab worker
and one BLAS thread.  With ``--trace 0`` it prints the end-to-end metrics
(``trials_per_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` the
per-layer metrics of traced runs.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Work files go to ``.perfbench/`` in the tree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Untraced, the workload runs in this many fresh processes in turn, each
# measuring for --seconds / PROCESSES after its own warm-up run.  The speed
# of thermal-shell differs between processes by up to 1.45x and stays put
# within one, so one process per run would make the run's median a single
# draw of that per-process factor.  Set-up is timed in each process.
PROCESSES = 3
# Added to each process's measuring time for its timeout: start-up, the
# warm-up run and the last run, which may end after the measuring window.
RUN_SLACK_S = 40

THREAD_ENV = {
    "GAPLAB_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _child(work: Path, tag: str, extra: list, timeout: float) -> dict:
    result = work / f"{tag}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--config", str(work / "config.json"),
           "--src", str(SRC), "--result", str(result)] + extra
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag} process did not finish within {timeout} s")
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{tag} process failed with exit code {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g}, q3 {q3:.4g}, n={len(values)}"


def _end_to_end(work: Path, args) -> tuple[dict, dict]:
    seconds = args.seconds / PROCESSES
    runs = [_child(work, f"workload{i}", ["--workload", args.workload, "--out",
                                         str(work / "out"), "--seconds", str(seconds),
                                         "--trace", "0"], seconds + RUN_SLACK_S)
            for i in range(PROCESSES)]
    trials = runs[0]["trials"]
    raw = [trials / wall for r in runs for wall in r["walls"]]
    scales = [scale for r in runs for scale in r["reference_scale"]]
    rates = [rate * scale for rate, scale in zip(raw, scales)]
    setups = [r["setup_s"] for r in runs]
    rss = [r["peak_rss_kib"] * 1024 / 1e6 for r in runs]
    metrics = {
        "trials_per_s": {"value": statistics.median(rates) if rates else 0.0, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }
    print(f"  trials_per_s  {metrics['trials_per_s']['value']:.6g} 1/s  "
          f"(median over warm runs of {trials} trials in {PROCESSES} processes, "
          f"at reference speed; {_spread(rates)})")
    if raw:
        print(f"    as timed    {statistics.median(raw):.6g} 1/s  ({_spread(raw)}); "
              f"reference kernel at {statistics.median(scales):.4g}x its nominal time")
    print(f"  setup_s       {metrics['setup_s']['value']:.6g} s  "
          f"(median over fresh processes; {_spread(setups)})")
    print(f"  peak_rss_mb   {metrics['peak_rss_mb']['value']:.6g} MB  "
          f"(median over processes; {_spread(rss)})")
    res = {"attempted": sum(r["attempted"] for r in runs),
           "failed": sum(r["failed"] for r in runs),
           "problems": [p for r in runs for p in r["problems"]],
           "machine": runs[0]["machine"], "processes": runs}
    return metrics, res


def _per_layer(work: Path, args) -> tuple[dict, dict]:
    res = _child(work, "traced", ["--workload", args.workload, "--out", str(work / "out"),
                                  "--seconds", str(args.seconds), "--trace", "1"],
                 args.seconds + RUN_SLACK_S)
    layer = res["layer_metrics"]
    metrics = {name: {"value": layer.get(name, 0), "unit": unit}
               for name, unit in workloads.layer_metrics()}
    for name, metric in metrics.items():
        if metric["value"]:
            print(f"  {name:58s} {metric['value']:.6g} {metric['unit']}")
    print(f"  tracing overhead {layer.get(workloads.TRACE_OVERHEAD, float('nan')):.4g} s per run "
          f"(traced minus untraced, median of {res['pairs']} pairs with byte-identical trials.csv)")
    return metrics, res


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "gaplab" / "cli.py").is_file():
        print(f"perfbench: no gaplab source tree at {SRC}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    cfg = workloads.config(args.workload, args.seed)
    with open(work / "config.json", "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    try:
        metrics, res = (_per_layer if args.trace else _end_to_end)(work, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed = res["attempted"], res["failed"]
    print(f"  failed_frac   {failed / attempted:.6g} ({failed} of {attempted} runs)")
    for problem in res["problems"]:
        print(f"  problem: {problem}")
    facts = dict(res["machine"], seed=args.seed)
    print("machine " + json.dumps(facts, sort_keys=True))
    with open(work / f"result-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "config": cfg, "machine": facts,
                   "attempted": attempted, "failed": failed, "metrics": metrics,
                   "child": res}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
