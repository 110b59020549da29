"""Benchmark of ``summarysd``: one command, three workloads.

    python3 perfbench/run.py --workload estimate-csv --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from ``--seed``, measures set-up in
fresh processes, runs the timed phase in one more fresh single-threaded
process (closed loop, one client), checks every output against
independent computations, and prints one JSON object as the last line:
``correct``, ``attempted``, ``failed`` and the metrics (end-to-end with
``--trace 0``, per-layer with ``--trace 1``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

from check import check_estimate, check_oracle
from inputs import ROWS, make_table, write_csv
from worker import ESTIMATE_FORMATS, MC_REPLICATIONS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 4
PROCESS_TIMEOUT_S = 150


def worker(*args: str) -> dict:
    """Run worker.py in a fresh interpreter with one thread; its last
    line of standard output is a JSON object."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_SRC=str(SRC), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_estimate(workload: str, seed: int, seconds: float, trace: int):
    cols, nonfinite = make_table(workload, seed)
    write_csv(cols, WORK / "input.csv")
    res = worker(workload, "--seconds", str(seconds), "--trace", str(trace), "--work", str(WORK))
    fmt = ESTIMATE_FORMATS[workload]
    out = (WORK / "out.txt").read_text()
    err = (WORK / "err.txt").read_text()
    problems, failed_rows = check_estimate(cols, nonfinite, fmt, out, err)

    # The checker must notice a single wrong SD.
    corrupted, _ = check_estimate(cols, nonfinite, fmt, _corrupt_estimate(out, fmt, nonfinite), err)
    if not corrupted:
        problems.append("checker accepted a corrupted output")
    return res, problems, ROWS, failed_rows, ROWS


def _corrupt_estimate(out: str, fmt: str, nonfinite: set[str]) -> str:
    lines = out.splitlines(keepends=True)
    for k, line in enumerate(lines):
        if fmt == "csv":
            cells = line.split(",")
            if k == 0 or cells[0] in nonfinite or float(cells[3]) == 0:
                continue
            cells[3] = format(float(cells[3]) * 1.001, ".6g")
            lines[k] = ",".join(cells)
        else:
            rec = json.loads(line)
            if rec["study_id"] in nonfinite or rec["sd"] == 0:
                continue
            rec["sd"] *= 1.001
            lines[k] = json.dumps(rec) + "\n"
        return "".join(lines)
    raise SystemExit("no output row to corrupt")


def run_oracle(seed: int, seconds: float, trace: int):
    res = worker("oracle-mc", "--seconds", str(seconds), "--trace", str(trace),
                 "--work", str(WORK), "--mc-seed", str(seed))
    result = json.loads((WORK / "oracle.json").read_text())
    problems = check_oracle(result)

    # The checker must notice one estimate moved by ten standard errors.
    conv = next(iter(result["iqr"]))
    n = next(iter(result["iqr"][conv]))
    est, se = result["iqr"][conv][n]
    result["iqr"][conv][n] = [est + 10 * se, se]
    if not check_oracle(result):
        problems.append("checker accepted a corrupted output")

    iqr_calls = sum(len(by_n) for by_n in result["iqr"].values())
    return res, problems, len(result["range"]) + iqr_calls, 0, iqr_calls * MC_REPLICATIONS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (SRC / "summarysd" / "__init__.py").is_file():
        print(f"error: no summarysd sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    setup_samples = []
    if not args.trace:
        setup_samples = [worker(args.workload, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]

    if args.workload == "oracle-mc":
        res, problems, ops, failed_ops, items = run_oracle(args.seed, args.seconds, args.trace)
    else:
        res, problems, ops, failed_ops, items = run_estimate(args.workload, args.seed, args.seconds, args.trace)

    # Byte-identical output in every round (traced or not) of the run.
    if len(set(res["digests"])) != 1:
        problems.append("output differs between rounds on the same inputs")
    for p in problems[:20]:
        print(f"check: {p}", file=sys.stderr)

    rounds = len(res["digests"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = res["layers"]
        metrics = spec["per_layer"]
    else:
        values = {
            "wall_s": median(res["walls"]),
            "items_per_s": median(items / w for w in res["walls"]),
            "setup_s": median(setup_samples + [res["setup_s"]]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = spec["end_to_end"]
    print(json.dumps({
        "correct": not problems,
        "attempted": ops * rounds,
        "failed": failed_ops * rounds,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
