"""One benchmark process: set up, then run whole rounds for a fixed time.

Run by ``run.py`` as a fresh interpreter with ``src`` on ``PYTHONPATH``
and one thread.  Nothing from ``summarysd`` (or numpy) is imported
before the set-up timer starts.  Prints one JSON object on its last
line of standard output.

    python3 perfbench/worker.py WORKLOAD --setup-only
    python3 perfbench/worker.py WORKLOAD --seconds S --trace 0|1 --work DIR [--mc-seed N]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ESTIMATE_FORMATS = {"estimate-csv": "csv", "estimate-jsonl-wide-n": "jsonl"}
WORKLOADS = (*ESTIMATE_FORMATS, "oracle-mc")

# oracle-mc: quadrature over the whole table range, Monte Carlo at four n.
RANGE_NS = range(2, 51)
IQR_NS = (5, 10, 25, 50)
MC_REPLICATIONS = 20_000
MC_CHUNK_SIZE = 10_000


def setup(workload: str):
    """Import what the workload calls and load the fixture tables.

    Returns the entry module, the whole set-up time and the load time.
    """
    t0 = perf_counter()
    if workload == "oracle-mc":
        from summarysd import oracle as entry
    else:
        from summarysd import cli as entry
    from summarysd import tables

    t1 = perf_counter()
    tables.load_tables()
    t2 = perf_counter()
    return entry, t2 - t0, t2 - t1


class EstimateRound:
    def __init__(self, cli, fmt: str, work: Path):
        self.main = cli.main
        self.argv = ["estimate", str(work / "input.csv"), "--correction", "first", "--format", fmt]
        self.out = work / "out.txt"
        self.err = work / "err.txt"

    def __call__(self):
        with open(self.out, "w") as out, open(self.err, "w") as err:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(self.argv)
        if code != 0:
            raise SystemExit(f"summarysd estimate exited with {code}")

    def digest(self) -> str:
        h = hashlib.sha256(self.out.read_bytes())
        h.update(self.err.read_bytes())
        return h.hexdigest()

    def trace(self, rec, cli) -> None:
        from summarysd import estimators

        rec.patch(cli, "StudySummary", lambda f: rec.wrap("estimators.summary", f))
        rec.patch(cli, "estimate_moments", lambda f: rec.wrap("estimators.moments", f))
        rec.patch(estimators, "xi_hat", lambda f: rec.wrap("estimators.divisor", f))
        rec.patch(estimators, "eta_hat", lambda f: rec.wrap("estimators.divisor", f))
        rec.patch(estimators, "std_normal_quantile", lambda f: rec.wrap("specfun.quantile", f))
        rec.patch(estimators.StudySummary, "scenario", lambda f: rec.counted("estimators.scenario", f))
        self.main = rec.wrap("cli.main", cli.main)


class OracleRound:
    def __init__(self, oracle, mc_seed: int):
        self.range_fn = oracle.expected_range
        self.iqr_fns = {conv: oracle.expected_iqr for conv in oracle.QuantileConvention}
        self.configs = {
            conv: oracle.McConfig(
                replications=MC_REPLICATIONS,
                seed=mc_seed,
                quantile_convention=conv,
                chunk_size=MC_CHUNK_SIZE,
            )
            for conv in oracle.QuantileConvention
        }
        self.result = None

    def __call__(self):
        ranges = {n: self.range_fn(n) for n in RANGE_NS}
        iqrs = {
            conv.value: {n: fn(n, self.configs[conv]) for n in IQR_NS}
            for conv, fn in self.iqr_fns.items()
        }
        self.result = {"range": ranges, "iqr": iqrs}

    def digest(self) -> str:
        return hashlib.sha256(repr(self.result).encode()).hexdigest()

    def trace(self, rec, oracle) -> None:
        for attr in ("_quantile_bulk", "std_normal_quantile_vec"):
            rec.patch(oracle, attr, lambda f: rec.wrap("specfun.quantile_vec", f, count=lambda p: p.size))
        self.range_fn = rec.wrap("oracle.range", oracle.expected_range)
        self.iqr_fns = {
            conv: rec.wrap(f"oracle.iqr.{conv.value}", oracle.expected_iqr)
            for conv in oracle.QuantileConvention
        }


def peak_rss_mb() -> float:
    """High-water resident set of this process's own address space.

    ``getrusage`` is not used: its ``ru_maxrss`` carries over the
    parent's peak from before ``exec``.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def timed_rounds(run_round, seconds: float) -> tuple[list[float], list[str]]:
    """Closed loop: start the next round only when the last one is done,
    until ``seconds`` have passed (at least one round)."""
    walls, digests = [], []
    t_end = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        run_round()
        walls.append(perf_counter() - t0)
        digests.append(run_round.digest())
        if perf_counter() >= t_end:
            return walls, digests


def layer_metrics(totals: dict, counts, rounds: int) -> dict[str, float]:
    """Per-layer figures per round, from the traced rounds."""

    def get(name, key="s"):
        total = totals.get(name, {}).get(key, 0)
        return total // rounds if key == "calls" else total / rounds

    iqr_names = [name for name in totals if name.startswith("oracle.iqr.")]
    interp = [name for name in iqr_names if name != "oracle.iqr.quarter-groups"]
    return {
        "cli.self_s": get("cli.main", "self_s"),
        "estimators.summary_s": get("estimators.summary"),
        "estimators.summary_calls": get("estimators.summary", "calls"),
        "estimators.moments_self_s": get("estimators.moments", "self_s"),
        "estimators.moments_calls": get("estimators.moments", "calls"),
        "estimators.scenario_calls": counts["estimators.scenario"] // rounds,
        "estimators.divisor_s": get("estimators.divisor"),
        "estimators.divisor_calls": get("estimators.divisor", "calls"),
        "specfun.quantile_s": get("specfun.quantile"),
        "specfun.quantile_calls": get("specfun.quantile", "calls"),
        "specfun.quantile_vec_s": get("specfun.quantile_vec"),
        "specfun.quantile_vec_elems": counts["specfun.quantile_vec"] // rounds,
        "oracle.iqr_self_s": sum((get(name, "self_s") for name in iqr_names), 0.0),
        "oracle.iqr_quarter-groups_s": get("oracle.iqr.quarter-groups", "self_s"),
        "oracle.iqr_interp_s": sum((get(name, "self_s") for name in interp), 0.0),
        "oracle.range_s": get("oracle.range"),
        "oracle.range_calls": get("oracle.range", "calls"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--work", type=Path)
    ap.add_argument("--mc-seed", type=int, default=0)
    args = ap.parse_args()

    entry, setup_s, load_s = setup(args.workload)
    src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if not Path(entry.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported {entry.__file__}, not the checkout's {src}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.workload == "oracle-mc":
        run_round = OracleRound(entry, args.mc_seed)
    else:
        run_round = EstimateRound(entry, ESTIMATE_FORMATS[args.workload], args.work)

    result: dict = {"setup_s": setup_s}
    if not args.trace:
        walls, digests = timed_rounds(run_round, args.seconds)
        result["peak_rss_mb"] = peak_rss_mb()
    else:
        from tracing import Recorder

        # One untimed round first, so that neither phase alone pays for
        # first-touch costs and their difference is the tracing cost.
        run_round()
        warm_digest = run_round.digest()
        walls, digests = timed_rounds(run_round, args.seconds / 2)
        digests.append(warm_digest)
        rec = Recorder()
        run_round.trace(rec, entry)
        try:
            traced, traced_digests = timed_rounds(run_round, args.seconds / 2)
        finally:
            rec.restore()
        digests += traced_digests
        metrics = layer_metrics(rec.totals(), rec.counts, len(traced))
        metrics["tables.load_s"] = load_s
        metrics["trace.overhead_s"] = median(traced) - median(walls)
        rec.save(args.work / f"spans-{args.workload}.npz")
        result["layers"] = metrics
    result["walls"] = walls
    result["digests"] = digests
    if args.workload == "oracle-mc":
        (args.work / "oracle.json").write_text(json.dumps(run_round.result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
