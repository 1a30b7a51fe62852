"""The repository benchmark: one command, every metric by name and unit.

    python bench/run.py                      # every workload, end-to-end metrics
    python bench/run.py --trace              # every workload, per-layer metrics
    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python bench/run.py --smoke              # one-tenth size, schema and gates
    python bench/run.py --compare A.json B.json

A run of one workload is several repetitions, one after another, each in a
fresh interpreter (``worker.py``); an end-to-end metric is the median over
the repetitions and the record keeps the quartiles and the count.  Metric
names, units, directions and regression bounds are read from
``BENCHMARK.json``; workload shapes live in ``worker.py``.  The last line of
a single-workload run is the JSON object the benchmark contract asks for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

from worker import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: The contract allows a run 180 s; a repetition that takes this long is stuck.
WORKER_TIMEOUT_S = 150
#: Bound for clock-based metrics on virtual-clock workloads, where the same
#: seed repeats them exactly and any movement is a behaviour change.
VIRTUAL_CLOCK_BOUND = 0.01
CLOCK_METRICS = ("throughput_cps", "commit_latency_p50_ms", "commit_latency_p95_ms")


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_worker(workload: str, seed: int, scale: float, trace: bool) -> dict:
    """One repetition in a fresh interpreter; raises if it fails."""
    command = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--scale", str(scale),
               "--spawned-at", repr(time.time())]
    if trace:
        command.append("--trace")
    done = subprocess.run(command, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: worker exited {done.returncode}\n"
                           f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def repetition_seeds(seed: int, count: int) -> list:
    """Distinct generator seeds for the repetitions of one run."""
    return [seed * 1000 + index for index in range(count)]


def failed_gates(repetitions: list) -> list:
    return sorted({f"{name} (seed {rep['seed']})" for rep in repetitions
                   for name, passed in rep["gates"].items() if not passed})


def quartiles(values: list) -> tuple:
    """First and third quartile (the value itself when there is only one)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def measure_end_to_end(workload: str, seed: int, seconds: float, scale: float,
                       contract: dict) -> dict:
    """Untraced repetitions of one workload, reduced to medians and quartiles.

    ``seconds`` sets how many repetitions fill the run; 0 asks for one.
    """
    count = max(3, round(seconds / WORKLOADS[workload].rep_seconds)) if seconds else 1
    repetitions = [run_worker(workload, rep_seed, scale, trace=False)
                   for rep_seed in repetition_seeds(seed, count)]
    metrics = {}
    for spec in contract["end_to_end"]:
        values = [rep["end_to_end"][spec["name"]] for rep in repetitions]
        q1, q3 = quartiles(values)
        metrics[spec["name"]] = {"value": median(values), "unit": spec["unit"],
                                 "q1": q1, "q3": q3, "n": len(values)}
    digests = "".join(rep["exec_digest"] for rep in repetitions)
    return {
        "workload": workload, "clock": WORKLOADS[workload].clock, "seed": seed,
        "repetitions": count, "metrics": metrics,
        "latency_samples": min(rep["latency_samples"] for rep in repetitions),
        "attempted": sum(rep["attempted"] for rep in repetitions),
        "failed": sum(rep["failed"] for rep in repetitions),
        "failed_gates": failed_gates(repetitions),
        "exec_digest": hashlib.sha256(digests.encode()).hexdigest(),
    }


def measure_layers(workload: str, seed: int, seconds: float, scale: float,
                   contract: dict) -> dict:
    """Pairs of an untraced and a traced repetition of the same seed.

    Counts come from the untraced repetition, span self times from the traced
    one; on the virtual clock the traced repetition must reproduce the
    untraced execution order and clock-based metrics exactly.
    """
    spec = WORKLOADS[workload]
    # A traced repetition costs about two plain ones.
    count = max(1, int(seconds / (3 * spec.rep_seconds)))
    pairs, problems = [], []
    for rep_seed in repetition_seeds(seed, count):
        plain = run_worker(workload, rep_seed, scale, trace=False)
        traced = run_worker(workload, rep_seed, scale, trace=True)
        layers = {**traced["layers"], **plain["layers"]}
        layers["trace.overhead_ratio"] = traced["cpu_seconds"] / plain["cpu_seconds"]
        pairs.append((plain, traced, layers))
        if spec.clock == "virtual":
            if traced["exec_digest"] != plain["exec_digest"]:
                problems.append(f"traced_digest_differs (seed {rep_seed})")
            if any(traced["end_to_end"][m] != plain["end_to_end"][m] for m in CLOCK_METRICS):
                problems.append(f"traced_clock_metrics_differ (seed {rep_seed})")
    repetitions = [rep for plain, traced, _ in pairs for rep in (plain, traced)]
    names = [spec["name"] for spec in contract["per_layer"]]
    reported = set(pairs[0][2])
    if reported != set(names):
        problems.append("per_layer names differ from BENCHMARK.json: "
                        f"{sorted(reported ^ set(names))}")
    units = {spec["name"]: spec["unit"] for spec in contract["per_layer"]}
    metrics = {name: {"value": median(layers[name] for _, _, layers in pairs),
                      "unit": units[name]}
               for name in names if name in reported}
    return {
        "workload": workload, "clock": spec.clock, "seed": seed, "repetitions": 2 * count,
        "metrics": metrics,
        "attempted": sum(rep["attempted"] for rep in repetitions),
        "failed": sum(rep["failed"] for rep in repetitions),
        "failed_gates": failed_gates(repetitions) + problems,
        "exec_digest": pairs[0][0]["exec_digest"],
    }


def print_record(record: dict) -> None:
    print(f"== {record['workload']} ({record['clock']} clock, seed {record['seed']}, "
          f"{record['repetitions']} repetitions)")
    for name, metric in record["metrics"].items():
        detail = (f"   q1 {metric['q1']:.6g}  q3 {metric['q3']:.6g}  n {metric['n']}"
                  if "q1" in metric else "")
        print(f"  {name:<46} {metric['value']:>14.6g} {metric['unit']:<10}{detail}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}  "
          f"exec_digest {record['exec_digest'][:16]}")
    if "latency_samples" in record:
        print(f"  latency samples per repetition >= {record['latency_samples']}")
    for gate in record["failed_gates"]:
        print(f"  GATE FAILED: {gate}")


def contract_line(record: dict) -> str:
    """The one JSON object a single-workload run ends with."""
    return json.dumps({
        "correct": not record["failed_gates"],
        "attempted": record["attempted"], "failed": record["failed"],
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in record["metrics"].items()},
    })


def smoke(contract: dict) -> int:
    """Every workload at one-tenth size: schema, metric names and gates."""
    problems = []
    end_to_end = {spec["name"] for spec in contract["end_to_end"]}
    if set(WORKLOADS) != {spec["name"] for spec in contract["workloads"]}:
        problems.append("workload names differ between worker.py and BENCHMARK.json")
    for workload in WORKLOADS:
        plain = measure_end_to_end(workload, 1, 0, 0.1, contract)
        layered = measure_layers(workload, 1, 0, 0.1, contract)
        for record in (plain, layered):
            problems.extend(f"{workload}: {gate}" for gate in record["failed_gates"])
        if set(plain["metrics"]) != end_to_end:
            problems.append(f"{workload}: end-to-end names "
                            f"{sorted(set(plain['metrics']) ^ end_to_end)}")
        zero = [name for name, metric in plain["metrics"].items() if not metric["value"] > 0]
        if zero:
            problems.append(f"{workload}: end-to-end metrics not positive: {zero}")
        print(f"smoke {workload}: {len(plain['metrics'])} end-to-end, "
              f"{len(layered['metrics'])} per-layer metrics")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print("smoke failed" if problems else "smoke ok")
    return 1 if problems else 0


def same_inputs(a: dict, b: dict) -> bool:
    """Whether two records of one workload drew the same generator seeds."""
    return (a["seed"], a["repetitions"]) == (b["seed"], b["repetitions"])


def compare(path_a: str, path_b: str, contract: dict) -> int:
    """Judge record B against record A with the benchmark's own bounds."""
    with open(path_a, encoding="utf-8") as a, open(path_b, encoding="utf-8") as b:
        before = {r["workload"]: r for r in json.load(a)["records"]}
        after = {r["workload"]: r for r in json.load(b)["records"]}
    worse = 0
    print(f"{'workload':<18} {'metric':<24} {'A':>12} {'B':>12} {'change':>8} "
          f"{'bound':>6}  verdict")
    for workload in sorted(set(before) & set(after)):
        for spec in contract["end_to_end"]:
            name = spec["name"]
            a, b = before[workload]["metrics"][name], after[workload]["metrics"][name]
            bound = spec["bound"]
            noise = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / a["value"]
            if before[workload]["clock"] == "virtual" and name in CLOCK_METRICS:
                bound = VIRTUAL_CLOCK_BOUND
                if same_inputs(before[workload], after[workload]):
                    # The quartiles then show how the seeds differ, not noise.
                    noise = 0.0
            change = (b["value"] - a["value"]) / a["value"]
            if spec["better"] == "higher":
                change = -change
            if noise > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(f"{workload:<18} {name:<24} {a['value']:>12.6g} {b['value']:>12.6g} "
                  f"{change:>+8.1%} {bound:>6.1%}  {verdict}")
        if (before[workload]["clock"] == "virtual"
                and same_inputs(before[workload], after[workload])
                and before[workload]["exec_digest"] != after[workload]["exec_digest"]):
            print(f"{workload:<18} exec_digest differs: the simulated behaviour changed")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this workload only (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report the per-layer metrics from traced repetitions")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()

    contract = load_contract()
    if args.compare:
        return compare(*args.compare, contract)
    if args.smoke:
        return smoke(contract)

    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    measure = measure_layers if args.trace else measure_end_to_end
    records = []
    for workload in ([args.workload] if args.workload else list(WORKLOADS)):
        try:
            record = measure(workload, args.seed, seconds, 1.0, contract)
        except RuntimeError as error:  # a repetition failed: no result is printed
            print(f"bench: {error}", file=sys.stderr)
            return 1
        print_record(record)
        records.append(record)
    OUT_DIR.mkdir(exist_ok=True)
    kind = "layers" if args.trace else "end-to-end"
    only = f"-{args.workload}" if args.workload else ""
    path = OUT_DIR / f"record-{kind}-seed{args.seed}{only}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"kind": kind, "seed": args.seed, "seconds": seconds,
                   "records": records}, handle, indent=1)
    print(f"record written to {path.relative_to(ROOT)}")
    if args.workload:
        print(contract_line(records[0]))
    return 1 if any(record["failed_gates"] for record in records) else 0


if __name__ == "__main__":
    sys.exit(main())
