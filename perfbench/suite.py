"""Run perfbench workloads in fresh processes and summarise or compare them.

    # every workload, seeds 1..10, one fresh process per run
    python3 perfbench/suite.py run --seeds 1-10 --out runs.json
    python3 perfbench/suite.py summary runs.json

    # parent/change comparison: two checkouts, runs alternate which side goes first
    python3 perfbench/suite.py ab --parent ../parent --change . --seeds 1-10 --out ab.json
    python3 perfbench/suite.py compare ab.json

Each run is `perfbench/run.py` of the checkout it measures, started with that
checkout as working directory, one after the other (never two at once), so
`peak_rss_mb` is each run's own high-water mark. Bounds come from the
`BENCHMARK.json` next to this directory when there is one.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_benchmark() -> dict:
    path = HERE.parent / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def load_spec() -> dict:
    """Metric name -> its BENCHMARK.json entry (unit, better, bound)."""
    spec = load_benchmark()
    return {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({done.returncode}):\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads((root / ".perfbench_out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    print(f"  {root.name or root}: {workload} seed {seed} trace {trace}: "
          + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                     if not trace or k in ("trace.wall_s", "trace.overhead_s")),
          flush=True)
    return {"workload": workload, "seed": seed, "trace": trace, "result": result,
            "digest": report["simulated"]["digest"],
            "simulated": report["simulated"]["per_pass"],
            "environment": report["environment"]}


def cmd_run(args) -> None:
    root = Path(args.root).resolve()
    records = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            rec = run_one(root, workload, seed, args.seconds, args.trace)
            records.append(dict(rec, side="run"))
    Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    summarise(records)


def cmd_ab(args) -> None:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    records = []
    for workload in args.workloads.split(","):
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                rec = run_one(sides[side], workload, seed, args.seconds, 0)
                records.append(dict(rec, side=side))
    Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    compare(records)


def stats(values: list) -> tuple:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q = statistics.quantiles(values, n=4)
    return med, q[0], q[2]


def summarise(records: list) -> None:
    spec = load_spec()
    failed = sum(r["result"]["failed"] for r in records)
    print(f"\n{len(records)} runs, checks failed: {failed}")
    for workload in dict.fromkeys(r["workload"] for r in records):
        rows = [r for r in records if r["workload"] == workload]
        digests: dict = {}
        for r in rows:
            digests.setdefault(r["seed"], set()).add(r["digest"])
        same = all(len(d) == 1 for d in digests.values())
        print(f"\n{workload}: {len(rows)} runs, seeds {sorted(digests)}; "
              f"digest per seed identical across runs: {same}")
        print(f"  {'metric':24s} {'unit':8s} {'n':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
        for name in rows[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in rows]
            unit = rows[0]["result"]["metrics"][name]["unit"]
            med, q1, q3 = stats(values)
            spread = (q3 - q1) / med if med else float("nan")
            bound = spec.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = "steady" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO WIDE")
            print(f"  {name:24s} {unit:8s} {len(values):3d} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.4f} {bound if bound is not None else '':>6} {flag}")


def compare(records: list) -> None:
    """Per workload and metric: medians, pair wins and the verdict against the bound."""
    spec = load_spec()
    for workload in dict.fromkeys(r["workload"] for r in records):
        rows = [r for r in records if r["workload"] == workload]
        parent = {r["seed"]: r for r in rows if r["side"] == "parent"}
        change = {r["seed"]: r for r in rows if r["side"] == "change"}
        seeds = sorted(set(parent) & set(change))
        same = all(parent[s]["digest"] == change[s]["digest"] for s in seeds)
        print(f"\n{workload}: {len(seeds)} pairs; simulated outputs identical: {same}")
        for name, meta in spec.items():
            if "bound" not in meta or name not in rows[0]["result"]["metrics"]:
                continue
            p = [parent[s]["result"]["metrics"][name]["value"] for s in seeds]
            c = [change[s]["result"]["metrics"][name]["value"] for s in seeds]
            sign = 1.0 if meta["better"] == "lower" else -1.0
            wins = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
            losses = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
            pm, pq1, pq3 = stats(p)
            cm, _, _ = stats(c)
            worse = sign * (cm - pm) / pm
            spread = (pq3 - pq1) / pm
            if worse > meta["bound"]:
                verdict = "REGRESSION"
            elif spread > meta["bound"] and not (
                    max(sign * v for v in c) < min(sign * v for v in p)):
                verdict = "unresolved (parent spread wider than bound)"
            elif wins >= 0.9 * len(seeds) and abs(cm - pm) > pq3 - pq1:
                verdict = "gain"
            else:
                verdict = "no regression"
            print(f"  {name:14s} parent {pm:.6g} change {cm:.6g} {meta['unit']:7s} "
                  f"worse by {worse:+.2%} (bound {meta['bound']:.0%}) "
                  f"wins {wins}/{len(seeds)} losses {losses}: {verdict}")


def main(argv=None) -> None:
    bench = load_benchmark()
    workloads = ",".join(w["name"] for w in bench.get("workloads", []))
    seconds = float(bench.get("run_seconds", 36))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads x seeds in one checkout")
    run.add_argument("--root", default=str(HERE.parent), help="checkout to measure")
    run.add_argument("--workloads", default=workloads)
    run.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,2022")
    run.add_argument("--seconds", type=float, default=seconds)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", required=True)
    ab = sub.add_parser("ab", help="alternate parent and change runs seed by seed")
    ab.add_argument("--parent", required=True)
    ab.add_argument("--change", required=True)
    ab.add_argument("--workloads", default=workloads)
    ab.add_argument("--seeds", default="1-10")
    ab.add_argument("--seconds", type=float, default=seconds)
    ab.add_argument("--out", required=True)
    for name in ("summary", "compare"):
        p = sub.add_parser(name)
        p.add_argument("file")
    args = parser.parse_args(argv)
    if args.command == "run":
        cmd_run(args)
    elif args.command == "ab":
        cmd_ab(args)
    else:
        records = json.loads(Path(args.file).read_text())
        summarise(records) if args.command == "summary" else compare(records)


if __name__ == "__main__":
    main()
