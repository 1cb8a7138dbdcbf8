"""thzlink benchmark: run one workload and report its metrics.

    python3 perfbench/run.py --workload scenario-default --seed 1 --seconds 36 --trace 0

One caller in a closed loop, single thread: a pass (one `LinkSimulation.run`,
or one round of `residual_error_experiment` calls) starts only after the
previous one ends. Each pass runs in a fresh process that sets up from
scratch, as a user's run does, so set-up time and peak RSS are measured once
per pass, and no pass inherits the allocator state of the one before. The
seed builds the inputs; passes repeat the same inputs until `--seconds` is
used up, so the simulated outputs of every pass must be byte-identical and
only host time and memory vary. See perfbench/README.md for the workloads,
metrics and the parent/change comparison.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: end-to-end metrics with `--trace 0`,
per-layer metrics with `--trace 1`. A full report is written to
`.perfbench_out/` under the repository root.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import ExitStack, nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

MIN_PASSES = 3  # untraced passes, even when one pass outlasts --seconds
TRACE_SEED = 1  # mobility trace of both scenarios; the workload seed drives the rest


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "scenario" | "codec"
    default_seed: int
    held_out_seed: int
    duration_s: float = 0.0     # scenario: simulated seconds
    min_distance_m: float = 0.0  # scenario: grid points below this are left out
    t_rs: int = 1


WORKLOADS = {
    w.name: w for w in (
        Workload("scenario-default", "scenario", 1, 2022, duration_s=1600.0),
        Workload("scenario-lossy-t2", "scenario", 1, 20260811, duration_s=400.0,
                 min_distance_m=5.0, t_rs=2),
        Workload("codec-sweep", "codec", 1, 7),
    )
}


def load_benchmark() -> dict:
    """BENCHMARK.json: run length and metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


# Pinned codec geometries: (s, r_symbols, generations, batch) for RS at full
# length L = 2^s - 1, (m, n, generations, batch) for MDPC. Generation counts
# give each geometry a comparable share of a pass at the seed commit.
RS_GEOMETRIES = ((12, 2, 500, 100), (8, 4, 1400, 500), (4, 2, 400_000, 2000))
MDPC_GEOMETRIES = ((30, 2, 24_000, 2000), (10, 3, 5000, 500))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float,
                        default=float(load_benchmark()["run_seconds"]),
                        help="host seconds to spend on measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced pass")
    parser.add_argument("--child", metavar="RUN_DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- inputs -------------------------------------------------------------------


def build_trace(workload: Workload):
    """`generate_trace` with the pinned trace seed over the workload's grid.

    The trace is a prefix of the trace a user's run with seed TRACE_SEED
    would follow, so dwells last 180-420 s and walks go at 1 m/s, as in any
    run. It is the same for every workload seed: the host time of a random
    trace hinges on how long it stays near 3.5-4.5 m (23 s at seed 1 and
    89 s at seed 2022 for 6060 s), which would swamp the figures.
    """
    from thzlink.sim import DISTANCE_GRID_M, generate_trace

    grid = DISTANCE_GRID_M[DISTANCE_GRID_M >= workload.min_distance_m]
    return generate_trace(TRACE_SEED, workload.duration_s, grid=grid)


def codec_geometries():
    """(label, LinkConfig, p_e, generations, batch) per pinned geometry."""
    from thzlink.control import SCHEME_MDPC, SCHEME_RS, LinkConfig
    from thzlink.modem import DEFAULT_DATA_RATES_GBPS, Modulation

    rate = DEFAULT_DATA_RATES_GBPS[Modulation.BPSK]
    out = []
    for s, r, gens, batch in RS_GEOMETRIES:
        length = 2 ** s - 1
        t = r // 2
        cfg = LinkConfig(SCHEME_RS, Modulation.BPSK, s * (length - r), s * r,
                         rate, s=s)
        # L * P_s = t with P_s = 1 - (1 - p_e)^s.
        p_e = 1.0 - (1.0 - t / length) ** (1.0 / s)
        out.append((f"RS(s={s},r={r},L={length})", cfg, p_e, gens, batch))
    for m, n, gens, batch in MDPC_GEOMETRIES:
        t = 2 ** (n - 1) - 1
        cfg = LinkConfig(SCHEME_MDPC, Modulation.BPSK, m ** n,
                         (m + 1) ** n - m ** n, rate, m=m, n=n)
        out.append((f"MDPC(m={m},n={n})", cfg, t / (m + 1) ** n, gens, batch))
    return out


class ScenarioInputs:
    """Trace, spec and table for one scenario run; set-up spans go to `tracer`."""

    def __init__(self, workload: Workload, seed: int, table_path: Path,
                 run_dir: Path, tracer):
        from thzlink.config import parse_spec
        from thzlink.modem import BerTable

        with tracer.span("sim.trace"):
            self.trace = build_trace(workload)
        text = (f"table_path = {table_path}\n"
                f"seed = {seed}\n"
                f"duration_s = {workload.duration_s!r}\n"
                f"t_rs = {workload.t_rs}\n"
                f"metrics_path = {run_dir / 'metrics.csv'}\n"
                f"events_path = {run_dir / 'events.log'}\n")
        with tracer.span("config.parse"):
            self.spec = parse_spec(text, source="perfbench")
        with tracer.span("modem.table_load"):
            self.table = BerTable.from_csv(self.spec.table_path)

    def simulation(self):
        from thzlink.sim import LinkSimulation
        return LinkSimulation(self.spec, self.table, self.trace)


def codeword_bits_by_label(spec, table) -> dict:
    """Codeword bits for every configuration the controller can activate.

    The controller only emits the optimizer's choice at a grid distance, and
    starts from the boot configuration, so these labels cover the interval
    log. A label that maps to two sizes would make the bit count ambiguous.
    """
    from thzlink.control import initial_link_config, optimize_for_distance

    configs = [initial_link_config(spec.rate_gbps)]
    params = spec.optimizer_params()
    for d in table.distances:
        configs.append(optimize_for_distance(table, float(d), spec.rate_gbps,
                                             params)[1])
    sizes: dict = {}
    for cfg in configs:
        size = cfg.k_bits + cfg.r_bits
        if sizes.setdefault(cfg.describe(), size) != size:
            raise RuntimeError(f"label {cfg.describe()} has two codeword sizes")
    return sizes


# -- one pass, in a fresh process -----------------------------------------------


class Checks:
    def __init__(self):
        self.run = 0
        self.failed: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.run += 1
        if not ok:
            self.failed.append(name)


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def interval_mix(trace, interval_log) -> dict:
    """Intervals per active config label, while walking, and stale in a dwell.

    A dwell interval is stale when its active config is not the one the
    dwell ends on: the controller has not yet applied the config for the new
    distance.
    """
    labels: dict = {}
    walking = stale = 0
    groups: dict = {}
    idx = 0
    for now, label, _ in interval_log:
        labels[label] = labels.get(label, 0) + 1
        idx = trace.phase_index_at(now, idx)
        groups.setdefault(idx, []).append(label)
    for idx, group in groups.items():
        if trace.phases[idx].kind == "walk":
            walking += len(group)
        else:
            stale += sum(1 for label in group if label != group[-1])
    return {"intervals_walking": walking, "intervals_stale": stale,
            "intervals_by_config": dict(sorted(labels.items()))}


def peak_rss_mb() -> float:
    """VmHWM of this address space; ru_maxrss also counts what ran before exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced(tracer):
    """Patch the traced names and open the root span, or do nothing."""
    if tracer is None:
        return nullcontext()
    stack = ExitStack()
    stack.enter_context(tracer.install())
    stack.enter_context(tracer.span("sim.body"))
    return stack


def scenario_pass(inputs: ScenarioInputs, sim, tracer, checks: Checks) -> dict:
    spec = inputs.spec
    t0 = perf_counter()
    with traced(tracer):
        records = sim.run(metrics_path=spec.metrics_path, events_path=spec.events_path)
    wall = perf_counter() - t0
    rss = peak_rss_mb()

    with open(spec.metrics_path) as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]
    checks.check("metrics.csv has rows", len(rows) > 0)
    checks.check("generations_sent == error_free + corrected + failed", all(
        int(r["generations_sent"]) == int(r["generations_error_free"])
        + int(r["generations_corrected"]) + int(r["generations_failed"])
        for r in rows))
    checks.check("code_rate in [0.25, 1]",
                 all(0.25 <= float(r["code_rate"]) <= 1.0 for r in rows))
    checks.check("no 8PSK on the default table",
                 all(r["modulation"] != "8PSK" for r in rows))

    bits_by_label = codeword_bits_by_label(spec, inputs.table)
    batch = spec.generations_per_interval
    mbit = sum(batch * bits_by_label[label] for _, label, _ in sim.interval_log) / 1e6
    sent = sum(r.generations_sent for r in records)
    return {
        "wall_s": wall,
        "peak_rss_mb": rss,
        "mbit": mbit,
        "digest": file_digest(spec.metrics_path, spec.events_path),
        "intervals": len(sim.interval_log),
        "control_units": sim.controller.total_units,
        "simulated": {
            "dwell_records": len(records),
            "generations_sent": sent,
            "generations_error_free": sum(r.generations_error_free for r in records),
            "generations_corrected": sum(r.generations_corrected for r in records),
            "generations_failed": sum(r.generations_failed for r in records),
            # Per-dwell p_re weighted by generations sent in the dwell.
            "p_re": (sum(r.p_re_empirical * r.generations_sent for r in records)
                     / sent if sent else 0.0),
            "configs_emitted": sim.controller.generations,
            "intervals": len(sim.interval_log),
            **interval_mix(sim.trace, sim.interval_log),
        },
    }


def codec_pass(geometries, seed: int, max_iterations: int, tracer,
               checks: Checks) -> dict:
    from thzlink.sim import residual_error_experiment

    per_geometry = {}
    t0 = perf_counter()
    with traced(tracer):
        for i, (label, cfg, p_e, gens, batch) in enumerate(geometries):
            g0 = perf_counter()
            stats = residual_error_experiment(
                cfg, p_e, gens, seed * 10 + i, batch_size=batch,
                mdpc_max_iterations=max_iterations)
            per_geometry[label] = (perf_counter() - g0, stats)
    wall = perf_counter() - t0
    rss = peak_rss_mb()

    digest = hashlib.sha256()
    simulated = {}
    for label, (_, st) in per_geometry.items():
        checks.check(f"{label}: within_budget_failures == 0",
                     st.within_budget_failures == 0)
        checks.check(f"{label}: data_failures <= exceed_injected",
                     st.data_failures <= st.exceed_injected)
        fields = {
            "generations": st.generations,
            "t_budget": st.t_budget,
            "within_budget_failures": st.within_budget_failures,
            "exceed_injected": st.exceed_injected,
            "data_failures": st.data_failures,
            "empirical_exceed_rate": st.empirical_exceed_rate,
            "theoretical_tail": st.theoretical_tail,
        }
        digest.update(f"{label}:{sorted(fields.items())!r}\n".encode())
        simulated[label] = fields
    return {
        "wall_s": wall,
        "peak_rss_mb": rss,
        "mbit": sum(gens * (cfg.k_bits + cfg.r_bits)
                    for _, cfg, _, gens, _ in geometries) / 1e6,
        "digest": digest.hexdigest(),
        "geometry_wall_s": {label: w for label, (w, _) in per_geometry.items()},
        "simulated": simulated,
    }


def child_main(args, workload: Workload, seed: int) -> int:
    """Set up and run one pass, as a user's run would; print its result as JSON."""
    from spans import SELF_TIME_METRICS, SETUP_METRICS, Tracer

    run_dir = Path(args.child)
    pass_dir = run_dir / "pass"
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir()
    setup_tracer = Tracer()
    tracer = Tracer() if args.trace else None
    checks = Checks()
    if workload.kind == "scenario":
        inputs = ScenarioInputs(workload, seed, run_dir / "table.csv", pass_dir,
                                setup_tracer)
        sim = inputs.simulation()
        setup_s = perf_counter() - T_START
        result = scenario_pass(inputs, sim, tracer, checks)
    else:
        from thzlink.config import RunSpec
        geometries = codec_geometries()
        max_iterations = RunSpec(table_path="").mdpc_max_iterations
        setup_s = perf_counter() - T_START
        result = codec_pass(geometries, seed, max_iterations, tracer, checks)
    result["setup_s"] = setup_s
    result["checks"] = {"run": checks.run, "failed": checks.failed}
    if tracer is not None:
        layers = {metric: tracer.self_s.get(span, 0.0)
                  for span, metric in SELF_TIME_METRICS.items()}
        layers.update({metric: setup_tracer.self_s.get(span, 0.0)
                       for span, metric in SETUP_METRICS.items()})
        layers.update(tracer.counts)
        starts = tracer.update_starts
        result["layers"] = layers
        result["interval_gaps_ms"] = [(b - a) * 1e3 for a, b in zip(starts, starts[1:])]
    print(json.dumps(result))
    return 0


# -- a run: passes in fresh processes until the time is used ---------------------


def run_children(args, seed: int, run_dir: Path, trace: int, seconds: float,
                 min_passes: int) -> list:
    """Start one pass process after another until the next would overrun `seconds`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(seed), "--trace", str(trace), "--child", str(run_dir)]
    results = []
    begin = perf_counter()
    while True:
        t0 = perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"pass process failed ({done.returncode}):\n{done.stderr}")
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        now = perf_counter()
        if len(results) >= min_passes and (now - begin) + (now - t0) > seconds:
            return results


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def host_metric(values: list, unit: str, what: str) -> dict:
    q1, q3 = quartiles(values)
    return {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3,
            "samples": values, "what": what}


def layer_metrics(traced: list, untraced: list, names) -> dict:
    """Per-layer metrics: means over the traced passes, gaps pooled."""
    from spans import SELF_TIME_METRICS

    n = len(traced)
    out = {name: 0.0 for name in names}
    for r in traced:
        for name, value in r["layers"].items():
            out[name] += value / n
        out["sim.intervals"] += r.get("intervals", 0) / n
        out["control.units"] += r.get("control_units", 0) / n
    gaps = [g for r in traced for g in r["interval_gaps_ms"]]
    if len(gaps) >= 2:
        out["sim.interval_ms_p50"] = statistics.median(gaps)
        out["sim.interval_ms_p99"] = statistics.quantiles(gaps, n=100)[98]
    if out["rs.decode_rows"]:
        out["rs.dirty_ratio"] = out["rs.dirty_rows"] / out["rs.decode_rows"]
    out["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    out["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["_self_sum_s"] = sum(out[m] for m in SELF_TIME_METRICS.values())
    out["_traced_wall_mean_s"] = sum(r["wall_s"] for r in traced) / n
    return out


def self_check(workload: Workload, layers: dict, checks: Checks) -> None:
    """Fail when a metric reads zero on the workload meant to exercise it."""
    wall = layers["_traced_wall_mean_s"]
    checks.check("self times sum to the traced wall",
                 abs(layers["_self_sum_s"] - wall) <= 1e-3 * wall)
    if workload.kind == "scenario":
        checks.check("control.updates == sim.intervals",
                     layers["control.updates"] == layers["sim.intervals"] > 0)
        checks.check("modem.flip_calls == sim.intervals (sim's names patched)",
                     layers["modem.flip_calls"] == layers["sim.intervals"])
    if workload.name == "scenario-default":
        checks.check("modem.intervals_sparse > 0", layers["modem.intervals_sparse"] > 0)
        checks.check("rs.pack_mbit > 0", layers["rs.pack_mbit"] > 0)
        checks.check("rs.encode_rows > 0", layers["rs.encode_rows"] > 0)
    if workload.name == "scenario-lossy-t2":
        checks.check("rs.syndromes_calls > rs.decode_calls (per-row re-verification)",
                     layers["rs.syndromes_calls"] > layers["rs.decode_calls"] > 0)
    if workload.kind == "codec":
        checks.check("mdpc.decode_rows > 0", layers["mdpc.decode_rows"] > 0)
        checks.check("mdpc.iterations > 0", layers["mdpc.iterations"] > 0)
        checks.check("rs.decode_rows > 0", layers["rs.decode_rows"] > 0)
        checks.check("modem.transmit_s > 0 (sim's names patched)",
                     layers["modem.transmit_s"] > 0 and layers["modem.flip_calls"] > 0)


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    text=True, capture_output=True, timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "git_dirty": dirty,
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
    }


def run_main(args, workload: Workload, seed: int) -> int:
    from thzlink.tablegen import generate_table

    spec = load_benchmark()

    # Paths are the same in every run of a workload and seed: the RSS
    # high-water mark moves by ~10 % with small changes in what the process
    # allocates, its argument strings included.
    run_dir = OUT_DIR / f"run-{workload.name}-seed{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        generate_table().to_csv(run_dir / "table.csv")
        if args.trace:
            untraced = run_children(args, seed, run_dir, 0, args.seconds / 2, 2)
            traced_ = run_children(args, seed, run_dir, 1, args.seconds / 2, 1)
        else:
            untraced = run_children(args, seed, run_dir, 0, args.seconds, MIN_PASSES)
            traced_ = []
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = untraced + traced_
    checks = Checks()
    for r in passes:
        checks.run += r["checks"]["run"]
        checks.failed += r["checks"]["failed"]
    digests = {r["digest"] for r in passes}
    checks.check("output digest identical across passes", len(digests) == 1)
    layers = None
    if traced_:
        layers = layer_metrics(traced_, untraced, metric_units(spec, "per_layer"))
        self_check(workload, layers, checks)

    host = {
        "wall_s": host_metric([r["wall_s"] for r in untraced], "s",
                              "one pass of the workload body"),
        "mbit_per_s": host_metric([r["mbit"] / r["wall_s"] for r in untraced], "Mbit/s",
                                  "modelled channel bits per host second of a pass"),
        "peak_rss_mb": host_metric([r["peak_rss_mb"] for r in untraced], "MB",
                                   "VmHWM of a process that ran set-up and one pass"),
        "setup_s": host_metric([r["setup_s"] for r in untraced], "s",
                               "first statement to first interval (scenarios) or "
                               "first residual_error_experiment call (codec-sweep)"),
    }
    if workload.kind == "codec":
        host["geometry_wall_s"] = {
            label: statistics.median(r["geometry_wall_s"][label] for r in untraced)
            for label in untraced[0]["geometry_wall_s"]}
    report = {
        "workload": workload.name,
        "seed": seed,
        "default_seed": workload.default_seed,
        "held_out_seed": workload.held_out_seed,
        "seed_role": ("default" if seed == workload.default_seed else
                      "held-out" if seed == workload.held_out_seed else "other"),
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": {"untraced": len(untraced), "traced": len(traced_)},
        "environment": environment(),
        "host": host,
        "simulated": {"digest": sorted(digests)[0], "distinct_digests": len(digests),
                      "modelled_mbit_per_pass": untraced[0]["mbit"],
                      "per_pass": untraced[0]["simulated"]},
        "checks": {"run": checks.run, "failed": checks.failed},
        "layers": layers,
    }
    return finish(args, workload, seed, report, spec)


def finish(args, workload: Workload, seed: int, report: dict, spec: dict) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload.name}-seed{seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    env = report["environment"]
    print(f"# workload {workload.name}  seed {seed} ({report['seed_role']}; default "
          f"{workload.default_seed}, held-out {workload.held_out_seed})  trace {args.trace}")
    print(f"# env python {env['python']} numpy {env['numpy']} nproc {env['nproc']} "
          f"cpu {env['cpu_model']!r} commit {env['git_commit']} dirty {env['git_dirty']}")
    end_to_end = metric_units(spec, "end_to_end")
    per_layer = metric_units(spec, "per_layer")
    for name, unit in end_to_end.items():
        m = report["host"][name]
        print(f"# host       {name:12s} {m['value']:.6g} {unit}  (median of "
              f"n={len(m['samples'])} pass processes; q1 {m['q1']:.6g}, q3 {m['q3']:.6g})")
    sim = report["simulated"]
    print(f"# simulated  digest {sim['digest'][:16]}  modelled Mbit/pass "
          f"{sim['modelled_mbit_per_pass']:.6g}")
    print(f"# simulated  {json.dumps(sim['per_pass'], sort_keys=True)}")
    layers = report["layers"]
    if layers:
        from spans import SELF_TIME_METRICS

        wall = layers["_traced_wall_mean_s"]
        print(f"# layers     traced wall {wall:.4g} s = sum of self times "
              f"{layers['_self_sum_s']:.4g} s; overhead {layers['trace.overhead_s']:+.4g} s")
        for name, unit in per_layer.items():
            share = (f"  {100 * layers[name] / wall:5.1f} % of traced wall"
                     if name in SELF_TIME_METRICS.values() else "")
            print(f"# layer      {name:24s} {layers[name]:.6g} {unit}{share}")
    checks = report["checks"]
    print(f"# checks     {checks['run']} run, {len(checks['failed'])} failed"
          + "".join(f"\n#   FAILED {name}" for name in checks["failed"]))
    print(f"# report     {path.relative_to(ROOT)}")

    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in per_layer.items()}
    else:
        metrics = {name: {"value": report["host"][name]["value"], "unit": unit}
                   for name, unit in end_to_end.items()}
    failed = len(checks["failed"])
    print(json.dumps({"correct": failed == 0, "attempted": checks["run"],
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "thzlink" / "__init__.py").is_file():
        print(f"perfbench: no thzlink sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # numpy advises huge pages for arrays of 4 MB and more; whether the host
    # grants them decides the RSS high-water mark, which then swings by a
    # third between identical runs. Small pages keep peak_rss_mb repeatable.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if args.child is not None:
        return child_main(args, workload, seed)
    return run_main(args, workload, seed)


if __name__ == "__main__":
    sys.exit(main())
