"""Command-line entry points: gen-table, run, optimize."""

import argparse
import os
import sys
from dataclasses import fields

from .config import SpecError, load_spec
from .control import OptimizerParams, optimize_for_distance
from .modem import DEFAULT_DATA_RATES_GBPS, MODULATIONS, BerTable
from .sim import run_simulation
from .tablegen import TableModel, generate_table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thzlink",
        description="Adaptive coding/modulation link simulator and codec tools")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-table", help="write the synthetic default BER table")
    gen.add_argument("--out", required=True, help="output CSV path")
    model = TableModel()
    gen.add_argument("--d-min", type=float, default=model.d_min_m)
    gen.add_argument("--d-max", type=float, default=model.d_max_m)
    gen.add_argument("--step", type=float, default=model.d_step_m)
    gen.add_argument("--path-loss-exp", type=float, default=model.path_loss_exp)
    gen.add_argument("--absorption-db-per-m", type=float, default=model.absorption_db_per_m)
    gen.add_argument("--anchor-distance", type=float, default=model.anchor_distance_m)
    gen.add_argument("--anchor-ber", type=float, default=model.anchor_ber)

    run = sub.add_parser("run", help="run a full simulation scenario")
    run.add_argument("--spec", help="run-spec file (flat key = value lines)")
    run.add_argument("--table", help="BER table CSV (overrides the spec)")
    run.add_argument("--seed", type=int, help="random seed (overrides the spec)")
    run.add_argument("--duration", type=float, help="simulated seconds (overrides the spec)")
    run.add_argument("--out", help="directory for metrics.csv and events.log")

    opt = sub.add_parser("optimize", help="one-shot candidate report for a distance")
    opt.add_argument("--table", required=True, help="BER table CSV")
    opt.add_argument("--distance", type=float, required=True, help="distance in meters")
    for f in fields(OptimizerParams):
        opt.add_argument(f"--{f.name.replace('_', '-')}", type=int, default=f.default)
    return parser


def _cmd_gen_table(args) -> int:
    model = TableModel(d_min_m=args.d_min, d_max_m=args.d_max, d_step_m=args.step,
                       path_loss_exp=args.path_loss_exp,
                       absorption_db_per_m=args.absorption_db_per_m,
                       anchor_distance_m=args.anchor_distance,
                       anchor_ber=args.anchor_ber)
    table = generate_table(model)
    table.to_csv(args.out)
    anchor = table.lookup(model.anchor_distance_m, MODULATIONS[0])
    rows = len(table.distances) * len(MODULATIONS)
    print(f"wrote {args.out}: {rows} rows "
          f"({len(table.distances)} distances x {len(MODULATIONS)} modulations)")
    print(f"anchor: BPSK at {model.anchor_distance_m:g} m -> {anchor:.6g} "
          f"(target {model.anchor_ber:g})")
    return 0


def _cmd_run(args) -> int:
    pairs: dict[str, str] = {}
    if args.table is not None:
        pairs["table_path"] = args.table
    if args.seed is not None:
        pairs["seed"] = str(args.seed)
    if args.duration is not None:
        pairs["duration_s"] = str(args.duration)
    if args.out is not None:
        pairs["metrics_path"] = os.path.join(args.out, "metrics.csv")
        pairs["events_path"] = os.path.join(args.out, "events.log")
    try:
        spec = load_spec(args.spec or None, pairs)
    except OSError as exc:
        print(f"error: cannot read spec file: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
    try:
        table = BerTable.from_csv(spec.table_path)
    except OSError as exc:
        print(f"error: cannot read table_path: {exc}", file=sys.stderr)
        return 2
    records = run_simulation(spec, table)
    print(f"wrote {spec.metrics_path} ({len(records)} dwell records) "
          f"and {spec.events_path}")
    return 0


def _cmd_optimize(args) -> int:
    params = OptimizerParams(**{f.name: getattr(args, f.name)
                                for f in fields(OptimizerParams)})
    table = BerTable.from_csv(args.table)
    candidates, chosen = optimize_for_distance(table, args.distance,
                                               DEFAULT_DATA_RATES_GBPS, params)
    print(f"distance {args.distance:g} m")
    for mod in MODULATIONS:
        print(f"  p_e[{mod.label}] = {table.lookup(args.distance, mod):.6g}")
    print("candidates:")
    for (scheme, mod), cand in candidates.items():
        tag = f"  {scheme:4s} {mod.label:5s}"
        if cand is None:
            print(f"{tag} infeasible")
            continue
        geom = f"s={cand.s}" if cand.s is not None else f"m={cand.m},n={cand.n}"
        print(f"{tag} K={cand.k_bits} R={cand.r_bits} {geom} "
              f"R_F={cand.code_rate:.6f} TH={cand.throughput_gbps:.4f} Gbps")
    print(f"selected: {chosen.describe()} K={chosen.k_bits} R={chosen.r_bits} "
          f"R_F={chosen.code_rate:.6f} TH={chosen.throughput_gbps:.4f} Gbps")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen-table":
            return _cmd_gen_table(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_optimize(args)
    except (SpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
