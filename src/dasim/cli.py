"""Command-line interface.

Verbs:
  crosswalk  translate 31-digit block geocodes to standard identifiers
  simulate   build a synthetic world and run the full pipeline
  report     compute error estimates from a simulate output directory
  verify     run the built-in verification suite

Exit codes: 0 success, 1 rejected or invalid data, 2 file problems or a
replicate worker that died without a result, 3 infeasible constraints
during post-processing.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import geo
from .artifacts import (
    CROSSWALK_COLUMNS,
    QUARTILE_COLUMNS,
    REJECT_COLUMNS,
    REPORT_COLUMNS,
    read_geocodes_csv,
    read_histogram_csv,
    read_nmf_csv,
    read_schema_json,
    read_text,
    verify_manifest,
    write_error_report_json,
    write_geocodes_csv,
    write_histogram_csv,
    write_households_csv,
    write_manifest,
    write_nmf_csv,
    write_schema_json,
    write_table_csv,
)
from .config import ReportSpec, RunConfig
from .errors import DasimError, InfeasibleConstraints, ParameterError
from .histograms import default_statistics
from .noise import QueryMatrix
from .pipeline import (Replicate, build_world, check_report_levels, error_report,
                       replicate_seeds, run_replicate)

from . import __version__


# ----------------------------------------------------------------------
# crosswalk


def _crosswalk_row(raw: str, vtd: str = "", place: str = "") -> dict[str, str]:
    units = geo.enclosing_units(raw)
    for level, code in ((geo.GeoLevel.VTD, vtd), (geo.GeoLevel.PLACE, place)):
        if code:
            geo.GeoId(level, code)  # raises on a malformed id, as Spine does
    return {**units, "geocode": raw, "vtd": vtd, "place": place}


def _read_geocode_input(path: Path) -> list[tuple[int, str, str, str]]:
    """(line number, geocode, vtd, place) tuples from CSV or bare lines."""
    lines = read_text(path).splitlines()
    if not lines:
        return []
    if "geocode" in lines[0]:
        out = []
        reader = csv.DictReader(lines)
        for i, row in enumerate(reader, start=2):
            out.append(
                (i, (row.get("geocode") or "").strip(),
                 (row.get("vtd") or "").strip(), (row.get("place") or "").strip())
            )
        return out
    return [
        (i, line.strip(), "", "")
        for i, line in enumerate(lines, start=1)
        if line.strip()
    ]


def cmd_crosswalk(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = _read_geocode_input(Path(args.input))
    rows, rejects = [], []
    for line, raw, vtd, place in records:
        try:
            rows.append(_crosswalk_row(raw, vtd, place))
        except DasimError as exc:
            rejects.append({"line": str(line), "geocode": raw, "reason": str(exc)})
    write_table_csv(out_dir / "crosswalk.csv", CROSSWALK_COLUMNS, rows)
    print(f"crosswalk.csv: {len(rows)} rows")
    if rejects:
        write_table_csv(out_dir / "rejects.csv", REJECT_COLUMNS, rejects)
        print(f"rejects.csv: {len(rejects)} rows rejected", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# simulate


def _rep_names(r: int) -> dict[str, str]:
    tag = f"r{r:03d}"
    return {
        "nmf_a": f"nmf_{tag}_a.csv",
        "nmf_b": f"nmf_{tag}_b.csv",
        "post_a": f"topdown_{tag}_a.csv",
        "post_b": f"topdown_{tag}_b.csv",
        "swap": f"swap_{tag}.csv",
        "households": f"households_{tag}.csv",
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    cfg = cfg.with_overrides(seed=args.seed, replicates=args.replicates)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    world = build_world(cfg)
    print(
        f"world: {len(world.spine.blocks)} blocks, {world.cef.total_population} persons, "
        f"seed {cfg.seed}, {cfg.replicates} replicate(s)"
    )

    (out_dir / "config.json").write_text(cfg.canonical_json())
    write_schema_json(world.cef.schema, out_dir / "schema.json")
    write_geocodes_csv(world.spine, out_dir / "geocodes.csv")
    write_histogram_csv(world.cef, out_dir / "cef.csv")
    files = ["config.json", "schema.json", "geocodes.csv", "cef.csv"]

    for r in range(cfg.replicates):
        names = _rep_names(r)

        def write_run(run, nms, post):
            write_nmf_csv(nms, out_dir / names[f"nmf_{run}"])
            write_histogram_csv(post, out_dir / names[f"post_{run}"])

        households, stats, swapped = run_replicate(world, r, write_run)
        write_histogram_csv(swapped, out_dir / names["swap"])
        write_households_csv(households, out_dir / names["households"])
        files.extend(names.values())
        print(
            f"replicate {r}: seeds {replicate_seeds(cfg.seed, r)}, "
            f"swapped {stats.n_swapped}/{stats.n_households} households "
            f"({stats.n_unpaired} unpaired)"
        )

    write_manifest(out_dir, cfg.config_hash(), files)
    print(f"wrote {len(files) + 1} files to {out_dir}")
    return 0


# ----------------------------------------------------------------------
# report


def _load_replicates(out_dir: Path, cfg: RunConfig, spine, schema, q) -> list[Replicate]:
    release_dtype = np.int64 if cfg.postprocess.integerize else float
    reps = []
    for r in range(cfg.replicates):
        names = _rep_names(r)
        seed_a, seed_b = replicate_seeds(cfg.seed, r)

        def release(name, kind, seed, dtype=release_dtype):
            return read_histogram_csv(out_dir / names[name], spine, schema, dtype, kind, seed)

        reps.append(
            Replicate(
                nms_a=read_nmf_csv(out_dir / names["nmf_a"], q, seed_a),
                post_a=release("post_a", "postprocessed", seed_a),
                post_b=release("post_b", "postprocessed", seed_b),
                swapped=release("swap", "swapped", seed_a, np.int64),
            )
        )
    return reps


def cmd_report(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    bad = verify_manifest(out_dir)
    if bad:
        print(f"error: files changed since simulate wrote {out_dir}: {', '.join(bad)}",
              file=sys.stderr)
        return 1
    cfg = RunConfig.from_file(out_dir / "config.json")
    spine = read_geocodes_csv(out_dir / "geocodes.csv")
    schema = read_schema_json(out_dir / "schema.json")
    q = QueryMatrix(schema, cfg.budget, cfg.query_groups)
    agg = default_statistics(schema)

    spec = ReportSpec(
        tuple(geo.GeoLevel.from_name(n) for n in args.level) if args.level else cfg.report.levels,
        tuple(args.statistic) if args.statistic else cfg.report.statistics,
    )
    for s in spec.statistics:
        if s not in agg.labels:
            raise ParameterError(
                f"unknown statistic {s!r}; available: {', '.join(agg.labels)}"
            )
    q.check_coverage(agg, spec.statistics)
    check_report_levels(spine, spec.levels)

    reps = _load_replicates(out_dir, cfg, spine, schema, q)
    rows, quartiles = error_report(spine, q, agg, reps, spec.levels, spec.statistics)
    write_table_csv(out_dir / "error_report.csv", REPORT_COLUMNS, rows)
    write_error_report_json(rows, out_dir / "error_report.json")
    write_table_csv(out_dir / "quartiles.csv", QUARTILE_COLUMNS, quartiles)

    for row in rows:
        half = row["ci_hi"] - row["estimate"]
        print(
            f"{row['level']}/{row['statistic']} {row['method']:>8}: "
            f"bias {row['estimate']:+8.3f} +- {half:6.3f}   "
            f"rmse {row['rmse']:8.3f}   n={row['n']}"
        )
    print(f"wrote error_report.csv, error_report.json, quartiles.csv to {out_dir}")
    return 0


# ----------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    from . import acceptance

    wanted = None
    if args.criteria:
        try:
            wanted = {int(c) for c in args.criteria.split(",")}
        except ValueError:
            raise ParameterError(
                f"--criteria wants comma-separated check numbers, got {args.criteria!r}"
            ) from None
    results = acceptance.run_all(wanted)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(r.line())
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dasim",
        description="Desk-scale simulator and error estimators "
        "for census disclosure-avoidance pipelines.",
    )
    parser.add_argument("--version", action="version", version=f"dasim {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("crosswalk", help="translate block geocodes to standard ids")
    p.add_argument("input", help="CSV with a geocode column, or one geocode per line")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_crosswalk)

    p = sub.add_parser("simulate", help="run the full synthetic pipeline")
    p.add_argument("--config", help="JSON config file (defaults apply without it)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--replicates", type=int, help="override the replicate count")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="estimate errors from simulate artifacts")
    p.add_argument("--out", required=True, help="directory simulate wrote to")
    p.add_argument("--level", action="append", help="standard level (repeatable)")
    p.add_argument("--statistic", action="append", help="statistic label (repeatable)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--criteria", help="comma-separated subset, e.g. 1,5,9")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleConstraints as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DasimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
