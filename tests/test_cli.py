"""Config parsing, artifact round trips, and the command-line verbs."""

import csv
import hashlib
import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dasim import geo
from dasim.artifacts import (
    read_geocodes_csv,
    read_histogram_csv,
    read_nmf_csv,
    read_schema_json,
    verify_manifest,
    write_geocodes_csv,
    write_histogram_csv,
    write_nmf_csv,
    write_schema_json,
)
from dasim.cli import main
from dasim.config import RunConfig
from dasim.errors import ConfigError, DasimError, SchemaError
from dasim.estimators import (
    dataset_stat_table,
    estimate_bias_indep,
    estimate_bias_swap,
    estimate_mse,
    nmf_rmse_exact,
    noisy_stat_table,
    selection_for_level,
)
from dasim.histograms import DESK_SCHEMA
from dasim.noise import MIN_VARIANCE, make_noisy_measurements
from dasim.pipeline import Replicate, build_world, error_report, swap_release
from dasim.topdown import topdown_postprocess

TINY_CONFIG = {
    "config_version": 1,
    "seed": 5,
    "replicates": 2,
    "spine": {
        "states": 1,
        "counties_per_state": 1,
        "tracts_per_county": 2,
        "blockgroups_per_tract": 1,
        "blocks_per_blockgroup": 2,
        "obg_size": 2,
        "aian_tract_prob": 0.0,
    },
    "report": {"levels": ["tract"], "statistics": ["total", "hispanic"]},
}

EXAMPLE_RAW = "0531000100011065300195010011010"


def _replicates_in_memory(world):
    """Each replicate's two runs and its swap, computed here from seeds
    2r and 2r+1 off the config seed, as ``simulate`` computes them."""
    cfg, reps = world.config, []
    for r in range(cfg.replicates):
        seed_a, seed_b = cfg.seed + 2 * r, cfg.seed + 2 * r + 1
        nms_a, nms_b = (make_noisy_measurements(world.cef, world.query, seed=seed)
                        for seed in (seed_a, seed_b))
        post_a, post_b = (topdown_postprocess(nms, world.cef, cfg.postprocess, agg=world.agg)
                          for nms in (nms_a, nms_b))
        _, _, swapped = swap_release(world.cef, cfg.swap, seed_a)
        reps.append(Replicate(nms_a, post_a, post_b, swapped))
    return reps


# ----------------------------------------------------------------------
# config


def test_config_defaults_round_trip():
    cfg = RunConfig()
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert cfg.config_hash() == again.config_hash()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"config_version": 1, "sede": 3})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"config_version": 1, "spine": {"statez": 1}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"config_version": 1, "budget": {"galaxy": 4.0}})


def test_config_requires_the_right_version():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"config_version": 2})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({})


def test_config_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        RunConfig.from_file(p)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"config_version": 1, "replicates": 0})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"config_version": 1, "swap": {"base_rate": 2.0}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"config_version": 1, "query_groups": ["detail", "bogus"]})


def test_config_parses_sections():
    cfg = RunConfig.from_dict(
        {
            "config_version": 1,
            "seed": 9,
            "budget": {"block": 25.0, "tract": {"detail": 9.0, "total": 1.0, "marginal": 4.0}},
            "postprocess": {"invariants": [["county", "total"]], "integerize": False},
            "swap": {"pairing_scope": "tract"},
        }
    )
    assert cfg.seed == 9
    assert cfg.budget.variance(geo.GeoLevel.BLOCK, "detail") == 25.0
    assert cfg.budget.variance(geo.GeoLevel.TRACT, "total") == 1.0
    assert cfg.postprocess.invariants == ((geo.GeoLevel.COUNTY, "total"),)
    assert cfg.postprocess.integerize is False
    assert cfg.swap.pairing_scope is geo.GeoLevel.TRACT
    # non-uniform budgets survive a round trip
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_overrides_replace_only_what_they_say():
    cfg = RunConfig.from_dict(TINY_CONFIG)
    out = cfg.with_overrides(seed=99)
    assert out.seed == 99 and out.replicates == cfg.replicates
    assert cfg.with_overrides() == cfg


def test_config_reads_an_integer_for_a_float_field_as_a_float():
    cfg = RunConfig.from_dict({"config_version": 1, "population": {"median_block_pop": 23}})
    assert type(cfg.population.median_block_pop) is float
    assert cfg == RunConfig()
    assert '"median_block_pop": 23.0' in cfg.canonical_json()


def _config(**entries) -> bytes:
    return json.dumps({"config_version": 1, **entries}).encode()


# each of these was once read as another value or ended in a traceback:
# (config file bytes, extra flags, what the one error line must name)
_MISREAD = {
    "float states": (_config(spine={"states": 1.5}), [], "config.spine.states"),
    "float blocks": (_config(spine={"blocks_per_blockgroup": 2.0}), [],
                     "config.spine.blocks_per_blockgroup"),
    "float obg_size": (_config(spine={"obg_size": 2.5}), [], "config.spine.obg_size"),
    "string nonneg": (_config(postprocess={"nonneg": "false"}), [], "config.postprocess.nonneg"),
    "string integerize": (_config(postprocess={"integerize": "no"}), [],
                          "config.postprocess.integerize"),
    "string prefer_local": (_config(swap={"prefer_local": "no"}), [], "config.swap.prefer_local"),
    "float seed": (_config(seed=7.9), [], "config.seed"),
    "string seed": (_config(seed="7"), [], "config.seed"),
    "bool seed": (_config(seed=True), [], "config.seed"),
    "float replicates": (_config(replicates=1.5), [], "config.replicates"),
    "bool budget": (_config(budget={"block": True}), [], "config.budget.block"),
    "NaN median": (_config(population={"median_block_pop": float("nan")}), [],
                   "config.population.median_block_pop"),
    "negative seed": (_config(seed=-1), [], "seed must be in [0, 2**63)"),
    "seed past 2**63": (_config(seed=2**63), [], "seed must be in [0, 2**63)"),
    "negative --seed": (_config(), ["--seed", "-1"], "seed must be in [0, 2**63)"),
    "spine-node report level": (_config(report={"levels": ["optimized_blockgroup"]}), [],
                                "config.report: levels: optimized_blockgroup"),
    "repeated report level": (_config(report={"levels": ["county", "tract", "county"]}), [],
                              "config.report: levels: repeated county"),
    "repeated report statistic": (_config(report={"statistics": ["total", "total"]}), [],
                                  "config.report: statistics: repeated total"),
    "empty report levels": (_config(report={"levels": []}), [], "config.report: levels: empty"),
    "empty report statistics": (_config(report={"statistics": []}), [],
                                "config.report: statistics: empty"),
    # weights of 1/variance past float64's range: an eigvalsh traceback, or
    # an overflow warning and a wrong release
    **{f"block variance {v}": (_config(budget={"block": float(v)}), [],
                               f"config.budget: variance {v} for block/detail")
       for v in ("1e-306", "1e-308", "1e-320")},
    "block-group codes past 999": (
        _config(spine={"blockgroups_per_tract": 9, "blocks_per_blockgroup": 100, "obg_size": 1,
                       "tracts_per_county": 1, "counties_per_state": 1}), [], "config.spine"),
    "not UTF-8": (b'{"config_version": 1, "seed": "\xff"}', [], "cfg.json"),
    "nested too deep": (b"[" * 100_000 + b"]" * 100_000, [], "cfg.json"),
}


@pytest.mark.parametrize("body,flags,names", _MISREAD.values(), ids=list(_MISREAD))
def test_simulate_rejects_misread_config_values(tmp_path, capsys, body, flags, names):
    p = tmp_path / "cfg.json"
    p.write_bytes(body)
    argv = ["simulate", "--config", str(p), "--out", str(tmp_path / "o"), *flags]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error:") and names in line


# each was once raised inside TopDown, after simulate had written four files
_BAD_INVARIANTS = {
    "unknown label": ([["state", "nope"]], 1, "no statistic named 'nope'"),
    "off the spine": ([["blockgroup", "total"]], 1,
                      "config.postprocess: invariants: blockgroup is not an optimized-spine level"),
    "overlapping": ([["state", "voting_age"], ["state", "hispanic"]], 3,
                    "overlapping invariant supports must be nested or disjoint"),
}


@pytest.mark.parametrize("invariants,code,message", _BAD_INVARIANTS.values(),
                         ids=list(_BAD_INVARIANTS))
def test_simulate_rejects_bad_invariants_before_writing(tmp_path, capsys, invariants, code,
                                                         message):
    p, out = tmp_path / "cfg.json", tmp_path / "o"
    p.write_bytes(_config(postprocess={"invariants": invariants}))
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""  # no world: line
    assert captured.err.splitlines() == [f"error: {message}"]
    assert not out.exists() or not any(out.iterdir())


def test_overlapping_invariants_are_fine_without_integer_rounding(tmp_path):
    p = tmp_path / "cfg.json"
    overlapping = [["state", "voting_age"], ["state", "hispanic"]]
    p.write_text(json.dumps({**TINY_CONFIG, "postprocess": {"invariants": overlapping,
                                                            "integerize": False}}))
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 0


# ----------------------------------------------------------------------
# artifacts


@pytest.fixture(scope="module")
def small_world():
    cfg = RunConfig.from_dict(TINY_CONFIG)
    return build_world(cfg)


def test_geocode_csv_round_trip(tmp_path, small_world):
    write_geocodes_csv(small_world.spine, tmp_path / "g.csv")
    back = read_geocodes_csv(tmp_path / "g.csv")
    assert back.blocks == small_world.spine.blocks
    for key in (*geo.enclosing_units(back.blocks[0]), "vtd", "place"):
        assert back.unit_ids(key) == small_world.spine.unit_ids(key)


def test_histogram_csv_round_trip(tmp_path, small_world):
    write_histogram_csv(small_world.cef, tmp_path / "h.csv")
    back = read_histogram_csv(tmp_path / "h.csv", small_world.spine, DESK_SCHEMA)
    np.testing.assert_array_equal(back.counts, small_world.cef.counts)
    assert back.counts.dtype == np.int64


def test_nmf_csv_round_trip(tmp_path, small_world):
    nms = make_noisy_measurements(small_world.cef, small_world.query, seed=3)
    write_nmf_csv(nms, tmp_path / "n.csv")
    back = read_nmf_csv(tmp_path / "n.csv", small_world.query, seed=3)
    assert set(back.nodes) == set(nms.nodes)
    assert back.seed == 3
    np.testing.assert_array_equal(back.values[back.rows(nms.nodes)], nms.values)


def test_schema_json_round_trip(tmp_path):
    write_schema_json(DESK_SCHEMA, tmp_path / "s.json")
    assert read_schema_json(tmp_path / "s.json") == DESK_SCHEMA


# ----------------------------------------------------------------------
# crosswalk verb


def test_crosswalk_worked_example(tmp_path):
    src = tmp_path / "codes.txt"
    src.write_text(EXAMPLE_RAW + "\n")
    assert main(["crosswalk", str(src), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "crosswalk.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert row["block"] == "530019501001010"
    assert row["state"] == "53"
    assert row["county"] == "53001"
    assert row["tract"] == "53001950100"
    assert row["blockgroup"] == "530019501001"
    assert row["nmf_tract"] == EXAMPLE_RAW[:12]
    assert row["opt_blockgroup"] == EXAMPLE_RAW[:15]
    assert not (tmp_path / "rejects.csv").exists()


def test_crosswalk_rejects_bad_rows_with_exit_one(tmp_path):
    src = tmp_path / "codes.csv"
    src.write_text(f"geocode\n{EXAMPLE_RAW}\nnope\n")
    assert main(["crosswalk", str(src), "--out", str(tmp_path)]) == 1
    with open(tmp_path / "rejects.csv", newline="") as fh:
        rejects = list(csv.DictReader(fh))
    assert len(rejects) == 1
    assert rejects[0]["geocode"] == "nope"
    with open(tmp_path / "crosswalk.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 1


def test_crosswalk_rejects_malformed_vtd_and_place_ids(tmp_path):
    src = tmp_path / "codes.csv"
    src.write_text(f"geocode,vtd,place\n{EXAMPLE_RAW},12,abc\n{EXAMPLE_RAW},53001000001,abc\n"
                   f"{EXAMPLE_RAW},53001000001,5360000\n")
    assert main(["crosswalk", str(src), "--out", str(tmp_path)]) == 1
    with open(tmp_path / "rejects.csv", newline="") as fh:
        rejects = list(csv.DictReader(fh))
    assert [(r["line"], r["reason"]) for r in rejects] == [
        ("2", "vtd GeoId must be 11 digits, got '12'"),
        ("3", "place GeoId must be 7 digits, got 'abc'"),
    ]
    with open(tmp_path / "crosswalk.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["vtd"], r["place"]) for r in rows] == [("53001000001", "5360000")]


def test_crosswalk_missing_input_is_an_io_error(tmp_path):
    assert main(["crosswalk", str(tmp_path / "ghost.csv"), "--out", str(tmp_path)]) == 2


def test_crosswalk_rejects_an_input_that_is_not_text(tmp_path, capsys):
    src = tmp_path / "codes.csv"
    src.write_bytes(f"geocode\n{EXAMPLE_RAW}\n".encode() + b"\xff\n")
    assert main(["crosswalk", str(src), "--out", str(tmp_path)]) == 1
    assert "codes.csv" in capsys.readouterr().err


# ----------------------------------------------------------------------
# simulate and report verbs


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg_path = out / "in.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out / "art")])
    assert code == 0
    return out / "art"


def test_simulate_writes_a_verifiable_manifest(run_dir):
    assert verify_manifest(run_dir) == []
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config_sha256"] == RunConfig.from_dict(TINY_CONFIG).config_hash()
    for name in ("cef.csv", "geocodes.csv", "schema.json", "config.json"):
        assert name in manifest["files"]
    assert "nmf_r001_b.csv" in manifest["files"]


def test_manifest_catches_tampering(run_dir, tmp_path):
    import shutil

    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    p = copy / "cef.csv"
    p.write_text(p.read_text().replace(",", ",", 1) + "x")
    assert verify_manifest(copy) == ["cef.csv"]


def test_simulate_is_deterministic(run_dir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    out2 = tmp_path / "again"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    m1 = json.loads((run_dir / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1 == m2


def test_report_recomputes_identically_from_artifacts(run_dir):
    assert main(["report", "--out", str(run_dir)]) == 0
    with open(run_dir / "error_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 1 level x 2 statistics x 3 methods
    assert len(rows) == 6

    # independent recomputation straight from in-memory objects
    cfg = RunConfig.from_dict(TINY_CONFIG)
    world = build_world(cfg)
    reps = _replicates_in_memory(world)
    fresh, _ = error_report(
        world.spine, world.query, world.agg, reps,
        cfg.report.levels, cfg.report.statistics,
    )
    assert len(fresh) == len(rows)
    for got, want in zip(rows, fresh):
        assert got["level"] == want["level"]
        assert got["method"] == want["method"]
        assert float(got["estimate"]) == pytest.approx(want["estimate"], abs=1e-12)
        assert float(got["rmse"]) == pytest.approx(want["rmse"], abs=1e-12)

    payload = json.loads((run_dir / "error_report.json").read_text())
    assert len(payload) == len(rows)
    assert payload[0]["method"] == rows[0]["method"]


def test_report_pools_replicates_as_derived_by_hand(tmp_path):
    config = {**TINY_CONFIG, "replicates": 3,
              "report": {"levels": ["county", "tract", "block"],
                         "statistics": ["total", "hispanic"]}}
    p, out = tmp_path / "cfg.json", tmp_path / "out"
    p.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
    assert main(["report", "--out", str(out)]) == 0
    with open(out / "error_report.csv", newline="") as fh:
        got_rows = list(csv.DictReader(fh))
    with open(out / "quartiles.csv", newline="") as fh:
        got_quartiles = list(csv.DictReader(fh))

    cfg = RunConfig.from_dict(config)
    world = build_world(cfg)
    reps = _replicates_in_memory(world)
    R = len(reps)
    rows, quartiles = [], []
    for level in cfg.report.levels:
        for stat in cfg.report.statistics:
            sel = selection_for_level(world.spine, level, (stat,))
            per_rep = {"topdown": [], "swap": []}
            for rep in reps:
                noisy = noisy_stat_table(rep.nms_a, world.query, world.agg, world.spine, sel)
                post_a, post_b, swapped = (dataset_stat_table(ds, world.agg, sel)
                                           for ds in (rep.post_a, rep.post_b, rep.swapped))
                for method, bias, release in (
                    ("topdown", estimate_bias_indep(noisy, post_b, post_a), post_b),
                    ("swap", estimate_bias_swap(swapped, noisy), swapped),
                ):
                    per_rep[method].append((bias, estimate_mse(release, noisy),
                                            release.values - noisy.values))
            for method, items in per_rep.items():
                est = sum(b.estimate for b, _, _ in items) / R
                var = sum(b.variance for b, _, _ in items) / R**2
                half = 1.96 * math.sqrt(max(var, 0.0))
                raw = sum(m.raw for _, m, _ in items) / R
                rows.append([level.value, stat, "all", method, est, var, est - half, est + half,
                             raw, math.sqrt(max(raw, 0.0)), len(sel)])
                diffs = np.abs(np.concatenate([d for _, _, d in items]))
                quartiles.append([level.value, stat, method,
                                  *np.percentile(diffs, [25, 50, 75]), diffs.size])
            rmse = nmf_rmse_exact(noisy)
            rows.append([level.value, stat, "all", "nmf", 0.0, 0.0, 0.0, 0.0, rmse**2, rmse,
                         len(sel)])
            sigma = np.sqrt(noisy.variances)
            quartiles.append([level.value, stat, "nmf", *np.percentile(sigma, [25, 50, 75]),
                              sigma.size])

    def parsed(row, text_columns):
        return [v if i < text_columns else (int(v) if k == "n" else float(v))
                for i, (k, v) in enumerate(row.items())]

    assert [parsed(r, 4) for r in got_rows] == rows
    assert [parsed(r, 3) for r in got_quartiles] == quartiles


def test_report_reads_only_the_run_a_measurements(run_dir, monkeypatch):
    from dasim import cli

    read, real = [], cli.read_nmf_csv

    def read_nmf_csv(path, *args):
        read.append(path.name)
        return real(path, *args)

    monkeypatch.setattr(cli, "read_nmf_csv", read_nmf_csv)
    assert main(["report", "--out", str(run_dir)]) == 0
    assert read == ["nmf_r000_a.csv", "nmf_r001_a.csv"]


def test_report_honors_filters(run_dir):
    assert main([
        "report", "--out", str(run_dir), "--level", "tract", "--statistic", "total",
    ]) == 0
    with open(run_dir / "error_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert {r["statistic"] for r in rows} == {"total"}


@pytest.mark.parametrize("flags, message", [
    (["--level", "tract", "--level", "tract"], "levels: repeated tract"),
    (["--statistic", "hispanic", "--statistic", "total", "--statistic", "hispanic"],
     "statistics: repeated hispanic"),
])
def test_report_rejects_repeated_flags_before_writing(run_dir, tmp_path, capsys, flags, message):
    report_files = ("error_report.csv", "error_report.json", "quartiles.csv")
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy, ignore=lambda _, names: set(report_files) & set(names))
    assert main(["report", "--out", str(copy), *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any((copy / name).exists() for name in report_files)


def test_report_rejects_unknown_statistic(run_dir):
    assert main([
        "report", "--out", str(run_dir), "--statistic", "wizardry",
    ]) == 1


def test_report_rejects_a_statistic_the_queries_cannot_measure_before_reading(
        tmp_path, capsys, monkeypatch):
    from dasim import cli

    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**TINY_CONFIG, "query_groups": ["total"],
                             "report": {"levels": ["tract"], "statistics": ["total"]}}))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
    capsys.readouterr()
    read = []
    monkeypatch.setattr(cli, "read_nmf_csv", lambda path, *args: read.append(path))
    assert main(["report", "--out", str(out), "--statistic", "hispanic"]) == 1
    assert capsys.readouterr().err == (
        "error: statistic 'hispanic' is not derivable from query groups ('total',)\n")
    assert read == []
    assert not any((out / name).exists()
                   for name in ("error_report.csv", "error_report.json", "quartiles.csv"))


def test_report_on_missing_directory_is_an_io_error(tmp_path):
    assert main(["report", "--out", str(tmp_path / "nowhere")]) == 2


def test_simulate_runs_at_the_variance_floor(tmp_path):
    # at noise.MIN_VARIANCE no weight, Hessian or G entry overflows, and the
    # release is the one at a variance of 1e-12
    levels = [lv.value for lv in geo.NMF_LEVEL_ORDER]
    releases = []
    for variance in (MIN_VARIANCE, 1e-12):
        p, out = tmp_path / "cfg.json", tmp_path / str(variance)
        p.write_text(json.dumps({**TINY_CONFIG, "budget": dict.fromkeys(levels, variance)}))
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
        releases.append((out / "topdown_r000_a.csv").read_bytes())
    assert releases[0] == releases[1]


def test_a_report_level_without_units_is_rejected_before_reading(tmp_path, capsys,
                                                                  monkeypatch):
    from dasim import cli

    spine = {**TINY_CONFIG["spine"], "places_per_state": 0}
    p, out = tmp_path / "cfg.json", tmp_path / "o"
    p.write_text(json.dumps({**TINY_CONFIG, "spine": spine, "report": {"levels": ["place"]}}))
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: report level place has no units on this spine\n"
    assert not out.exists() or not any(out.iterdir())
    # a --level override is checked before any replicate file is read
    p.write_text(json.dumps({**TINY_CONFIG, "spine": spine}))
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
    capsys.readouterr()
    read = []
    monkeypatch.setattr(cli, "read_nmf_csv", lambda path, *args: read.append(path))
    assert main(["report", "--out", str(out), "--level", "place"]) == 1
    assert capsys.readouterr().err == "error: report level place has no units on this spine\n"
    assert read == []
    assert not any((out / name).exists()
                   for name in ("error_report.csv", "error_report.json", "quartiles.csv"))


def test_simulate_rejects_bad_config(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"config_version": 1, "bogus": True}))
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize(
    "variance", ["NaN", "Infinity", "-Infinity", "1e400", "1e38", "1e300"]
)
def test_simulate_rejects_non_finite_budgets(tmp_path, capsys, variance):
    p = tmp_path / "cfg.json"
    p.write_text('{"config_version": 1, "budget": {"block": %s}}' % variance)
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: TopDown depends on the scale of the budget; a block variance of 1e24 "
    "exits 3 with 'equality constraints are mutually inconsistent at parent "
    "001100010001101 (block children)' on a feasible problem"))
def test_simulate_runs_with_a_huge_finite_block_budget(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"config_version": 1, "budget": {"block": 1e24}}))
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1 without detail queries: a block variance of 1e12 exits 3 with 'equality "
    "constraints are mutually inconsistent at parent 001100030002102 (block children)' on a "
    "feasible problem"))
def test_simulate_runs_with_a_large_block_budget_and_no_detail_queries(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"config_version": 1, "seed": 1, "query_groups": ["total", "marginal"],
                             "budget": {"block": 1e12}}))
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 0


# exact measurements below a noisy level: the parent is fitted before its
# children's exact queries are seen, so they cannot sum to it
@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 11: exact queries at a level do not constrain its ancestors; each budget "
    "exits 3 with 'equality constraints are mutually inconsistent' on a feasible problem"))
@pytest.mark.parametrize("budget", [{"tract": 0.0}, {"block": {"total": 0.0}}],
                         ids=["tract", "block-total"])
def test_simulate_runs_with_exact_queries_below_a_noisy_level(tmp_path, budget):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"config_version": 1, "budget": budget}))
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 0


def test_quartiles_table_shape(run_dir):
    main(["report", "--out", str(run_dir)])
    with open(run_dir / "quartiles.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # 1 level x 2 statistics x 3 methods
    for row in rows:
        assert float(row["q25"]) <= float(row["q50"]) <= float(row["q75"])


@pytest.mark.parametrize("mode", ["nonneg", "integerize"])
def test_simulate_and_report_with_a_postprocess_mode_off(tmp_path, mode):
    invariants = [["state", "total"], ["tract", "voting_age"], ["optimized_blockgroup", "total"]]
    config = {**TINY_CONFIG, "postprocess": {"invariants": invariants, mode: False}}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
    assert main(["report", "--out", str(out)]) == 0
    with open(out / "error_report.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 6

    cfg = RunConfig.from_dict(config)
    world = build_world(cfg)
    spine, schema = world.spine, world.cef.schema
    dtype = np.int64 if cfg.postprocess.integerize else float
    for r in range(cfg.replicates):
        for side in "ab":
            post = read_histogram_csv(out / f"topdown_r{r:03d}_{side}.csv", spine, schema, dtype)
            if dtype is float:
                assert (post.counts % 1 != 0).any()  # the release really is continuous
            for parent_lv, child_lv in zip(geo.NMF_LEVEL_ORDER, geo.NMF_LEVEL_ORDER[1:]):
                for node, h in zip(spine.nodes_at(parent_lv), post.level_histograms(parent_lv)):
                    kids = post.node_histograms(spine.children(node))
                    np.testing.assert_allclose(kids.sum(axis=0), h, rtol=0, atol=1e-6)
            for level, label in cfg.postprocess.invariants:
                row = world.agg.row(label)
                np.testing.assert_allclose(post.level_histograms(level) @ row,
                                           world.cef.level_histograms(level) @ row,
                                           rtol=0, atol=1e-6)


# ----------------------------------------------------------------------
# fail-loud artifacts and exit codes


def _lines(path):
    return path.read_bytes().decode().split("\r\n")


def _write_lines(path, lines):
    path.write_bytes("\r\n".join(lines).encode())


def _edit_field(path, line, column, edit):
    lines = _lines(path)
    fields = lines[line].split(",")
    fields[column] = edit(fields[column])
    lines[line] = ",".join(fields)
    _write_lines(path, lines)


def test_report_rejects_files_changed_after_simulate(run_dir, tmp_path, capsys):
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    _edit_field(copy / "topdown_r000_b.csv", 1, 1, lambda v: str(int(v) + 50))
    assert main(["report", "--out", str(copy)]) == 1
    assert "topdown_r000_b.csv" in capsys.readouterr().err


@pytest.mark.parametrize("edit", ["duplicate", "unknown", "width", "non_numeric", "missing"])
def test_histogram_reader_rejects_malformed_rows(small_world, tmp_path, edit):
    write_histogram_csv(small_world.cef, tmp_path / "h.csv")
    lines = _lines(tmp_path / "h.csv")
    row = lines[1].split(",")
    if edit == "duplicate":
        lines.insert(2, ",".join([row[0], str(int(row[1]) + 7)] + row[2:]))
    elif edit == "unknown":
        lines[1] = ",".join(["9" * 31] + row[1:])
    elif edit == "width":
        lines[1] = ",".join(row[:-1])
    elif edit == "non_numeric":
        lines[1] = ",".join(row[:2] + ["x"] + row[3:])
    else:
        del lines[1]
    _write_lines(tmp_path / "h.csv", lines)
    with pytest.raises(SchemaError):
        read_histogram_csv(tmp_path / "h.csv", small_world.spine, DESK_SCHEMA)


def test_histogram_reader_keeps_float_releases(small_world, tmp_path):
    from dasim.histograms import HistogramDataset

    ds = HistogramDataset(small_world.spine, DESK_SCHEMA, small_world.cef.counts / 3.0)
    write_histogram_csv(ds, tmp_path / "f.csv")
    back = read_histogram_csv(tmp_path / "f.csv", small_world.spine, DESK_SCHEMA, float)
    np.testing.assert_array_equal(back.counts, ds.counts)
    with pytest.raises(SchemaError):
        read_histogram_csv(tmp_path / "f.csv", small_world.spine, DESK_SCHEMA)


@pytest.mark.parametrize("column,value", [(1, "5"), (2, "total"), (3, "ten"), (4, "17.0")])
def test_nmf_reader_checks_rows_against_the_query(small_world, tmp_path, column, value):
    nms = make_noisy_measurements(small_world.cef, small_world.query, seed=3)
    write_nmf_csv(nms, tmp_path / "n.csv")
    _edit_field(tmp_path / "n.csv", 2, column, lambda _: value)
    with pytest.raises(SchemaError):
        read_nmf_csv(tmp_path / "n.csv", small_world.query, seed=3)


def _csv_writer_bytes(path, header, rows) -> bytes:
    """The bytes csv.writer gives a header and rows: the reference the
    artifact writers, which format text themselves, must match."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path.read_bytes()


def test_writers_match_csv_writer_on_fields_that_need_escaping(tmp_path):
    from dasim.artifacts import NMF_COLUMNS, write_households_csv
    from dasim.histograms import CellSchema, HistogramDataset
    from dasim.noise import NoisyMeasurements, QueryMatrix
    from dasim.swapping import make_household_file

    # the marginal row ids carry the axis name: csv quotes them, and their
    # "%" must come through the NMF writer's %-formatting
    schema = CellSchema((('50% "odd", axis', 3), ("voting_age", 2), ("housing", 2)))
    q = QueryMatrix(schema)
    spine = geo.make_synthetic_spine(geo.SpineSpec(tracts_per_county=4), seed=2)
    rng = np.random.default_rng(0)
    nodes = [n for lv in geo.NMF_LEVEL_ORDER for n in spine.nodes_at(lv)][::-1]
    values = rng.integers(-10**15, 10**15, size=(len(nodes), q.n_rows))
    values[0, :4] = [-10**15 + 1, 10**15 - 1, -1, 0]
    nms = NoisyMeasurements(q, 7, tuple(nodes), values)
    write_nmf_csv(nms, tmp_path / "n.csv")
    want = _csv_writer_bytes(tmp_path / "ref.csv", NMF_COLUMNS, (
        [node, j, row_id, v, s2]
        for node, vals in sorted(zip(nodes, values.tolist()))
        for j, (row_id, v, s2) in enumerate(
            zip(q.row_ids, vals, q.variances_for(geo.node_level(node)).tolist()))))
    assert b'"marginal_50% ""odd"", axis_0"' in want
    assert (tmp_path / "n.csv").read_bytes() == want
    back = read_nmf_csv(tmp_path / "n.csv", q, seed=7)
    assert back.nodes == tuple(sorted(nodes))
    np.testing.assert_array_equal(back.values[back.rows(nodes)], nms.values)

    counts = rng.integers(0, 4, size=(len(spine.blocks), schema.size))
    floats = counts / 3.0
    floats[0, :3] = [0.1, 1e22, 5e-324]
    header = ["geocode"] + [f"cell_{i:02d}" for i in range(schema.size)]
    for ds in (HistogramDataset(spine, schema, counts), HistogramDataset(spine, schema, floats)):
        write_histogram_csv(ds, tmp_path / "h.csv")
        want = _csv_writer_bytes(tmp_path / "ref.csv", header,
                                 ([raw, *h] for raw, h in zip(spine.blocks, ds.counts.tolist())))
        assert (tmp_path / "h.csv").read_bytes() == want
    assert b",1e+22," in want

    hh = make_household_file(HistogramDataset(spine, schema, counts), seed=3)
    write_households_csv(hh, tmp_path / "hh.csv")
    starts = np.cumsum(hh.sizes) - hh.sizes
    want = _csv_writer_bytes(tmp_path / "ref.csv", ["block", "cells", "adults"], (
        [spine.blocks[b], "|".join(map(str, hh.cells[lo:lo + k].tolist())), a]
        for b, lo, k, a in zip(hh.block_rows.tolist(), starts.tolist(), hh.sizes.tolist(),
                               hh.adults.tolist())))
    assert (tmp_path / "hh.csv").read_bytes() == want


def test_json_readers_reject_deep_nesting(run_dir, tmp_path, capsys):
    deep = "[" * 100_000 + "]" * 100_000
    (tmp_path / "s.json").write_text(deep)
    with pytest.raises(SchemaError):
        read_schema_json(tmp_path / "s.json")
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    (copy / "manifest.json").write_text(deep)
    assert main(["report", "--out", str(copy)]) == 1
    assert "manifest.json" in capsys.readouterr().err


def test_verify_rejects_malformed_criteria(capsys):
    assert main(["verify", "--criteria", "x"]) == 1
    assert "--criteria" in capsys.readouterr().err


def test_simulate_rejects_report_statistics_the_queries_cannot_measure(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**TINY_CONFIG, "query_groups": ["total"]}))
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert "hispanic" in capsys.readouterr().err


# a fuzzed artifact or config either loads or fails with a documented
# error: DasimError (exit 1 or 3) or OSError (exit 2), never a traceback
_TOKENS = st.sampled_from([EXAMPLE_RAW, "geocode", "node_id", "US", "0", "1", "-3", "2.5",
                           "nan", "", "x", "total", "cell_0", "4.0", "99999999999999999999"])
_CSV_TEXT = st.lists(st.lists(_TOKENS, max_size=6).map(",".join), max_size=4).map("\n".join)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99), _TOKENS), max_size=3),
       at=st.integers(0, 99), junk=_CSV_TEXT)
def test_artifact_readers_fail_loud(small_world, tmp_path, edits, at, junk):
    nms = make_noisy_measurements(small_world.cef, small_world.query, seed=1)
    write_histogram_csv(small_world.cef, tmp_path / "h.csv")
    write_nmf_csv(nms, tmp_path / "n.csv")
    write_geocodes_csv(small_world.spine, tmp_path / "g.csv")
    write_schema_json(DESK_SCHEMA, tmp_path / "s.json")
    csv_readers = {
        "h.csv": lambda f: read_histogram_csv(f, small_world.spine, DESK_SCHEMA),
        "n.csv": lambda f: read_nmf_csv(f, small_world.query, seed=1),
        "g.csv": read_geocodes_csv,
    }
    # a byte that is not UTF-8 anywhere in a good file
    for name, read in {**csv_readers, "s.json": read_schema_json}.items():
        data = (tmp_path / name).read_bytes()
        cut = at * len(data) // 100
        (tmp_path / "fuzz").write_bytes(data[:cut] + b"\xff" + data[cut:])
        with pytest.raises(SchemaError):
            read(tmp_path / "fuzz")
    for name, read in csv_readers.items():
        lines = _lines(tmp_path / name)
        for i, j, token in edits:
            fields = lines[i % len(lines)].split(",")
            fields[j % len(fields)] = token
            lines[i % len(lines)] = ",".join(fields)
        cut = at % len(lines)
        # edited fields, a repeated row, a truncated file with junk, pure junk
        for body in (lines, lines[:cut + 1] + lines[cut:], lines[:cut] + [junk], [junk]):
            _write_lines(tmp_path / "fuzz.csv", body)
            try:
                read(tmp_path / "fuzz.csv")
            except (DasimError, OSError):
                pass
    (tmp_path / "s.json").write_text(json.dumps({"axes": [[t, t] for t in junk.split(",")]}))
    for text in ((tmp_path / "s.json").read_text(), junk):
        (tmp_path / "s.json").write_text(text)
        try:
            read_schema_json(tmp_path / "s.json")
        except DasimError:
            pass


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["states", "detail", "block", "county", "invariants", "levels",
                         "statistics", "base_rate", "pairing_scope", "nonneg"]) | st.text(max_size=3),
        inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries(
    {"config_version": st.just(1)},
    optional={key: _JSON for key in ("seed", "replicates", "spine", "population", "budget",
                                     "query_groups", "postprocess", "swap", "report")},
))
def test_config_loader_fails_loud(data):
    try:
        RunConfig.from_dict(data)
    except DasimError:
        pass


# ----------------------------------------------------------------------
# golden bytes: the default run's outputs are pinned


GOLDEN = {
    "manifest.json": "f0f0242988e1a0a4509f03f3bb3b180609ae0bbabbecc6ab9c7c99dc5d148f82",
    "error_report.csv": "c893869c22623806a12465261c6397294593417e303fc6b60e4de6b6373a37ba",
    "quartiles.csv": "1ec59d0f3cbbbcc22a03d202d6a59d66f1b58d82274a5b37a5fe63b884d1129d",
}


def test_default_run_bytes_are_pinned(tmp_path):
    out = tmp_path / "default"
    assert main(["simulate", "--out", str(out)]) == 0
    assert main(["report", "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert got == GOLDEN


# the 1,200-block mid world with two replicates: every file simulate
# writes there, each through the manifest's checksum of it
MID_MANIFESTS = {
    1: "068ab1c9722c50b9661a0e3e3360ebd8d2605b141bf2e1086f08fddd89f8f825",
    3: "c2abd63094b3ff5103f8713acd59920cab58859c5b2975a46fcf9b3aa048e810",
}


@pytest.mark.parametrize("seed", sorted(MID_MANIFESTS))
def test_mid_run_bytes_are_pinned(tmp_path, seed):
    spine = {"counties_per_state": 4, "tracts_per_county": 10,
             "blockgroups_per_tract": 3, "blocks_per_blockgroup": 10}
    p, out = tmp_path / "cfg.json", tmp_path / "out"
    p.write_text(json.dumps({"config_version": 1, "seed": seed, "replicates": 2,
                             "spine": spine}))
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest() == MID_MANIFESTS[seed]
