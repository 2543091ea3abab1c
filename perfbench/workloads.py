"""The benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the seed, times one user path per
op through the same public entry points users call, and checks every
op's output independently of the program's own readers, so a fast wrong
answer counts as a failed op.  Why each workload exists, and what a
change to each layer should do to it, is in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from dasim import artifacts, cli, estimators, geo, noise, pipeline, topdown
from dasim.config import RunConfig

# ROADMAP's "mid" world: 1,200 blocks, every other setting at its default
MID_SPINE = {"counties_per_state": 4, "tracts_per_county": 10,
             "blockgroups_per_tract": 3, "blocks_per_blockgroup": 10}
# verify check 3 runs on the default 24-block world built from seed 7
CALIBRATION_WORLD_SEED = 7


class CheckFailed(Exception):
    """An op finished but its output is wrong."""


def _quiet_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise CheckFailed(f"dasim {argv[0]} exited {rc}")


def _read_counts(path: Path) -> dict[str, np.ndarray]:
    """Block histograms from a release CSV; every count must be an integer."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    try:
        return {r[0]: np.array([int(v) for v in r[1:]], dtype=np.int64) for r in rows[1:]}
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: non-integer count ({exc})") from None


def check_release(name: str, counts: dict, world: pipeline.World) -> None:
    """Non-negative integer blocks that hold every configured invariant."""
    spine, cef = world.spine, world.cef
    if set(counts) != set(spine.blocks):
        raise CheckFailed(f"{name}: blocks do not match the spine")
    for raw, h in counts.items():
        if h.dtype != np.int64 or h.shape != (cef.schema.size,) or (h < 0).any():
            raise CheckFailed(f"{name}: block {raw} is not a non-negative integer histogram")
    for level, label in world.config.postprocess.invariants:
        row = world.agg.row(label)
        for node in spine.nodes_at(level):
            blocks = spine.nmf_blocks(node)
            got = sum(int(row @ counts[b]) for b in blocks)
            want = sum(int(row @ cef.block_histogram(b)) for b in blocks)
            if got != want:
                raise CheckFailed(f"{name}: invariant {label} at {node}: {got} != {want}")


def check_swap(name: str, counts: dict, world: pipeline.World) -> None:
    """Swapping keeps every block's total and voting-age count exactly."""
    adults = world.agg.row("voting_age")
    for raw in world.spine.blocks:
        h, truth = counts[raw], world.cef.block_histogram(raw)
        if h.sum() != truth.sum() or adults @ h != adults @ truth:
            raise CheckFailed(f"{name}: block {raw} total or voting age changed")


def _sha(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(artifacts.sha256_file(p).encode())
    return h.hexdigest()


def mid_config(seed: int) -> dict:
    return {"config_version": 1, "seed": seed, "replicates": 1, "spine": MID_SPINE}


class _Workload:
    # every op repeats the same input, so every op must write the same bytes
    repeatable = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.world: pipeline.World | None = None


class SimulateMid(_Workload):
    """``dasim simulate`` on the mid world; one op is one replicate."""

    name = "simulate-mid"
    # repeats over a few seconds, so that the median outlasts short swings
    # in machine speed
    setup_repeats = 25

    def setup(self) -> None:
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(mid_config(self.seed)))
        self.world = pipeline.build_world(RunConfig.from_file(self.config_path))

    def op(self, i: int) -> Path:
        out = self.workdir / f"run{i}"
        _quiet_cli(["simulate", "--config", str(self.config_path), "--out", str(out)])
        return out

    def check(self, out: Path) -> str:
        try:
            bad = artifacts.verify_manifest(out)
            if bad:
                raise CheckFailed(f"manifest mismatch: {bad}")
            releases = ["topdown_r000_a.csv", "topdown_r000_b.csv"]
            for name in releases:
                check_release(name, _read_counts(out / name), self.world)
            check_swap("swap_r000.csv", _read_counts(out / "swap_r000.csv"), self.world)
            return _sha(out / n for n in releases + ["swap_r000.csv"])
        finally:
            # outside the op's timer, so deleting its output is not timed
            shutil.rmtree(out, ignore_errors=True)


class CalibrationDesk(_Workload):
    """Verify check 3's loop; one op is one replicate pair."""

    name = "calibration-desk"
    repeatable = False
    # a set-up takes milliseconds; repeats over about half a second steady
    # its median
    setup_repeats = 201

    def setup(self) -> None:
        self.world = pipeline.build_world(RunConfig(seed=CALIBRATION_WORLD_SEED))
        codes = sorted(self.world.spine.units_at(geo.GeoLevel.BLOCK))
        half = tuple(geo.GeoId(geo.GeoLevel.BLOCK, c) for c in codes[: len(codes) // 2])
        self.selection = estimators.GeoSelection(half, ("total",))
        # pair i measures with seeds base + 2i and base + 2i + 1
        self.base = self.seed * 1_000_000

    def op(self, i: int):
        w, sel = self.world, self.selection
        nms_a = noise.make_noisy_measurements(w.cef, w.query, seed=self.base + 2 * i)
        nms_b = noise.make_noisy_measurements(w.cef, w.query, seed=self.base + 2 * i + 1)
        post_a = topdown.topdown_postprocess(nms_a, w.cef)
        post_b = topdown.topdown_postprocess(nms_b, w.cef)
        noisy_a = estimators.noisy_stat_table(nms_a, w.query, w.agg, w.spine, sel)
        table_a = estimators.dataset_stat_table(post_a, w.agg, sel)
        table_b = estimators.dataset_stat_table(post_b, w.agg, sel)
        bias = estimators.estimate_bias_indep(noisy_a, table_b, table_a)
        mse = estimators.estimate_mse(table_b, noisy_a)
        return post_a, post_b, bias, mse

    def check(self, result) -> str:
        post_a, post_b, bias, mse = result
        h = hashlib.sha256()
        for name, post in (("release a", post_a), ("release b", post_b)):
            counts = {raw: post.block_histogram(raw) for raw in self.world.spine.blocks}
            check_release(name, counts, self.world)
            for raw in self.world.spine.blocks:
                h.update(counts[raw].tobytes())
        values = (bias.estimate, bias.variance, mse.raw)
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"non-finite estimate {values}")
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (SimulateMid, CalibrationDesk)}


def describe_world(world: pipeline.World) -> dict:
    """Exact input-size counts, so a size change is never read as a speed change."""
    spine, cfg = world.spine, world.config
    C = world.cef.schema.size
    order = geo.NMF_LEVEL_ORDER
    exact = {lv: int((world.query.variances_for(lv) == 0).sum()) for lv in order}
    # an invariant declared at a level is held at that level and every level above
    depth = {lv: i for i, lv in enumerate(order)}
    labels = {lv: {lab for dec, lab in cfg.postprocess.invariants if depth[dec] >= depth[lv]}
              for lv in order}
    # TopDown solves the root alone, then one KKT system per parent with
    # k > 1 children: k*C unknowns, C parent sums, and per child its exact
    # query rows and invariant rows
    groups = [(1, C + exact[order[0]] + len(labels[order[0]]))]
    for parent_lv, child_lv in zip(order, order[1:]):
        for parent in spine.nodes_at(parent_lv):
            k = len(spine.children(parent))
            if k > 1:
                groups.append((k, k * C + C + k * (exact[child_lv] + len(labels[child_lv]))))
    return {
        "blocks": len(spine.blocks),
        "persons": world.cef.total_population,
        "cells": C,
        "nodes": {lv.value: len(spine.nodes_at(lv)) for lv in order},
        "topdown_groups": len(groups),
        "max_children": max(k for k, _ in groups),
        "max_kkt_dim": max(d for _, d in groups),
    }
