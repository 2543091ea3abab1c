"""File formats: every artifact a run writes, and how to read it back.

All artifacts are plain CSV or JSON, deterministic byte for byte given
the same inputs (no timestamps, stable orderings, fixed float
formatting), so identical runs produce identical files and the manifest
checksums actually mean something.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import geo
from .errors import DasimError, SchemaError
from .histograms import CellSchema, HistogramDataset
from .noise import NoisyMeasurements, QueryMatrix
from .swapping import HouseholdFile

PathLike = Union[str, Path]


def sha256_file(path: PathLike) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _fmt(x: float) -> str:
    """Canonical float formatting: no trailing noise, round-trip safe."""
    return repr(float(x))


# ----------------------------------------------------------------------
# spine


def write_geocodes_csv(spine: geo.Spine, path: PathLike) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["geocode", "vtd", "place"])
        w.writerows(zip(spine.blocks, spine.unit_ids("vtd"), spine.unit_ids("place")))


def read_text(path: PathLike) -> str:
    """A file's text; bytes that do not decode are a SchemaError naming it."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not a text file ({exc})") from None


def read_geocodes_csv(path: PathLike) -> geo.Spine:
    r = csv.DictReader(read_text(path).splitlines())
    if r.fieldnames is None or "geocode" not in r.fieldnames:
        raise SchemaError(f"{path}: expected a geocode column")
    return geo.Spine(
        (row["geocode"], row.get("vtd") or None, row.get("place") or None) for row in r
    )


# ----------------------------------------------------------------------
# histograms (enumeration, post-processed, swapped)


def _histogram_header(size: int) -> list[str]:
    width = len(str(size - 1))
    return ["geocode"] + [f"cell_{i:0{width}d}" for i in range(size)]


def write_histogram_csv(ds: HistogramDataset, path: PathLike) -> None:
    """One row per block in spine order; integer counts as integers,
    float counts in round-trip form (csv writes floats by repr)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_histogram_header(ds.schema.size))
        w.writerows([raw, *h] for raw, h in zip(ds.spine.blocks, ds.counts.tolist()))


def _csv_rows(path: PathLike, header: Sequence[str]):
    """(line number, row) pairs of a CSV whose header must be ``header``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != list(header):
                raise SchemaError(f"{path}: header is not {','.join(header)}")
            for row in reader:
                yield reader.line_num, row
        except (csv.Error, UnicodeDecodeError) as exc:
            raise SchemaError(f"{path}: unreadable CSV ({exc})") from None


def read_histogram_csv(
    path: PathLike,
    spine: geo.Spine,
    schema: CellSchema,
    dtype: type = np.int64,
    kind: str = "dataset",
    run_seed: Optional[int] = None,
) -> HistogramDataset:
    """Read a dataset written by write_histogram_csv.  Every spine block
    must appear exactly once, with one ``dtype`` count per cell."""
    size = schema.size
    counts = np.zeros((len(spine.blocks), size), dtype=dtype)
    seen = np.zeros(len(spine.blocks), dtype=bool)
    for line, row in _csv_rows(path, _histogram_header(size)):
        raw = row[0] if row else ""
        i = spine.block_index.get(raw)
        if i is None:
            raise SchemaError(f"{path}:{line}: {raw!r} is not a block of the spine")
        if seen[i]:
            raise SchemaError(f"{path}:{line}: second row for block {raw}")
        if len(row) != size + 1:
            raise SchemaError(f"{path}:{line}: {len(row) - 1} counts, the schema has {size}")
        try:
            counts[i] = np.array(row[1:]).astype(dtype)
        except (ValueError, OverflowError):
            raise SchemaError(
                f"{path}:{line}: block {raw} has a count that is not {np.dtype(dtype).name}"
            ) from None
        seen[i] = True
    if not seen.all():
        raise SchemaError(f"{path}: {int((~seen).sum())} spine blocks missing")
    return HistogramDataset(spine, schema, counts, kind, run_seed)


# ----------------------------------------------------------------------
# noisy measurements

NMF_COLUMNS = ("node_id", "row_index", "row_id", "value", "variance")


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it inside a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-3]


_NMF_RUN = 64  # nodes formatted by one % call: bounds the text held at once


def write_nmf_csv(nms: NoisyMeasurements, path: PathLike) -> None:
    """One row per (node, query row), nodes in sorted order.  A node's
    rows differ from another's at its level only in the node id and the
    values, so each level's rows are one %-template formatted once, the
    node's escaped id goes between its rows, and each run of _NMF_RUN
    nodes takes its values in one % call."""
    q = nms.query
    mids = [f",{i},{_csv_field(row_id)},".replace("%", "%%")
            for i, row_id in enumerate(q.row_ids)]
    rows = {lv: [f"{m}%d,{_fmt(s2)}\r\n" for m, s2 in zip(mids, q.variances_for(lv))]
            for lv in geo.NMF_LEVEL_ORDER}
    order = sorted(range(len(nms.nodes)), key=nms.nodes.__getitem__)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(NMF_COLUMNS)
        for lo in range(0, len(order), _NMF_RUN):
            run = order[lo:lo + _NMF_RUN]
            text = []
            for node in (nms.nodes[i] for i in run):
                head = _csv_field(node).replace("%", "%%")
                text.append(head + head.join(rows[geo.node_level(node)]))
            fh.write("".join(text) % tuple(nms.values[run].ravel().tolist()))


def read_nmf_csv(
    path: PathLike, q: QueryMatrix, seed: Optional[int]
) -> NoisyMeasurements:
    """Read measurements written by write_nmf_csv.  Each node's rows must
    come together and run through the query's rows in order, by index and
    by id, each with the variance the budget gives the node's level.  The
    file is streamed, and each node's rows are parsed at once."""
    n_rows = q.n_rows
    expected = [[str(i), row_id] for i, row_id in enumerate(q.row_ids)]
    per_node: dict[str, np.ndarray] = {}
    block: list[tuple[int, list[str]]] = []  # the current node's (line, row)s
    for line, row in _csv_rows(path, NMF_COLUMNS):
        if len(row) != len(NMF_COLUMNS):
            raise SchemaError(f"{path}:{line}: {len(row)} fields, want {len(NMF_COLUMNS)}")
        i, node = len(block), block[0][1][0] if block else row[0]
        if row[0] != node or row[1:3] != expected[i] or (not block and node in per_node):
            of = f"of node {node}" if block else "of a node not seen before"
            raise SchemaError(f"{path}:{line}: want row {i} ({q.row_ids[i]}) {of}, "
                              f"got row {row[1]} ({row[2]}) of node {row[0]}")
        block.append((line, row))
        if i + 1 < n_rows:
            continue
        lines, rows = zip(*block)
        block = []
        try:
            want = q.variances_for(geo.node_level(node)).tolist()
            per_node[node] = np.array([int(r[3]) for r in rows], dtype=np.int64)
            variances = [float(r[4]) for r in rows]
        except (DasimError, ValueError, OverflowError):
            raise SchemaError(f"{path}:{lines[0]}-{lines[-1]}: node {node!r} is not a spine "
                              f"node, or has a value beyond int64 or a non-number") from None
        bad = next((ln for ln, v, w in zip(lines, variances, want) if v != w), None)
        if bad is not None:
            raise SchemaError(f"{path}:{bad}: node {node} has a variance other than its budget's")
    if block:
        raise SchemaError(f"{path}: node {node} has {len(block)} rows, query needs {n_rows}")
    values = np.array(list(per_node.values()), dtype=np.int64).reshape(len(per_node), n_rows)
    return NoisyMeasurements(q, seed, tuple(per_node), values)


# ----------------------------------------------------------------------
# households


_HOUSEHOLD_SLICE = 1 << 16  # tokens joined per write: bounds the text held at once


def write_households_csv(hhfile: HouseholdFile, path: PathLike) -> None:
    """One row per household: block, member cells joined by ``|``, and
    voting-age count.

    The rows are written from one token array whose entries all point
    at shared strings (the geocodes and a table of numerals), so no
    string per person is made, and are joined _HOUSEHOLD_SLICE tokens per
    write, so no string the size of the file is made either.  Household
    h with k members takes 2k + 4 tokens: block, ",", then cell and "|"
    per member with the last "|" replaced by ",", then adults and the
    line end.
    """
    sizes = hhfile.sizes
    ends = np.cumsum(sizes)
    households = np.arange(len(sizes))
    numerals = np.arange(max(hhfile.schema.size, int(sizes.max(initial=0)) + 1))
    numerals = numerals.astype(str).astype(object)
    first = 2 * (ends - sizes) + 4 * households  # each household's block
    last = first + 2 * sizes  # its last member's cell
    tokens = np.full(2 * len(hhfile.cells) + 4 * len(sizes), "|", dtype=object)
    tokens[first] = np.array(hhfile.spine.blocks, dtype=object)[hhfile.block_rows]
    tokens[first + 1] = ","
    tokens[2 * np.arange(len(hhfile.cells)) + 4 * np.repeat(households, sizes) + 2] = (
        numerals[hhfile.cells]
    )
    tokens[last + 1] = ","
    tokens[last + 2] = numerals[hhfile.adults]
    tokens[last + 3] = "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write("block,cells,adults\r\n")
        for lo in range(0, len(tokens), _HOUSEHOLD_SLICE):
            fh.write("".join(tokens[lo:lo + _HOUSEHOLD_SLICE].tolist()))


# ----------------------------------------------------------------------
# crosswalk

CROSSWALK_COLUMNS = geo.CROSSWALK_COLUMNS
REJECT_COLUMNS = ("line", "geocode", "reason")


def write_table_csv(path: PathLike, columns: Sequence[str], rows: Sequence[Mapping]) -> None:
    """A header, then each row's value per column: a missing or None value
    is empty, a float (numpy's too) is in repr form, round-trip safe."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows([row.get(col) for col in columns] for row in rows)


# ----------------------------------------------------------------------
# error report

REPORT_COLUMNS = (
    "level",
    "statistic",
    "bin",
    "method",
    "estimate",
    "variance",
    "ci_lo",
    "ci_hi",
    "raw_mse",
    "rmse",
    "n",
)


def write_error_report_json(rows: Sequence[Mapping], path: PathLike) -> None:
    payload = [{col: row.get(col) for col in REPORT_COLUMNS} for row in rows]
    Path(path).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


QUARTILE_COLUMNS = ("level", "statistic", "method", "q25", "q50", "q75", "n")


# ----------------------------------------------------------------------
# schema and manifest


def write_schema_json(schema: CellSchema, path: PathLike) -> None:
    payload = {"axes": [[name, card] for name, card in schema.axes]}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_schema_json(path: PathLike) -> CellSchema:
    text = read_text(path)
    try:
        return CellSchema(tuple((str(n), int(c)) for n, c in json.loads(text)["axes"]))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise SchemaError(f"{path}: not a cell schema ({exc!r})") from None


def write_manifest(out_dir: PathLike, config_hash: str, file_names: Sequence[str]) -> None:
    out = Path(out_dir)
    manifest = {
        "format": "dasim-run",
        "config_sha256": config_hash,
        "files": {name: sha256_file(out / name) for name in sorted(file_names)},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def read_manifest(out_dir: PathLike) -> dict:
    try:
        manifest = json.loads((Path(out_dir) / "manifest.json").read_text())
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{out_dir}: manifest.json is not JSON ({exc})") from None
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if not isinstance(files, dict) or not all(isinstance(v, str) for v in files.values()):
        raise SchemaError(f"{out_dir}: manifest.json lists no file checksums")
    return manifest


def verify_manifest(out_dir: PathLike) -> list[str]:
    """Names of files whose checksum no longer matches the manifest."""
    out = Path(out_dir)
    bad = []
    for name, digest in read_manifest(out_dir)["files"].items():
        p = out / name
        if not p.is_file() or sha256_file(p) != digest:
            bad.append(name)
    return bad
