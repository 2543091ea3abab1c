"""Run configuration: a small, strictly-validated JSON format.

Unknown keys are errors, not warnings.  A silently ignored typo in a
budget or invariant key would change simulation results without any
visible failure, which is the worst possible behavior for a tool whose
whole point is measuring error.

The JSON mirrors the dataclasses: one reader and one writer walk them by
their field types, so a key is declared once, as a field.  A ``bool``
is a JSON bool, an ``int`` a JSON integer that is not a bool, a
``float`` any finite JSON number (stored as a float), a ``GeoLevel`` a
level name, a ``tuple`` an array read element by element, and a nested
dataclass an object whose keys must all be its fields.  Each dataclass
checks its own values.  Only the budget has a shape of its own: per
level, one variance or a mapping of query group to variance.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Collection, Mapping, Optional, Union

from . import geo
from .errors import ConfigError, DasimError, ParameterError
from .histograms import GenerationProfile
from .noise import DEFAULT_BUDGET, QUERY_GROUPS, BudgetSchedule
from .swapping import SwapConfig
from .topdown import PostProcessConfig

CONFIG_VERSION = 1


@dataclass(frozen=True)
class ReportSpec:
    """What ``dasim report`` estimates when no flag says otherwise."""

    levels: tuple[geo.GeoLevel, ...] = (geo.GeoLevel.COUNTY, geo.GeoLevel.TRACT)
    statistics: tuple[str, ...] = ("total", "voting_age", "hispanic")

    def __post_init__(self) -> None:
        for level in self.levels:
            if level not in geo.GEOID_WIDTH:  # the levels Spine.units_at serves
                raise ParameterError(f"levels: {level.value} has no GEOID units "
                                     "(optimized block groups are spine nodes)")
        # an empty list would leave the report without rows, and a repeated
        # entry would repeat its report rows
        for key, names in (("levels", [lv.value for lv in self.levels]),
                           ("statistics", list(self.statistics))):
            if not names:
                raise ParameterError(f"{key}: empty, so the report would have no rows")
            repeated = sorted({n for n in names if names.count(n) > 1})
            if repeated:
                raise ParameterError(f"{key}: repeated {', '.join(repeated)}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a simulation run depends on, in one place."""

    seed: int = 0
    replicates: int = 1
    spine: geo.SpineSpec = geo.SpineSpec()
    population: GenerationProfile = GenerationProfile()
    budget: BudgetSchedule = field(default_factory=BudgetSchedule.default)
    query_groups: tuple[str, ...] = QUERY_GROUPS
    postprocess: PostProcessConfig = PostProcessConfig()
    swap: SwapConfig = SwapConfig()
    report: ReportSpec = ReportSpec()

    def __post_init__(self) -> None:
        # replicate r draws seeds seed + 2r and seed + 2r + 1, and noise
        # streams key on a seed's low 64 bits: below 2**63 none wraps
        if not 0 <= self.seed < 2**63:
            raise ConfigError(f"seed must be in [0, 2**63), got {self.seed}")
        if self.replicates < 1:
            raise ConfigError("replicates must be at least 1")
        for g in self.query_groups:
            if g not in QUERY_GROUPS:
                raise ConfigError(f"unknown query group {g!r}")

    @classmethod
    def from_dict(cls, data: Any) -> "RunConfig":
        """Parse a config object.  Every malformed value, a wrong JSON
        type included, raises ConfigError naming its key path."""
        if not isinstance(data, Mapping):
            raise _wrong("config", "an object", data)
        version = data.get("config_version")
        if type(version) is not int or version != CONFIG_VERSION:
            raise _wrong("config.config_version", str(CONFIG_VERSION), version)
        return _read(cls, {k: v for k, v in data.items() if k != "config_version"}, "config")

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "RunConfig":
        try:
            data = json.loads(Path(path).read_text())
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise ConfigError(f"config {path} is not a JSON file: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {"config_version": CONFIG_VERSION, **_write(self)}

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def with_overrides(
        self, seed: Optional[int] = None, replicates: Optional[int] = None
    ) -> "RunConfig":
        out = self
        if seed is not None:
            out = dataclasses.replace(out, seed=int(seed))
        if replicates is not None:
            out = dataclasses.replace(out, replicates=int(replicates))
        return out


# ----------------------------------------------------------------------
# JSON in


_EXPECTED = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _wrong(path: str, expected: str, value: Any) -> ConfigError:
    return ConfigError(f"{path}: expected {expected}, got {json.dumps(value, default=repr)}")


def _object(value: Any, keys: Collection[str], path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise _wrong(path, "an object", value)
    unknown = [k for k in value if k not in keys]
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    return value


def _build(path: str, make: Callable, *args: Any, **kwargs: Any) -> Any:
    """``make(*args, **kwargs)``, its value checks failing as a ConfigError at ``path``."""
    try:
        return make(*args, **kwargs)
    except DasimError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _read(tp: Any, value: Any, path: str) -> Any:
    """A parsed JSON value as an instance of the field type ``tp``."""
    if tp is BudgetSchedule:
        return _read_budget(value, path)
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return _build(path, tp, **{k: _read(hints[k], v, f"{path}.{k}")
                                   for k, v in _object(value, hints, path).items()})
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise _wrong(path, "an array", value)
        types = typing.get_args(tp)
        if types[-1] is Ellipsis:
            types = types[:1] * len(value)
        elif len(types) != len(value):
            raise _wrong(path, f"an array of {len(types)}", value)
        return tuple(_read(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(types, value)))
    if tp is geo.GeoLevel:
        return _build(path, geo.GeoLevel.from_name, _read(str, value, path))
    if tp is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            pass  # still an int, so rejected below
    if type(value) is not tp or (tp is float and not math.isfinite(value)):
        raise _wrong(path, _EXPECTED[tp], value)
    return value


def _read_budget(value: Any, path: str) -> BudgetSchedule:
    """Per level one variance for every query group, or a mapping of some
    groups to variances; every level and group left out keeps its default."""
    levels = {lv.value: lv for lv in geo.NMF_LEVEL_ORDER}
    table = {lv: dict.fromkeys(QUERY_GROUPS, float(v)) for lv, v in DEFAULT_BUDGET.items()}
    for name, entry in _object(value, levels, path).items():
        where = f"{path}.{name}"
        if isinstance(entry, Mapping):
            for g, v in _object(entry, QUERY_GROUPS, where).items():
                table[levels[name]][g] = _read(float, v, f"{where}.{g}")
        else:
            table[levels[name]] = dict.fromkeys(QUERY_GROUPS, _read(float, entry, where))
    return _build(path, BudgetSchedule, table)


# ----------------------------------------------------------------------
# JSON out


def _write(value: Any) -> Any:
    """The JSON form of a field value; a budget level whose groups share
    one variance collapses to that number."""
    if isinstance(value, BudgetSchedule):
        out = {}
        for lv in geo.NMF_LEVEL_ORDER:
            per_group = {g: value.variance(lv, g) for g in QUERY_GROUPS}
            out[lv.value] = per_group["detail"] if len(set(per_group.values())) == 1 else per_group
        return out
    if dataclasses.is_dataclass(value):
        return {f.name: _write(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_write(v) for v in value]
    if isinstance(value, geo.GeoLevel):
        return value.value
    return value
