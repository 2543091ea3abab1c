"""Run configuration: a small, strictly-validated JSON format.

Unknown keys are errors, not warnings.  A silently ignored typo in a
budget or invariant key would change simulation results without any
visible failure, which is the worst possible behavior for a tool whose
whole point is measuring error.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Union

from . import geo
from .errors import ConfigError
from .histograms import GenerationProfile
from .noise import DEFAULT_BUDGET, QUERY_GROUPS, BudgetSchedule
from .swapping import SwapConfig
from .topdown import PostProcessConfig

CONFIG_VERSION = 1

_TOP_KEYS = {
    "config_version",
    "seed",
    "replicates",
    "spine",
    "population",
    "budget",
    "query_groups",
    "postprocess",
    "swap",
    "report",
}


def _check_keys(section: Mapping, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _dataclass_section(cls, section: Mapping, where: str):
    fields = {f.name for f in dataclasses.fields(cls)}
    _check_keys(section, fields, where)
    try:
        return cls(**section)
    except Exception as exc:
        raise ConfigError(f"bad {where} section: {exc}") from exc


def _level(name: str, where: str) -> geo.GeoLevel:
    try:
        return geo.GeoLevel.from_name(name)
    except Exception as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Everything a simulation run depends on, in one place."""

    seed: int = 0
    replicates: int = 1
    spine: geo.SpineSpec = geo.SpineSpec()
    population: GenerationProfile = GenerationProfile()
    budget: BudgetSchedule = None  # type: ignore[assignment]
    query_groups: tuple[str, ...] = QUERY_GROUPS
    postprocess: PostProcessConfig = PostProcessConfig()
    swap: SwapConfig = SwapConfig()
    report_levels: tuple[geo.GeoLevel, ...] = (
        geo.GeoLevel.COUNTY,
        geo.GeoLevel.TRACT,
    )
    report_statistics: tuple[str, ...] = ("total", "voting_age", "hispanic")

    def __post_init__(self) -> None:
        if self.budget is None:
            object.__setattr__(self, "budget", BudgetSchedule.default())
        if self.replicates < 1:
            raise ConfigError("replicates must be at least 1")
        for g in self.query_groups:
            if g not in QUERY_GROUPS:
                raise ConfigError(f"unknown query group {g!r}")

    # ------------------------------------------------------------------
    # JSON in

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunConfig":
        """Parse a config object.  Every malformed value, a wrong JSON
        type included, raises ConfigError or another DasimError."""
        try:
            return cls._parse(data)
        except (TypeError, ValueError, AttributeError, KeyError, OverflowError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc

    @classmethod
    def _parse(cls, data: Mapping) -> "RunConfig":
        if not isinstance(data, Mapping):
            raise ConfigError("config must be a JSON object")
        _check_keys(data, _TOP_KEYS, "config")
        if data.get("config_version") != CONFIG_VERSION:
            raise ConfigError(
                f"config_version must be {CONFIG_VERSION}, "
                f"got {data.get('config_version')!r}"
            )
        kwargs: dict = {}
        if "seed" in data:
            kwargs["seed"] = int(data["seed"])
        if "replicates" in data:
            kwargs["replicates"] = int(data["replicates"])
        if "spine" in data:
            kwargs["spine"] = _dataclass_section(geo.SpineSpec, data["spine"], "spine")
        if "population" in data:
            kwargs["population"] = _dataclass_section(
                GenerationProfile, data["population"], "population"
            )
        if "budget" in data:
            budget = data["budget"]
            _check_keys(budget, {lv.value for lv in geo.NMF_LEVEL_ORDER}, "budget")
            table = {
                lv: {g: float(v) for g in QUERY_GROUPS}
                for lv, v in DEFAULT_BUDGET.items()
            }
            for name, entry in budget.items():
                lv = _level(name, "budget level")
                if isinstance(entry, Mapping):
                    _check_keys(entry, set(QUERY_GROUPS), f"budget[{name}]")
                    table[lv] = {**table[lv], **{g: float(v) for g, v in entry.items()}}
                else:
                    table[lv] = {g: float(entry) for g in QUERY_GROUPS}
            try:
                kwargs["budget"] = BudgetSchedule(table)
            except Exception as exc:
                raise ConfigError(f"bad budget section: {exc}") from exc
        if "query_groups" in data:
            kwargs["query_groups"] = tuple(data["query_groups"])
        if "postprocess" in data:
            pp = data["postprocess"]
            _check_keys(pp, {"invariants", "nonneg", "integerize"}, "postprocess")
            pp_kwargs: dict = {}
            if "invariants" in pp:
                pp_kwargs["invariants"] = tuple(
                    (_level(lv, "invariant level"), str(stat))
                    for lv, stat in pp["invariants"]
                )
            if "nonneg" in pp:
                pp_kwargs["nonneg"] = bool(pp["nonneg"])
            if "integerize" in pp:
                pp_kwargs["integerize"] = bool(pp["integerize"])
            kwargs["postprocess"] = PostProcessConfig(**pp_kwargs)
        if "swap" in data:
            sw = dict(data["swap"])
            _check_keys(
                sw,
                {"base_rate", "risk_multiplier", "pairing_scope", "prefer_local"},
                "swap",
            )
            if "pairing_scope" in sw:
                sw["pairing_scope"] = _level(sw["pairing_scope"], "pairing scope")
            try:
                kwargs["swap"] = SwapConfig(**sw)
            except Exception as exc:
                raise ConfigError(f"bad swap section: {exc}") from exc
        if "report" in data:
            rep = data["report"]
            _check_keys(rep, {"levels", "statistics"}, "report")
            if "levels" in rep:
                kwargs["report_levels"] = tuple(
                    _level(n, "report level") for n in rep["levels"]
                )
            if "statistics" in rep:
                kwargs["report_statistics"] = tuple(str(s) for s in rep["statistics"])
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "RunConfig":
        text = Path(path).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # JSON out

    def to_dict(self) -> dict:
        budget_out: dict = {}
        for lv in geo.NMF_LEVEL_ORDER:
            per_group = {g: self.budget.variance(lv, g) for g in QUERY_GROUPS}
            if len(set(per_group.values())) == 1:
                budget_out[lv.value] = per_group["detail"]
            else:
                budget_out[lv.value] = per_group
        return {
            "config_version": CONFIG_VERSION,
            "seed": self.seed,
            "replicates": self.replicates,
            "spine": dataclasses.asdict(self.spine),
            "population": dataclasses.asdict(self.population),
            "budget": budget_out,
            "query_groups": list(self.query_groups),
            "postprocess": {
                "invariants": [
                    [lv.value, stat] for lv, stat in self.postprocess.invariants
                ],
                "nonneg": self.postprocess.nonneg,
                "integerize": self.postprocess.integerize,
            },
            "swap": {
                "base_rate": self.swap.base_rate,
                "risk_multiplier": self.swap.risk_multiplier,
                "pairing_scope": self.swap.pairing_scope.value,
                "prefer_local": self.swap.prefer_local,
            },
            "report": {
                "levels": [lv.value for lv in self.report_levels],
                "statistics": list(self.report_statistics),
            },
        }

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
