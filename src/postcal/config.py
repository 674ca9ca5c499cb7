"""Structured run configuration: one YAML document, sections per subsystem.

This module owns every key path: each section, ``simulate:`` included, is
parsed here into typed values, and every exit-2 message about a missing,
mistyped or malformed key names its path (list entries as ``cells[0]``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError
from .frame import CellFilter, CellQuery, TierLabel
from .hb import McmcConfig
from .io import BandRule, ColumnRoles

# a stratified draw takes at least 2 units from every stratum
MIN_STRATUM_SIZE = 2
# the one stratum covariate of a generated population
SIMULATED_COVARIATE = "z"
# libyaml's parser where PyYAML was built with it: the same dict, ~10x faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True)
class ModelConfig:
    """Hierarchical model choice for one calibration variable."""

    variable: str
    kind: str  # "binary" or "gaussian"
    prior_df: float = 1.0
    prior_scale: float = 1.0
    covariates: tuple[str, ...] = ()
    fixed_sigma2: float | None = None

    def __post_init__(self):
        where = f"models.{self.variable}"
        if self.kind not in ("binary", "gaussian"):
            raise ConfigError(f"{where}: kind must be 'binary' or 'gaussian'")
        # zero switches the binary stratum effects off; the Gaussian model needs a variance
        s2 = self.fixed_sigma2
        if s2 is not None and not (s2 > 0 or (s2 == 0 and self.kind == "binary")):
            bound = ">= 0" if self.kind == "binary" else "> 0"
            raise ConfigError(
                f"{where}.fixed_sigma2: expected {bound} for the {self.kind} model, got {s2}"
            )


@dataclass(frozen=True)
class StratumPlan:
    """One population stratum: size, domain membership, model covariate."""

    id: str
    domain: str
    population_size: int
    covariate: float = 0.0
    deff: float = 1.0


@dataclass(frozen=True)
class BinaryVariableModel:
    """Stratum-level logit model for a binary calibration variable.

    ``exclusive_with`` forces the variable to 0 wherever an earlier binary
    variable is 1 (for example unemployment within employment).
    """

    name: str
    intercept: float
    slope: float = 0.0
    stratum_sd: float = 0.0
    exclusive_with: str | None = None


@dataclass(frozen=True)
class ContinuousVariableModel:
    """Gaussian unit-level model with optional stratum effects and gating."""

    name: str
    mean: float
    unit_sd: float
    slope: float = 0.0
    stratum_sd: float = 0.0
    clip: tuple[float | None, float | None] = (None, None)
    gated_by: str | None = None


@dataclass(frozen=True)
class AttributeModel:
    """Categorical attribute with optionally domain-tilted level shares."""

    name: str
    levels: tuple[tuple[str, float], ...]
    domain_tilt: float = 0.0

    def __post_init__(self):
        probs = [p for _, p in self.levels]
        # a domain's shares p * (1 +- tilt) stay >= 0 up to |tilt| = 1, where
        # the odd or the even levels get 0 and the others must hold a share
        t = abs(self.domain_tilt)
        tilt_ok = t < 1 or t == 1 and any(probs[::2]) and any(probs[1::2])
        if not all(0 <= p <= 1 for p in probs) or not abs(sum(probs) - 1.0) <= 1e-9 or not tilt_ok:
            raise ConfigError(
                f"attribute {self.name!r}: level probabilities must lie in [0, 1] and sum to 1, "
                f"and domain_tilt in [-1, 1] must leave every domain a level with a positive share"
            )

    def domain_probs(self, domain_position: int) -> np.ndarray:
        probs = np.array([p for _, p in self.levels])
        if self.domain_tilt:
            k = np.arange(len(probs))
            tilt = np.where((k + domain_position) % 2 == 0, 1.0, -1.0)
            probs = probs * (1.0 + self.domain_tilt * tilt)
            probs = probs / probs.sum()
        return probs


@dataclass(frozen=True)
class OutcomeModel:
    """Outcome with a controllable population correlation to a variable."""

    name: str
    link: str
    rho: float
    loc: float = 0.0
    scale: float = 1.0


@dataclass(frozen=True)
class SyntheticPopulationSpec:
    domains: tuple[str, ...]
    strata: tuple[StratumPlan, ...]
    variables: tuple[BinaryVariableModel | ContinuousVariableModel, ...]
    attributes: tuple[AttributeModel, ...] = ()
    outcomes: tuple[OutcomeModel, ...] = ()
    seed: int = 0


@dataclass(frozen=True)
class SimulateConfig:
    """The ``simulate`` section: the population and the experiment size."""

    population: SyntheticPopulationSpec
    replications: int = 200
    sampling_fraction: float = 0.05
    target_mode: str = "hb"  # "hb" or "truth" (bypass fitting, pin to truth)

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError("simulate.mc.replications must be >= 1")
        if not 0.0 < self.sampling_fraction <= 1.0:
            raise ConfigError(
                f"simulate.mc.sampling_fraction must be in (0, 1], got {self.sampling_fraction}"
            )
        if self.target_mode not in ("hb", "truth"):
            raise ConfigError("simulate.mc.target_mode must be 'hb' or 'truth'")


@dataclass
class RunConfig:
    """Validated configuration for one command invocation."""

    seed: int
    raw: dict
    records_path: Path | None = None
    strata_path: Path | None = None
    roles: ColumnRoles | None = None
    domain_order: tuple[str, ...] | None = None
    band_rules: tuple[BandRule, ...] = ()
    models: dict[str, ModelConfig] = field(default_factory=dict)
    mcmc: McmcConfig = McmcConfig()
    rhat_threshold: float = 1.2
    cells: tuple[CellQuery, ...] = ()
    level: float = 0.95
    simulate: SimulateConfig | None = None

    def __post_init__(self):
        # R-hat is floored at 1: a lower threshold fails every fit, NaN none
        if not 1.0 <= self.rhat_threshold < np.inf:
            raise ConfigError(
                f"mcmc.rhat_threshold: expected a finite value >= 1.0, got {self.rhat_threshold}"
            )
        if not 0.0 < self.level < 1.0:
            raise ConfigError("report.level must be in (0, 1)")

    @property
    def config_hash(self) -> str:
        return config_hash(self.raw, self.seed)


def config_hash(raw: dict, seed: int) -> str:
    canonical = json.dumps(
        {"config": raw, "seed": seed}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _mapping(value, where: str) -> dict:
    """``value`` as a section: null is empty, a non-mapping a ConfigError."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping, got {value!r}")
    return value


def _section(parent: dict, key: str, where: str) -> dict:
    """The sub-mapping ``parent[key]``, empty when absent or null."""
    return _mapping(parent.get(key), where)


def _require(section: dict, key: str, where: str):
    if key not in _mapping(section, where):
        raise ConfigError(f"{where}: missing required key {key!r}")
    return section[key]


def _convert(value, kind, where: str):
    """``kind(value)``; a value of the wrong type is a ConfigError naming
    ``where``."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{where}: expected {kind.__name__}, got {value!r}"
        ) from None


def integer(value) -> int:
    """``int(value)`` that neither truncates nor reads a boolean: 3, 3.0 and
    "3" are 3; 2.9, NaN and true are a ValueError."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return int(value)


def string(value) -> str:
    """``value`` if it is a ``str``, else a TypeError."""
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def real(value) -> float:
    """``float(value)`` that is finite and does not read a boolean: 2, 2.5
    and "2.5" are 2.0 and 2.5; NaN, an infinity and true are a ValueError
    (``float(True)`` would be 1.0).  Null, not an infinity, is an open end."""
    if isinstance(value, bool) or not np.isfinite(value := float(value)):
        raise ValueError(value)
    return value


def positive(value) -> float:
    """``real(value)`` that is > 0: zero and a negative value are a
    ValueError."""
    value = real(value)
    if not value > 0:
        raise ValueError(value)
    return value


def nonnegative(value) -> float:
    """``real(value)`` that is >= 0: a negative value is a ValueError."""
    value = real(value)
    if not value >= 0:
        raise ValueError(value)
    return value


def within(lo: float, hi: float):
    """The kind ``real`` in [lo, hi], named for the refusal it makes."""

    def kind(value) -> float:
        if not lo <= (value := real(value)) <= hi:
            raise ValueError(value)
        return value

    kind.__name__ = f"a real in [{lo:g}, {hi:g}]"
    return kind


def _typed(section: dict, key: str, kind, where: str = "", minimum=None):
    """``kind`` of ``section[key]``; a missing, mistyped or below-``minimum``
    value is a ConfigError naming ``where.key``."""
    _require(section, key, where)
    path = f"{where}.{key}" if where else key
    value = _convert(section[key], kind, path)
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: expected at least {minimum}, got {value}")
    return value


def _given(section: dict, where: str, **kinds) -> dict:
    """``{key: kind(section[key])}`` for each key of ``kinds`` that
    ``section`` holds, as keyword arguments: an absent key leaves its default
    to the dataclass, the one place it is declared."""
    return {
        key: _typed(section, key, kind, where=where) for key, kind in kinds.items() if key in section
    }


def _pair(value, where: str, open_ended=False) -> tuple:
    """``value`` as two reals; ``open_ended`` makes it an interval, either
    end null or the low end at most the high end."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where}: expected [low, high], got {value!r}")
    pair = tuple(None if v is None and open_ended else _convert(v, real, where) for v in value)
    return _ordered(*pair, where) if open_ended else pair


def _ordered(lo: float | None, hi: float | None, where: str) -> tuple[float | None, float | None]:
    """``(lo, hi)``, None an open end; a ``lo`` above ``hi`` is refused."""
    if lo is not None and hi is not None and lo > hi:
        raise ConfigError(f"{where}: min {lo} exceeds max {hi}")
    return lo, hi


def _entries(section: dict, key: str, where: str) -> list[tuple[str, object]]:
    """The list ``section[key]`` as (key path, entry) pairs; absent or null
    is empty, anything else but a list a ConfigError naming the path."""
    path = f"{where}.{key}" if where else key
    value = section.get(key) or []
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list, got {value!r}")
    return [(f"{path}[{i}]", entry) for i, entry in enumerate(value)]


def _name(value, where: str) -> str:
    """A scalar as a name; a list, mapping or null is a ConfigError naming
    ``where``."""
    if value is None or isinstance(value, (list, dict)):
        raise ConfigError(f"{where}: expected a name, got {value!r}")
    return str(value)


def _names(section: dict, key: str, where: str) -> tuple[str, ...]:
    return tuple(_name(v, path) for path, v in _entries(section, key, where))


def _optional_name(entry: dict, key: str, where: str) -> str | None:
    """``entry[key]`` as a name; absent or null is None."""
    value = entry.get(key)
    return None if value is None else _name(value, f"{where}.{key}")


def check_references(spec: SyntheticPopulationSpec, prefix: str = "") -> None:
    """Refuse the first name in ``spec`` that refers to no declared domain,
    earlier (binary) variable or variable, by its key path after ``prefix``."""
    names = [v.name for v in spec.variables]
    strata = enumerate(spec.strata)
    refs = [(f"strata[{i}].domain", s.domain, spec.domains, "a declared domain") for i, s in strata]
    for i, v in enumerate(spec.variables):
        if isinstance(v, BinaryVariableModel) and v.exclusive_with is not None:
            binary = [b.name for b in spec.variables[:i] if isinstance(b, BinaryVariableModel)]
            what = "an earlier binary variable"
            refs.append((f"variables[{i}].exclusive_with", v.exclusive_with, binary, what))
        elif isinstance(v, ContinuousVariableModel) and v.gated_by is not None:
            refs.append((f"variables[{i}].gated_by", v.gated_by, names[:i], "an earlier variable"))
    outcomes = enumerate(spec.outcomes)
    refs += [(f"outcomes[{i}].link", o.link, names, "a generated variable") for i, o in outcomes]
    for path, name, allowed, what in refs:
        if name not in allowed:
            raise ConfigError(f"{prefix}{path}: {name!r} is not {what}")


def _name_or_names(section: dict, key: str, where: str) -> tuple[str, ...]:
    """``section[key]``, a name or a list of them, as names; absent or null
    is none."""
    value = section.get(key)
    if isinstance(value, list):
        return _names(section, key, where)
    return () if value is None else (_name(value, f"{where}.{key}"),)


def _interval(interval: dict, where: str) -> tuple[float | None, float | None]:
    """The 'min' and 'max' of ``interval`` as reals, null or absent for an
    open end; a min above the max is a ConfigError naming ``where``."""
    lo, hi = (
        None if interval.get(key) is None else _convert(interval[key], real, f"{where}.{key}")
        for key in ("min", "max")
    )
    return _ordered(lo, hi, where)


def _band_rules(section: dict, where: str, numeric: frozenset | None) -> tuple[BandRule, ...]:
    """The band rules listed under ``section['derived']``; a source outside
    ``numeric`` (None: not known here) is a ConfigError naming its path."""
    rules = []
    for path, entry in _entries(section, "derived", where):
        name = _name(_require(entry, "name", path), f"{path}.name")
        source = _name(_require(entry, "source", path), f"{path}.source")
        if numeric is not None and source not in numeric:
            raise ConfigError(
                f"{path}.source: {source!r} is not a numeric column "
                f"(a calibration variable or an outcome)"
            )
        _require(entry, "bands", path)
        bands = tuple(
            (_name(_require(band, "label", at), f"{at}.label"), *_interval(band, at))
            for at, band in _entries(entry, "bands", path)
        )
        rules.append(
            BandRule(name=name, source=source, bands=bands, **_given(entry, path, else_label=str))
        )
    return tuple(rules)


def _check_json(value, where: str) -> None:
    """A ConfigError for the first mapping key in ``value`` that is not a
    string, or the first leaf that JSON cannot hold (a YAML date), each
    named by its key path: ``config_hash`` writes the document as JSON with
    sorted keys."""
    if isinstance(value, dict):
        for key, item in value.items():
            path = f"{where}.{key}" if where else str(key)
            _convert(key, string, path)
            _check_json(item, path)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_json(item, f"{where}[{i}]")
    elif not isinstance(value, (str, int, float, type(None))):
        raise ConfigError(f"{where}: expected a string, number, boolean or null, got {value!r}")


def _cell(
    entry: dict,
    calibration: tuple[str, ...],
    where: str,
    numeric: frozenset | None = None,
    domains: tuple[str, ...] | None = None,
) -> CellQuery:
    """One cell; a summed variable outside ``numeric`` or a domain outside
    ``domains`` (None: not known here) is a ConfigError naming its path."""
    name = _name(_require(entry, "name", where), f"{where}.name")
    summed = _name(_require(entry, "sum", where), f"{where}.sum")
    if numeric is not None and summed not in numeric:
        raise ConfigError(
            f"{where}.sum: variable {summed!r} is neither a calibration variable nor an outcome"
        )
    cell_domains = None
    attributes = {}
    ranges = {}
    filters = _section(entry, "where", f"{where}.where")
    for key, value in filters.items():
        path = f"{where}.where.{_convert(key, string, f'{where}.where (cell {name!r})')}"
        if key in calibration and key != "domain":
            if not isinstance(value, dict) or not set(value) <= {"min", "max"}:
                raise ConfigError(
                    f"{path}: filter on calibration variable {key!r} must be "
                    f"an interval with 'min'/'max'"
                )
            ranges[key] = _interval(value, path)
        elif value is None or value == []:  # either would match no record
            raise ConfigError(f"{path}: expected a name or a list of names, got {value!r}")
        elif key == "domain":
            cell_domains = _name_or_names(filters, key, f"{where}.where")
            unknown = [] if domains is None else sorted(set(cell_domains) - set(domains))
            if unknown:
                raise ConfigError(f"{path}: unknown domains {unknown}; declared {list(domains)}")
        else:
            attributes[key] = _name_or_names(filters, key, f"{where}.where")
    tier = entry.get("tier")
    try:
        tier_override = TierLabel(tier) if tier is not None else None
    except ValueError:
        raise ConfigError(
            f"{where}.tier: unknown tier {tier!r}; expected one of "
            f"{[t.value for t in TierLabel]}"
        ) from None
    link = entry.get("link")
    return CellQuery(
        name=name,
        summed_variable=summed,
        filter=CellFilter.build(domains=cell_domains, attributes=attributes, ranges=ranges),
        tier_override=tier_override,
        link_variable=None if link is None else _name(link, f"{where}.link"),
    )


def load_config(path: str | Path, seed_override: int | None = None) -> RunConfig:
    """Load and validate a YAML configuration document."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return parse_config(raw, base_dir=path.parent, seed_override=seed_override)


def parse_config(
    raw: dict, base_dir: Path | None = None, seed_override: int | None = None
) -> RunConfig:
    base = base_dir or Path(".")
    if seed_override is not None:
        seed = seed_override
    else:
        seed = _typed(raw, "seed", integer, minimum=0) if "seed" in raw else 0
    found: dict = {}  # the optional RunConfig fields the document sets

    sample = _section(raw, "sample", "sample")
    calibration: tuple[str, ...] = ()
    if sample:
        where = "sample.columns"
        columns = _mapping(_require(sample, "columns", "sample"), where)
        _require(columns, "calibration", where)
        calibration = _names(columns, "calibration", where)
        found["roles"] = ColumnRoles(
            stratum=_name(_require(columns, "stratum", where), f"{where}.stratum"),
            domain=_name(_require(columns, "domain", where), f"{where}.domain"),
            weight=_name(_require(columns, "weight", where), f"{where}.weight"),
            calibration=calibration,
            attributes=_name_or_names(columns, "attributes", where),
            outcomes=_name_or_names(columns, "outcomes", where),
            record_id=None if columns.get("id") is None else _name(columns["id"], f"{where}.id"),
        )
        paths = {key: (base / _typed(sample, key, string, "sample")).resolve() for key in ("records", "strata")}
        for key, p in paths.items():
            if not p.exists():
                raise ConfigError(f"sample.{key}: input file not found: {p}")
        found["records_path"], found["strata_path"] = paths.values()
        found["domain_order"] = _names(sample, "domain_order", "sample") or None

    models = {}
    for variable, spec in _section(raw, "models", "models").items():
        where = f"models.{variable}"
        kind = _require(spec, "kind", where)
        fixed_sigma2 = spec.get("fixed_sigma2")  # null samples the variance, as when absent
        models[variable] = ModelConfig(
            variable=variable,
            kind=kind,
            covariates=_name_or_names(spec, "covariates", where),
            fixed_sigma2=(
                None if fixed_sigma2 is None else _convert(fixed_sigma2, real, f"{where}.fixed_sigma2")
            ),
            **_given(spec, where, prior_df=positive, prior_scale=positive),
        )

    mcmc = _section(raw, "mcmc", "mcmc")
    found.update(_given(mcmc, "mcmc", rhat_threshold=real))
    # the sampler's bounds, checked here so that the error names the key
    counts = {
        key: _typed(mcmc, key, integer, where="mcmc", minimum=low)
        for key, low in (("burnin", 0), ("iterations", 1), ("chains", 1))
        if key in mcmc
    }
    found["mcmc"] = McmcConfig(seed=seed, **counts, **_given(mcmc, "mcmc", proposal_sd=positive))

    simulate = _section(raw, "simulate", "simulate")
    population = _section(simulate, "population", "simulate.population")
    mc = _section(simulate, "mc", "simulate.mc")
    if simulate:
        found["simulate"] = SimulateConfig(
            population=population_spec_from_config(population, seed),
            **_given(
                mc, "simulate.mc", replications=integer, sampling_fraction=real, target_mode=str
            ),
        )
    # the numeric columns that cells sum and band rules read, and the domains
    # that cells filter on where they are declared: the sample's, or a
    # simulation-only config's generated variables, outcomes and domains
    numeric = domains = None
    if sample:
        numeric = frozenset((*calibration, *found["roles"].outcomes))
        domains = found["domain_order"]
    elif simulate:
        generated = found["simulate"].population
        calibration = tuple(v.name for v in generated.variables)
        numeric = frozenset((*calibration, *(o.name for o in generated.outcomes)))
        domains = generated.domains

    cells = tuple(
        _cell(entry, calibration, path, numeric, domains) for path, entry in _entries(raw, "cells", "")
    )
    names = [c.name for c in cells]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"duplicate cell names: {dupes}")

    found.update(_given(_section(raw, "report", "report"), "report", level=real))
    _check_json(raw, "")
    if models and (sample or simulate):
        _check_models(models, calibration)
    # a generated population has the one stratum covariate
    unknown = [(v, c) for v, m in models.items() for c in m.covariates if c != SIMULATED_COVARIATE]
    if simulate and not sample and unknown:
        raise ConfigError(f"models.{unknown[0][0]}.covariates: unknown stratum covariate {unknown[0][1]!r}")
    return RunConfig(
        seed=seed,
        raw=raw,
        # simulation-only configs carry band rules without a sample section
        band_rules=_band_rules(sample, "sample", numeric) + _band_rules(simulate, "simulate", numeric),
        models=models,
        cells=cells,
        **found,
    )


def _check_models(models: dict, calibration: tuple[str, ...]) -> None:
    """One model entry for each calibration variable and for nothing else."""
    for variable in models:
        if variable not in calibration:
            raise ConfigError(
                f"models.{variable}: not a calibration variable; the calibration "
                f"variables are {list(calibration)}"
            )
    missing = [v for v in calibration if v not in models]
    if missing:
        raise ConfigError(f"models: no model for calibration variables {missing}")


def population_spec_from_config(section: dict, seed: int) -> SyntheticPopulationSpec:
    """Build a population spec from the ``simulate.population`` section."""
    where = "simulate.population"
    _require(section, "domains", where)
    domains = _names(section, "domains", where)
    if not domains:
        raise ConfigError(f"{where}.domains: expected a non-empty list, got {section['domains']!r}")
    strata_cfg = _require(section, "strata", where)
    plans: list[StratumPlan] = []
    if isinstance(strata_cfg, list):
        if not strata_cfg:
            raise ConfigError(f"{where}.strata: expected at least one stratum, got []")
        for path, entry in _entries(section, "strata", where):
            plans.append(
                StratumPlan(
                    id=_name(_require(entry, "id", path), f"{path}.id"),
                    domain=_name(_require(entry, "domain", path), f"{path}.domain"),
                    population_size=_typed(
                        entry, "population_size", integer, where=path, minimum=MIN_STRATUM_SIZE
                    ),
                    **_given(entry, path, covariate=real, deff=positive),
                )
            )
    else:
        path = f"{where}.strata"
        per_domain = _typed(strata_cfg, "per_domain", integer, where=path, minimum=1)
        size = _typed(
            strata_cfg, "population_size", integer, where=path, minimum=MIN_STRATUM_SIZE
        )
        span = strata_cfg.get("covariate_range")  # null spans [-1, 1], as when absent
        lo, hi = (-1.0, 1.0) if span is None else _pair(span, f"{path}.covariate_range")
        deff = _given(strata_cfg, path, deff=positive)
        covariates = np.linspace(lo, hi, per_domain * len(domains))
        width = len(str(covariates.size))
        for k, domain in enumerate(d for d in domains for _ in range(per_domain)):
            plans.append(
                StratumPlan(
                    id=f"s{k + 1:0{width}d}",
                    domain=domain,
                    population_size=size,
                    covariate=float(covariates[k]),
                    **deff,
                )
            )

    _require(section, "variables", where)
    variables: list[BinaryVariableModel | ContinuousVariableModel] = []
    for path, entry in _entries(section, "variables", where):
        name = _name(_require(entry, "name", path), f"{path}.name")
        kind = _require(entry, "kind", path)
        if kind == "binary":
            variables.append(
                BinaryVariableModel(
                    name=name,
                    intercept=_typed(entry, "intercept", real, where=path),
                    exclusive_with=_optional_name(entry, "exclusive_with", path),
                    **_given(entry, path, slope=real, stratum_sd=nonnegative),
                )
            )
        elif kind == "continuous":
            clip = entry.get("clip")  # null leaves both ends open, as when absent
            variables.append(
                ContinuousVariableModel(
                    name=name,
                    mean=_typed(entry, "mean", real, where=path),
                    unit_sd=_typed(entry, "unit_sd", nonnegative, where=path),
                    gated_by=_optional_name(entry, "gated_by", path),
                    **_given(entry, path, slope=real, stratum_sd=nonnegative),
                    **({} if clip is None else {"clip": _pair(clip, f"{path}.clip", open_ended=True)}),
                )
            )
        else:
            raise ConfigError(f"{path}.kind: expected 'binary' or 'continuous', got {kind!r}")

    attributes = tuple(
        AttributeModel(
            name=_name(_require(entry, "name", path), f"{path}.name"),
            levels=tuple(
                (str(label), _convert(prob, within(0, 1), f"{path}.levels.{label}"))
                for label, prob in _mapping(
                    _require(entry, "levels", path), f"{path}.levels"
                ).items()
            ),
            **_given(entry, path, domain_tilt=within(-1, 1)),
        )
        for path, entry in _entries(section, "attributes", where)
    )
    outcomes = tuple(
        OutcomeModel(
            name=_name(_require(entry, "name", path), f"{path}.name"),
            link=_name(_require(entry, "link", path), f"{path}.link"),
            rho=_typed(entry, "rho", within(-1, 1), where=path),
            **_given(entry, path, loc=real, scale=real),
        )
        for path, entry in _entries(section, "outcomes", where)
    )
    spec = SyntheticPopulationSpec(
        domains=domains,
        strata=tuple(plans),
        variables=tuple(variables),
        attributes=attributes,
        outcomes=outcomes,
        seed=seed,
    )
    check_references(spec, f"{where}.")
    return spec
