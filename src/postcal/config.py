"""Structured run configuration: one YAML document, sections per subsystem.

This module owns every key path: each section, ``simulate:`` included, is
parsed here into typed values, and every exit-2 message about a missing,
mistyped or malformed key names its path (list entries as ``cells[0]``).
The parse checks what is about YAML: the kinds integer, string and real,
names, and the mapping and list shapes.  Each rule about a value's range
lives in the type that holds the value (``HBPrior``, ``McmcConfig``,
``StratumSpec`` and the ``simulate`` types here), whose constructor names
the field; ``_build`` makes every spec and puts the key path in front, so
a hand-built value gets the same words without the path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import (
    ConfigError, DataError, at_least, check_fields, checked, integer,
    nonnegative, one_of, real, restricted, within,
)
from .frame import CellFilter, CellQuery, StratumSpec, TierLabel
from .hb import HBPrior, McmcConfig
from .io import BandRule, ColumnRoles

# the one stratum covariate of a generated population
SIMULATED_COVARIATE = "z"
# libyaml's parser where PyYAML was built with it: the same dict, ~10x faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True)
class ModelConfig:
    """Hierarchical model choice for one calibration variable: its kind and
    prior, and the stratum covariates of its regression."""

    variable: str
    prior: HBPrior
    covariates: tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        return self.prior.kind


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

    def __post_init__(self):
        check_fields(self, ConfigError, stratum_sd=nonnegative)


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

    def __post_init__(self):
        check_fields(self, ConfigError, unit_sd=nonnegative, stratum_sd=nonnegative)


@dataclass(frozen=True)
class AttributeModel:
    """Categorical attribute with optionally domain-tilted level shares."""

    name: str
    levels: tuple[tuple[str, float], ...]
    domain_tilt: float = 0.0

    def __post_init__(self):
        share = within(0, 1)
        levels = tuple((label, checked(p, share, f"levels.{label}", ConfigError)) for label, p in self.levels)
        object.__setattr__(self, "levels", levels)
        check_fields(self, ConfigError, domain_tilt=within(-1, 1))
        probs = [p for _, p in levels]
        if not abs(sum(probs) - 1.0) <= 1e-9:
            raise ConfigError(f"levels: expected shares that sum to 1, got a sum of {sum(probs):g}")
        # a domain's shares p * (1 +- tilt) stay >= 0 up to |tilt| = 1, where
        # the odd or the even levels get 0 and the others must hold a share
        if abs(self.domain_tilt) == 1 and not (any(probs[::2]) and any(probs[1::2])):
            raise ConfigError(
                f"domain_tilt: {self.domain_tilt:g} leaves a domain no level with a positive share"
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

    def __post_init__(self):
        check_fields(self, ConfigError, rho=within(-1, 1))


@dataclass(frozen=True)
class SyntheticPopulationSpec:
    """A generated population: its domains, strata (each with its domain and
    covariate), variables, attributes and outcomes, and the seed it is
    realized from."""

    domains: tuple[str, ...]
    strata: tuple[StratumSpec, ...]
    variables: tuple[BinaryVariableModel | ContinuousVariableModel, ...]
    attributes: tuple[AttributeModel, ...] = ()
    outcomes: tuple[OutcomeModel, ...] = ()
    seed: int = 0

    def __post_init__(self):
        """Refuse the first name that refers to no declared domain, earlier
        (binary) variable or variable, by its key path in the spec."""
        names = [v.name for v in self.variables]
        strata = enumerate(self.strata)
        refs = [(f"strata[{i}].domain", s.domain, self.domains, "a declared domain") for i, s in strata]
        for i, v in enumerate(self.variables):
            if isinstance(v, BinaryVariableModel) and v.exclusive_with is not None:
                binary = [b.name for b in self.variables[:i] if isinstance(b, BinaryVariableModel)]
                what = "an earlier binary variable"
                refs.append((f"variables[{i}].exclusive_with", v.exclusive_with, binary, what))
            elif isinstance(v, ContinuousVariableModel) and v.gated_by is not None:
                refs.append((f"variables[{i}].gated_by", v.gated_by, names[:i], "an earlier variable"))
        outcomes = enumerate(self.outcomes)
        refs += [(f"outcomes[{i}].link", o.link, names, "a generated variable") for i, o in outcomes]
        for path, name, allowed, what in refs:
            if name not in allowed:
                raise ConfigError(f"{path}: {name!r} is not {what}")


@dataclass(frozen=True)
class SimulateConfig:
    """The ``simulate`` section: the population and the experiment size."""

    population: SyntheticPopulationSpec
    replications: int = 200
    sampling_fraction: float = 0.05
    target_mode: str = "hb"  # "hb" or "truth" (bypass fitting, pin to truth)

    def __post_init__(self):
        check_fields(
            self,
            ConfigError,
            replications=at_least(1),
            sampling_fraction=restricted(real, "a real in (0, 1]", lambda f: 0 < f <= 1),
            target_mode=one_of("hb", "truth"),
        )


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


def _build(spec, where: str, *args, **fields):
    """``spec(*args, **fields)``, a refusal of which names the field after
    the key path ``where`` (none: the field is a top-level key)."""
    try:
        return spec(*args, **fields)
    except (ConfigError, DataError) as exc:
        raise ConfigError(f"{where}.{exc}" if where else str(exc)) from None


def string(value) -> str:
    """``value`` if it is a ``str``, else a TypeError."""
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def _typed(section: dict, key: str, kind, where: str = ""):
    """``kind`` of ``section[key]``; a missing or mistyped value is a
    ConfigError naming ``where.key``."""
    _require(section, key, where)
    return checked(section[key], kind, f"{where}.{key}" if where else key, ConfigError)


def _given(section: dict, where: str, **kinds) -> dict:
    """``{key: kind(section[key])}`` for each key of ``kinds`` that
    ``section`` holds, as keyword arguments: an absent key leaves its default
    to the dataclass, the one place it is declared.  A kind of None passes
    the value as it is, to the type that checks it."""
    return {
        key: section[key] if kind is None else _typed(section, key, kind, where=where)
        for key, kind in kinds.items()
        if key in section
    }


def _pair(value, where: str, open_ended=False) -> tuple:
    """``value`` as two reals; ``open_ended`` makes it an interval, either
    end null or the low end at most the high end."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where}: expected [low, high], got {value!r}")
    pair = tuple(None if v is None and open_ended else checked(v, real, where, ConfigError) for v in value)
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
        None if interval.get(key) is None else checked(interval[key], real, f"{where}.{key}", ConfigError)
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
            checked(key, string, path, ConfigError)
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
        path = f"{where}.where.{checked(key, string, f'{where}.where (cell {name!r})', ConfigError)}"
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
        seed = _typed(raw, "seed", integer) if "seed" in raw else 0
    # McmcConfig holds the seed, a top-level key: one built from it alone names it so
    _build(McmcConfig, "", seed=seed)
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
        if fixed_sigma2 is not None:
            fixed_sigma2 = checked(fixed_sigma2, real, f"{where}.fixed_sigma2", ConfigError)
        given = _given(spec, where, prior_df=None, prior_scale=None)
        prior = _build(HBPrior, where, kind, fixed_sigma2=fixed_sigma2, **given)
        models[variable] = ModelConfig(variable, prior, _name_or_names(spec, "covariates", where))

    mcmc = _section(raw, "mcmc", "mcmc")
    found.update(_given(mcmc, "mcmc", rhat_threshold=real))
    given = _given(mcmc, "mcmc", burnin=integer, iterations=integer, chains=integer, proposal_sd=None)
    found["mcmc"] = _build(McmcConfig, "mcmc", seed=seed, **given)

    simulate = _section(raw, "simulate", "simulate")
    population = _section(simulate, "population", "simulate.population")
    mc = _section(simulate, "mc", "simulate.mc")
    if simulate:
        generated = population_spec_from_config(population, seed)
        given = _given(mc, "simulate.mc", replications=integer, sampling_fraction=real, target_mode=string)
        found["simulate"] = _build(SimulateConfig, "simulate.mc", generated, **given)
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
    strata: list[StratumSpec] = []
    if isinstance(strata_cfg, list):
        if not strata_cfg:
            raise ConfigError(f"{where}.strata: expected at least one stratum, got []")
        for path, entry in _entries(section, "strata", where):
            stratum = {key: _name(_require(entry, key, path), f"{path}.{key}") for key in ("id", "domain")}
            size = _typed(entry, "population_size", integer, where=path)
            given = _given(entry, path, covariate=real, deff=None)
            strata.append(_build(StratumSpec, path, population_size=size, **stratum, **given))
    else:
        path = f"{where}.strata"
        per_domain = _typed(strata_cfg, "per_domain", at_least(1), where=path)  # no type holds it
        size = _typed(strata_cfg, "population_size", integer, where=path)
        span = strata_cfg.get("covariate_range")  # null spans [-1, 1], as when absent
        lo, hi = (-1.0, 1.0) if span is None else _pair(span, f"{path}.covariate_range")
        deff = _given(strata_cfg, path, deff=None)
        covariates = np.linspace(lo, hi, per_domain * len(domains))
        width = len(str(covariates.size))
        for k, domain in enumerate(d for d in domains for _ in range(per_domain)):
            stratum = {"id": f"s{k + 1:0{width}d}", "domain": domain, "covariate": float(covariates[k])}
            strata.append(_build(StratumSpec, path, population_size=size, **stratum, **deff))

    _require(section, "variables", where)
    variables: list[BinaryVariableModel | ContinuousVariableModel] = []
    for path, entry in _entries(section, "variables", where):
        name = _name(_require(entry, "name", path), f"{path}.name")
        kind = _require(entry, "kind", path)
        if kind not in ("binary", "continuous"):
            raise ConfigError(f"{path}.kind: expected 'binary' or 'continuous', got {kind!r}")
        if kind == "binary":
            intercept = _typed(entry, "intercept", real, where=path)
            given = {"exclusive_with": _optional_name(entry, "exclusive_with", path)}
            given |= _given(entry, path, slope=real, stratum_sd=None)
            variables.append(_build(BinaryVariableModel, path, name, intercept, **given))
        else:
            mean = _typed(entry, "mean", real, where=path)
            given = {"unit_sd": _require(entry, "unit_sd", path)}
            given["gated_by"] = _optional_name(entry, "gated_by", path)
            given |= _given(entry, path, slope=real, stratum_sd=None)
            clip = entry.get("clip")  # null leaves both ends open, as when absent
            if clip is not None:
                given["clip"] = _pair(clip, f"{path}.clip", open_ended=True)
            variables.append(_build(ContinuousVariableModel, path, name, mean, **given))

    attributes = []
    for path, entry in _entries(section, "attributes", where):
        name = _name(_require(entry, "name", path), f"{path}.name")
        levels = _mapping(_require(entry, "levels", path), f"{path}.levels")
        levels = tuple((str(label), share) for label, share in levels.items())
        attributes.append(_build(AttributeModel, path, name, levels, **_given(entry, path, domain_tilt=None)))
    outcomes = []
    for path, entry in _entries(section, "outcomes", where):
        name, link = (_name(_require(entry, key, path), f"{path}.{key}") for key in ("name", "link"))
        given = _given(entry, path, loc=real, scale=real)
        outcomes.append(_build(OutcomeModel, path, name, link, _require(entry, "rho", path), **given))
    parts = (tuple(strata), tuple(variables), tuple(attributes), tuple(outcomes))
    return _build(SyntheticPopulationSpec, where, domains, *parts, seed)
