"""Structured run configuration: one YAML document, sections per subsystem.

This module owns every key path: each section, ``simulate:`` included, is
parsed here into typed values, and every exit-2 message about a missing,
mistyped, malformed or unknown key names its path (list entries as
``cells[0]``).  Each mapping with a fixed set of keys is declared once
below, with each key's kind and the keys it requires, and ``_read`` reads
every such mapping; only the ``models:`` variables, ``where:`` clauses and
``levels:`` labels are free-form.  The parse checks what is about YAML:
the kinds integer, string and real, names, and the mapping and list
shapes.  Each rule about a value's range lives in the type that holds the
value (``HBPrior``, ``McmcConfig``, ``StratumSpec``, ``RunConfig`` and the
``simulate`` types here), whose constructor names the field; ``_build``
makes every spec and puts the key path in front, so a hand-built value
gets the same words without the path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import (
    ConfigError, DataError, at_least, between, check_fields, checked, distinct, integer,
    nominal_level, nonnegative, one_of, real, restricted, sampling_fraction,
)
from .frame import CellFilter, CellQuery, StratumSpec
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
        share = between(0, 1)
        levels = tuple((label, checked(p, share, f"levels.{label}", ConfigError)) for label, p in self.levels)
        object.__setattr__(self, "levels", levels)
        check_fields(self, ConfigError, domain_tilt=between(-1, 1))
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
        check_fields(self, ConfigError, rho=between(-1, 1))


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
        """Refuse the first name that repeats one of its list or, among the
        variables, attributes and outcomes, that an earlier list holds, then
        the first that refers to no declared domain, earlier (binary)
        variable or variable, by its key path in the spec."""
        names = [v.name for v in self.variables]
        distinct(self.domains, "domains")
        distinct([s.id for s in self.strata], "strata", key=".id")
        attributes, outcomes = [a.name for a in self.attributes], [o.name for o in self.outcomes]
        _namespace("", {"variables": names, "attributes": attributes, "outcomes": outcomes}, ".name")
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

    def __post_init__(self):
        check_fields(
            self,
            ConfigError,
            replications=at_least(1),
            sampling_fraction=sampling_fraction,
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
    cells: tuple[CellQuery, ...] = ()
    level: float = 0.95
    simulate: SimulateConfig | None = None

    def __post_init__(self):
        check_fields(self, ConfigError, level=nominal_level)

    @property
    def config_hash(self) -> str:
        return config_hash(self.raw, self.seed)


def config_hash(raw: dict, seed: int) -> str:
    canonical = json.dumps(
        {"config": raw, "seed": seed}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _namespace(where: str, lists: dict, key: str = "") -> dict:
    """What holds each name that calibration variables, attributes and
    outcomes share, ``lists`` their names by their keys under ``where`` in
    that order; a name that repeats its list or one before is refused."""
    taken: dict = {}
    for (part, values), what in zip(lists.items(), ("is a calibration variable", "is an attribute", "is an outcome")):
        distinct(values, where + part, key=key, taken=taken, what=what)
    return taken


def _build(spec, where: str, *args, **fields):
    """``spec(*args, **fields)``, a refusal of which names the field after
    the key path ``where`` (none: the field is a top-level key)."""
    try:
        return spec(*args, **fields)
    except (ConfigError, DataError) as exc:
        raise ConfigError(exc.cause, *exc.where).within(where and f"{where}.") from None


def string(value) -> str:
    """``value`` if it is a ``str``, else a TypeError."""
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def name(value) -> str:
    """A scalar as a name; a list, mapping or null is refused."""
    if value is None or isinstance(value, (list, dict)):
        raise TypeError(value)
    return str(value)


def names(value) -> tuple[str, ...]:
    """A list of distinct names; null is none."""
    listed = tuple(checked(v, name, f"[{i}]", ConfigError) for i, v in enumerate(entries(value)))
    distinct(listed, "")
    return listed


def name_or_names(value) -> tuple[str, ...]:
    """A name or a list of them; null is none."""
    return names(value) if isinstance(value, list) else () if value is None else (name(value),)


# a refusal reads "expected <the kind's name>"
name.__name__, names.__name__, name_or_names.__name__ = "a name", "a list", "a name"
# a section, null for none; a list, null (or another falsy value) for none
mapping = restricted(lambda v: {} if v is None else v, "a mapping", lambda v: isinstance(v, dict))
entries = restricted(lambda v: v or [], "a list", lambda v: isinstance(v, list))


def optional(kind):
    """The kind ``kind`` that reads null as None."""
    return restricted(lambda v: None if v is None else kind(v), kind.__name__, lambda v: True)


def _pair(open_ended: bool):
    """The kind of two reals; ``open_ended`` makes it an interval, null or
    either end null for an open end, the low end at most the high end."""
    end = optional(real) if open_ended else real

    def pair(value) -> tuple:
        if open_ended and value is None:
            return None, None
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise TypeError(value)
        lo, hi = (checked(v, end, "", ConfigError) for v in value)
        return _ordered(lo, hi, "") if open_ended else (lo, hi)

    pair.__name__ = "[low, high]"
    return pair


def _ordered(lo: float | None, hi: float | None, where: str) -> tuple:
    """``(lo, hi)``, None an open end; a ``lo`` above ``hi`` is refused."""
    if lo is not None and hi is not None and lo > hi:
        raise ConfigError(f"min {lo} exceeds max {hi}", f"{where}: ")
    return lo, hi


# Each mapping with a fixed set of keys, as ``_read`` takes it: each key's
# kind, in the order they are checked (None passes the value as it is, to
# the type that checks it), and the keys it must hold.
_TOP = (
    {"seed": None, "sample": mapping, "models": mapping, "mcmc": None, "simulate": mapping, "cells": entries,
     "report": None},
    (),
)
_SAMPLE = (
    {"columns": mapping, "records": string, "strata": string, "domain_order": names, "derived": entries},
    ("columns", "records", "strata"),
)
_COLUMNS = (
    {"calibration": names, "stratum": name, "domain": name, "weight": name, "attributes": name_or_names,
     "outcomes": name_or_names, "id": optional(name)},
    ("calibration", "stratum", "domain", "weight"),
)
_BAND_RULE = {"name": name, "source": name, "bands": entries, "else_label": name}, ("name", "source", "bands")
_BAND = {"label": name, "min": optional(real), "max": optional(real)}, ("label",)
_INTERVAL = {"min": optional(real), "max": optional(real)}, ()
_MODEL = (
    {"kind": None, "fixed_sigma2": optional(real), "prior_df": None, "prior_scale": None,
     "covariates": name_or_names},
    ("kind",),
)
_MCMC = {"rhat_threshold": real, "burnin": integer, "iterations": integer, "chains": integer, "proposal_sd": None}, ()
_REPORT = {"level": real}, ()
_CELL = {"name": name, "sum": name, "where": mapping, "link": optional(name)}, ("name", "sum")
_SIMULATE = {"population": mapping, "mc": mapping, "derived": entries}, ()
_MC = {"replications": integer, "sampling_fraction": real}, ()
_POPULATION = (
    {"domains": names, "strata": None, "variables": entries, "attributes": entries, "outcomes": entries},
    ("domains", "strata", "variables"),
)
_STRATUM = (
    {"id": name, "domain": name, "population_size": integer, "covariate": real, "deff": None},
    ("id", "domain", "population_size"),
)
_GRID = (
    {"per_domain": at_least(1), "population_size": integer, "covariate_range": optional(_pair(False)),
     "deff": None},
    ("per_domain", "population_size"),
)
# a variable's kind picks its keys; an entry without one is read for the keys of either
_VARIABLE = {"name": name, "kind": one_of("binary", "continuous")}
_BINARY = (
    {**_VARIABLE, "intercept": real, "exclusive_with": optional(name), "slope": real, "stratum_sd": None},
    ("name", "kind", "intercept"),
)
_CONTINUOUS = (
    {**_VARIABLE, "mean": real, "unit_sd": None, "gated_by": optional(name), "slope": real,
     "stratum_sd": None, "clip": _pair(True)},
    ("name", "kind", "mean", "unit_sd"),
)
_VARIABLES = {"binary": _BINARY, "continuous": _CONTINUOUS, None: ({**_BINARY[0], **_CONTINUOUS[0]}, ("name", "kind"))}
_ATTRIBUTE = {"name": name, "levels": mapping, "domain_tilt": None}, ("name", "levels")
_OUTCOME = {"name": name, "link": name, "rho": None, "loc": real, "scale": real}, ("name", "link", "rho")


def _path(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


def _read(value, where: str, kinds: dict, required: tuple, what: str = "") -> dict:
    """The mapping ``value`` (null is empty) as ``{key: kind(value[key])}``
    for each key of ``kinds`` that it holds, as keyword arguments: an absent
    key leaves its default to the dataclass, the one place it is declared.
    A key it does not declare (which ``what`` may say more of), a key of
    ``required`` it lacks and a value that a kind refuses are each a
    ConfigError naming the key path."""
    section = checked(value, mapping, where, ConfigError)
    for key in section:
        if key not in kinds:
            raise ConfigError(f"{_path(where, key)}: unknown key{what}; expected one of {list(kinds)}")
    read = {}
    for key, kind in kinds.items():
        if key in section:
            read[key] = section[key] if kind is None else checked(section[key], kind, _path(where, key), ConfigError)
        elif key in required:
            raise ConfigError(f"{where}: missing required key {key!r}")
    return read


def _listed(items: list, where: str) -> list[tuple[str, object]]:
    """The list ``items`` at ``where`` as (key path, entry) pairs."""
    return [(f"{where}[{i}]", entry) for i, entry in enumerate(items)]


def _band_rules(section: dict, where: str, numeric: frozenset | None, taken: dict) -> tuple[BandRule, ...]:
    """The band rules listed under ``section['derived']``.  A name already
    in ``taken``, which says what holds each name and gains each band's, or
    a source outside ``numeric`` (None: not known here) is a ConfigError
    naming its path."""
    rules = []
    for path, entry in _listed(section.get("derived", ()), f"{where}.derived"):
        rule = _read(entry, path, *_BAND_RULE)
        if rule["name"] in taken:
            raise ConfigError(f"{path}.name: {rule['name']!r} {taken[rule['name']]}")
        taken[rule["name"]] = f"repeats {path}"
        if numeric is not None and rule["source"] not in numeric:
            raise ConfigError(
                f"{path}.source: {rule['source']!r} is not a numeric column "
                f"(a calibration variable or an outcome)"
            )
        bands = []
        for at, band in _listed(rule["bands"], f"{path}.bands"):
            band = _read(band, at, *_BAND)
            bands.append((band["label"], *_ordered(band.get("min"), band.get("max"), at)))
        rules.append(BandRule(**rule | {"bands": tuple(bands)}))
    return tuple(rules)


def _check_json(value, where: str) -> None:
    """A ConfigError for the first mapping key in ``value`` that is not a
    string, or the first leaf that JSON cannot hold (a YAML date), each
    named by its key path: ``config_hash`` writes the document as JSON with
    sorted keys."""
    if isinstance(value, dict):
        for key, item in value.items():
            path = _path(where, key)
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
    attributes: tuple[str, ...] | None = None,
) -> CellQuery:
    """One cell; a summed variable outside ``numeric``, a domain outside
    ``domains`` or an attribute outside ``attributes`` (None: not known
    here) is a ConfigError naming its path.  Its tier follows from its
    filter and the sample alone (``replicate.classify_cell``)."""
    cell = _read(entry, where, *_CELL)
    summed = cell["sum"]
    if numeric is not None and summed not in numeric:
        raise ConfigError(
            f"{where}.sum: variable {summed!r} is neither a calibration variable nor an outcome"
        )
    cell_domains = None
    levels = {}
    ranges = {}
    for key, value in cell.get("where", {}).items():
        checked(key, string, f"{where}.where (cell {cell['name']!r})", ConfigError)
        path = f"{where}.where.{key}"
        if key in calibration and key != "domain":
            if not isinstance(value, dict):
                raise ConfigError(
                    f"{path}: filter on calibration variable {key!r} must be "
                    f"an interval with 'min'/'max'"
                )
            bounds = _read(value, path, *_INTERVAL, what=" of an interval")
            ranges[key] = _ordered(bounds.get("min"), bounds.get("max"), path)
        elif value is None or value == []:  # either would match no record
            raise ConfigError(f"{path}: expected a name or a list of names, got {value!r}")
        elif key == "domain":
            cell_domains = checked(value, name_or_names, path, ConfigError)
            unknown = [] if domains is None else sorted(set(cell_domains) - set(domains))
            if unknown:
                raise ConfigError(f"{path}: unknown domains {unknown}; declared {list(domains)}")
        elif attributes is not None and key not in attributes:
            raise ConfigError(f"{path}: unknown attribute {key!r}; declared {list(attributes)}")
        else:
            levels[key] = checked(value, name_or_names, path, ConfigError)
    return CellQuery(
        name=cell["name"],
        summed_variable=summed,
        filter=CellFilter.build(domains=cell_domains, attributes=levels, ranges=ranges),
        link_variable=cell.get("link"),
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
    top = _read(raw, "", *_TOP)
    seed = checked(top.get("seed", 0), integer, "seed", ConfigError) if seed_override is None else seed_override
    # McmcConfig holds the seed, a top-level key: one built from it alone names it so
    _build(McmcConfig, "", seed=seed)
    found: dict = {}  # the optional RunConfig fields the document sets

    sample = top.get("sample")
    calibration: tuple[str, ...] = ()
    if sample:
        sample = _read(sample, "sample", *_SAMPLE)
        columns = _read(sample["columns"], "sample.columns", *_COLUMNS)
        calibration = columns["calibration"]
        found["roles"] = ColumnRoles(record_id=columns.pop("id", None), **columns)
        paths = {key: (base / sample[key]).resolve() for key in ("records", "strata")}
        for key, p in paths.items():
            if not p.exists():
                raise ConfigError(f"sample.{key}: input file not found: {p}")
        found["records_path"], found["strata_path"] = paths.values()
        found["domain_order"] = sample.get("domain_order") or None

    models = {}
    for variable, spec in top.get("models", {}).items():
        where = f"models.{variable}"
        model = _read(spec, where, *_MODEL)
        covariates = model.pop("covariates", ())
        models[variable] = ModelConfig(variable, _build(HBPrior, where, **model), covariates)

    found["mcmc"] = _build(McmcConfig, "mcmc", seed=seed, **_read(top.get("mcmc"), "mcmc", *_MCMC))

    simulate = top.get("simulate")
    if simulate:
        simulate = _read(simulate, "simulate", *_SIMULATE)
        generated = population_spec_from_config(simulate.get("population"), seed)
        mc = _read(simulate.get("mc"), "simulate.mc", *_MC)
        found["simulate"] = _build(SimulateConfig, "simulate.mc", generated, **mc)
    # the numeric columns that cells sum and band rules read, and the domains
    # that cells filter on where they are declared: the sample's, or a
    # simulation-only config's generated variables, outcomes and domains
    numeric = domains = attributes = None
    taken: dict = {}  # what holds each name of the columns, and then of the bands
    if sample:
        outcomes = found["roles"].outcomes
        numeric = frozenset((*calibration, *outcomes))
        domains, attributes = found["domain_order"], found["roles"].attributes
        lists = {"calibration": calibration, "attributes": attributes, "outcomes": outcomes}
        taken = _namespace("sample.columns.", lists)
    elif simulate:
        generated = found["simulate"].population
        calibration = tuple(v.name for v in generated.variables)
        outcomes = tuple(o.name for o in generated.outcomes)
        numeric = frozenset((*calibration, *outcomes))
        domains, attributes = generated.domains, tuple(a.name for a in generated.attributes)
        lists = {"variables": calibration, "attributes": attributes, "outcomes": outcomes}
        taken = _namespace("simulate.population.", lists, ".name")  # the spec has refused its repeats
    # simulation-only configs carry band rules without a sample section
    band_rules = _band_rules(sample or {}, "sample", numeric, taken) + _band_rules(
        simulate or {}, "simulate", numeric, taken
    )
    if attributes is not None:  # a cell filters on the attributes and the bands
        attributes += tuple(rule.name for rule in band_rules)

    cells = tuple(
        _cell(entry, calibration, path, numeric, domains, attributes)
        for path, entry in _listed(top.get("cells", ()), "cells")
    )
    distinct([c.name for c in cells], "cells", key=".name")

    found.update(_read(top.get("report"), "report", *_REPORT))
    _check_json(raw, "")
    if models and (sample or simulate):
        _check_models(models, calibration)
    # a generated population has the one stratum covariate
    unknown = [(v, c) for v, m in models.items() for c in m.covariates if c != SIMULATED_COVARIATE]
    if simulate and not sample and unknown:
        raise ConfigError(f"models.{unknown[0][0]}.covariates: unknown stratum covariate {unknown[0][1]!r}")
    # RunConfig checks one value, the level under report:
    return _build(RunConfig, "report", seed=seed, raw=raw, band_rules=band_rules, models=models, cells=cells, **found)


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
    population = _read(section, where, *_POPULATION)
    domains = population["domains"]
    if not domains:
        raise ConfigError(f"{where}.domains: expected a non-empty list, got {section['domains']!r}")
    grid = population["strata"]
    strata: list[StratumSpec] = []
    if isinstance(grid, list):
        if not grid:
            raise ConfigError(f"{where}.strata: expected at least one stratum, got []")
        for path, entry in _listed(grid, f"{where}.strata"):
            strata.append(_build(StratumSpec, path, **_read(entry, path, *_STRATUM)))
    else:
        path = f"{where}.strata"
        grid = _read(grid, path, *_GRID)
        per_domain = grid.pop("per_domain")  # no type holds it
        lo, hi = grid.pop("covariate_range", None) or (-1.0, 1.0)  # null spans [-1, 1], as when absent
        covariates = np.linspace(lo, hi, per_domain * len(domains))
        width = len(str(covariates.size))
        for k, domain in enumerate(d for d in domains for _ in range(per_domain)):
            stratum = {"id": f"s{k + 1:0{width}d}", "domain": domain, "covariate": float(covariates[k])}
            strata.append(_build(StratumSpec, path, **stratum, **grid))

    variables: list[BinaryVariableModel | ContinuousVariableModel] = []
    for path, entry in _listed(population["variables"], f"{where}.variables"):
        section = checked(entry, mapping, path, ConfigError)
        kind = checked(section["kind"], _VARIABLE["kind"], f"{path}.kind", ConfigError) if "kind" in section else None
        given = _read(section, path, *_VARIABLES[kind])
        del given["kind"]
        variables.append(_build(BinaryVariableModel if kind == "binary" else ContinuousVariableModel, path, **given))

    attributes = []
    for path, entry in _listed(population.get("attributes", ()), f"{where}.attributes"):
        attribute = _read(entry, path, *_ATTRIBUTE)
        levels = tuple((str(label), share) for label, share in attribute.pop("levels").items())
        attributes.append(_build(AttributeModel, path, levels=levels, **attribute))
    outcomes = [
        _build(OutcomeModel, path, **_read(entry, path, *_OUTCOME))
        for path, entry in _listed(population.get("outcomes", ()), f"{where}.outcomes")
    ]
    parts = (tuple(strata), tuple(variables), tuple(attributes), tuple(outcomes))
    return _build(SyntheticPopulationSpec, where, domains, *parts, seed)
