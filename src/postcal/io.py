"""Delimited-file ingestion and interchange formats.

Every file read or written here (records, strata, draws, weights) is comma
separated with a header row.  On read, blank lines and lines starting with
'#' are skipped; written files put their run metadata (seed, config hash)
on such lines.  Fields are quoted as RFC 4180 says (the ``csv`` module's
default dialect), so a label may hold commas or doubled quotes; LF, CRLF
and CR line ends are all accepted; and an error in a row names it as
``file:line``, counting every line of the file.  Numeric values are written
with 17 significant digits so that re-reading reproduces the float64 values
exactly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .frame import CalibrationSpec, SampleSet, StratumSpec
from .hb import PosteriorDraws

MACHINE_FLOAT = "%.17g"


def format_machine(value: float) -> str:
    return MACHINE_FLOAT % value


@dataclass(frozen=True)
class ColumnRoles:
    """Declares which columns of the record file play which role."""

    stratum: str
    domain: str
    weight: str
    calibration: tuple[str, ...]
    attributes: tuple[str, ...] = ()
    outcomes: tuple[str, ...] = ()
    record_id: str | None = None


@dataclass(frozen=True)
class BandRule:
    """Materializes a banded categorical attribute from a numeric variable."""

    name: str
    source: str
    bands: tuple[tuple[str, float | None, float | None], ...]
    else_label: str = "none"

    def labels(self, column: np.ndarray) -> np.ndarray:
        """Label of every value as an object array: the first band, in
        declaration order, whose closed interval holds it, else
        ``else_label``."""
        column = np.asarray(column, dtype=float)
        masks = []
        for _, lo, hi in self.bands:
            mask = np.ones(column.shape, dtype=bool)
            if lo is not None:
                mask &= column >= lo
            if hi is not None:
                mask &= column <= hi
            masks.append(mask)
        # index one shared str object per label: a string array cast to
        # object would allocate one str per value
        B = len(self.bands)
        which = np.select(masks, range(B), B) if masks else np.full(column.shape, B)
        names = [label for label, _, _ in self.bands] + [self.else_label]
        return np.array(names, dtype=object)[which]


def derive_bands(
    rules, numeric: Mapping[str, np.ndarray], calibration: tuple[str, ...]
) -> tuple[dict[str, np.ndarray], tuple[str, ...]]:
    """Band attribute columns from the ``numeric`` columns by name, and the
    names of the bands whose source is a ``calibration`` variable.

    Bands are derived before a unit store is built, so sample records and
    population truths see identical attribute values.
    """
    bands = {}
    for rule in rules:
        if rule.source not in numeric:
            raise ConfigError(
                f"band rule {rule.name!r}: source {rule.source!r} is not a "
                f"numeric column"
            )
        bands[rule.name] = rule.labels(numeric[rule.source])
    return bands, tuple(rule.name for rule in rules if rule.source in calibration)


@dataclass
class IngestedSample:
    """Sample plus the metadata the pipeline needs alongside it."""

    sample: SampleSet
    record_ids: tuple[str, ...]
    strata_covariates: dict[str, np.ndarray]

    @property
    def spec(self) -> CalibrationSpec:
        return self.sample.calibration


def _read_table(path: Path) -> tuple[dict[str, list[str]], list[int]]:
    """Columns of a delimited file by header name, and each data row's line.

    One pass: every row's fields go onto one flat list, so column j of a
    k-column table is the strided slice ``flat[j::k]`` and no per-row list
    outlives its parse.
    """
    text, lines = [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                if line.strip() and not line.startswith("#"):
                    text.append(line)
                    lines.append(number)
    except UnicodeDecodeError as exc:
        raise DataError(_decode_error(path)) from exc
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    if len(text) < 2:
        raise DataError(f"{path}: no data rows")
    reader = csv.reader(text)
    header = next(reader)
    k = len(header)
    flat, counts = [], []
    for row in reader:
        flat.extend(row)
        counts.append(len(row))
    del lines[0]
    if counts.count(k) != len(counts):
        i = next(i for i, count in enumerate(counts) if count != k)
        raise DataError(f"{path}:{lines[i]}: {counts[i]} fields, header has {k}")
    return {name: flat[j::k] for j, name in enumerate(header)}, lines


def _decode_error(path: Path) -> str:
    """``file:line`` of the first byte that is not UTF-8, counting lines as
    the text reader does (LF, CRLF and CR all end one)."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start] + b"x").splitlines())
        return f"{path}:{line}: byte {data[exc.start]:#04x} is not UTF-8"
    return f"{path}: not UTF-8"


def _finite_or_none(raw: str) -> float | None:
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _float_column(raw: Sequence[str], path: Path, lines: list[int]) -> np.ndarray:
    """Parse a numeric column whole (numpy accepts the strings ``float``
    does); the first unparseable or non-finite entry is reported with its
    file line."""
    try:
        values = np.array(raw, dtype=float)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        i = next(i for i, x in enumerate(raw) if _finite_or_none(x) is None)
        raise DataError(f"{path}:{lines[i]}: {raw[i]!r} is not a finite number")
    return values


def _whole_column(raw: Sequence[str], what: str, path: Path, lines: list[int]) -> np.ndarray:
    """A numeric column whose entries must be integers; the first that is not
    is reported with its file line."""
    values = _float_column(raw, path, lines)
    fractional = np.flatnonzero(values != np.trunc(values))
    if fractional.size:
        i = fractional[0]
        raise DataError(f"{path}:{lines[i]}: {what} {raw[i]!r} is not an integer")
    return values


def _require_unique(ids: Sequence[str], what: str, path: Path, lines: list[int]) -> None:
    """Reject a repeated id, naming it and the file line that repeats it."""
    if len(set(ids)) == len(ids):
        return
    first: dict[str, int] = {}
    for i, x in enumerate(ids):
        if first.setdefault(x, i) != i:
            raise DataError(
                f"{path}:{lines[i]}: duplicate {what} id {x!r} "
                f"(first on line {lines[first[x]]})"
            )


def read_strata(path: str | Path) -> tuple[tuple[StratumSpec, ...], dict[str, np.ndarray]]:
    """Stratum metadata file: id, population_size, optional deff, covariates.

    Any additional numeric column is returned as a stratum-level covariate.
    An empty deff entry means 1.
    """
    path = Path(path)
    columns, lines = _read_table(path)
    missing = {"id", "population_size"} - set(columns)
    if missing:
        raise DataError(f"{path}: missing columns {sorted(missing)}")
    _require_unique(columns["id"], "stratum", path, lines)
    sizes = _whole_column(columns["population_size"], "population_size", path, lines)
    raw_deff = columns.get("deff", ("",) * len(lines))
    deff = _float_column(tuple(x or "1" for x in raw_deff), path, lines)
    strata = []
    for sid, size, d, line in zip(columns["id"], sizes.tolist(), deff.tolist(), lines):
        try:
            strata.append(StratumSpec(id=sid, population_size=int(size), deff=d))
        except DataError as exc:
            raise DataError(f"{path}:{line}: {exc}") from None
    covariates = {
        c: _float_column(values, path, lines)
        for c, values in columns.items()
        if c not in ("id", "population_size", "deff")
    }
    return tuple(strata), covariates


def read_sample(
    records_path: str | Path,
    strata_path: str | Path,
    roles: ColumnRoles,
    domain_order: tuple[str, ...] | None = None,
    band_rules: tuple[BandRule, ...] = (),
) -> IngestedSample:
    """Ingest unit records and stratum metadata into a validated sample.

    Columns are parsed whole and stratum and domain ids resolved to
    positions, keeping file order.  Band rules materialize derived
    categorical attributes (for example hours bands) at ingestion time, so
    cell membership stays fixed, and register them as calibration-derived
    when the source is a calibration variable.
    """
    records_path = Path(records_path)
    columns, lines = _read_table(records_path)
    needed = (
        {roles.stratum, roles.domain, roles.weight}
        | set(roles.calibration)
        | set(roles.attributes)
        | set(roles.outcomes)
    )
    if roles.record_id:
        needed.add(roles.record_id)
    missing = needed - set(columns)
    if missing:
        raise DataError(f"{records_path}: missing columns {sorted(missing)}")
    if roles.record_id:
        _require_unique(columns[roles.record_id], "record", records_path, lines)

    strata, covariates = read_strata(strata_path)
    seen_domains = list(dict.fromkeys(columns[roles.domain]))
    order = tuple(domain_order) if domain_order else tuple(sorted(seen_domains))
    unknown = set(seen_domains) - set(order)
    if unknown:
        raise DataError(
            f"{records_path}: records reference domains outside the declared "
            f"order: {sorted(unknown)}"
        )
    stratum_pos = {s.id: i for i, s in enumerate(strata)}
    unknown = set(columns[roles.stratum]) - set(stratum_pos)
    if unknown:
        raise DataError(
            f"{records_path}: records reference unknown strata: {sorted(unknown)}"
        )
    spec = CalibrationSpec(
        variable_names=tuple(roles.calibration), domain_order=order
    )
    domain_pos = {d: i for i, d in enumerate(order)}

    def numeric(name: str) -> np.ndarray:
        return _float_column(columns[name], records_path, lines)

    calib = {c: numeric(c) for c in roles.calibration}
    outcomes = {o: numeric(o) for o in roles.outcomes}
    attributes = {a: np.array(columns[a], dtype=object) for a in roles.attributes}
    bands, calibration_attributes = derive_bands(
        band_rules, {**outcomes, **calib}, roles.calibration
    )
    sample = SampleSet(
        strata=strata,
        calibration=spec,
        stratum_idx=[stratum_pos[s] for s in columns[roles.stratum]],
        domain_idx=[domain_pos[d] for d in columns[roles.domain]],
        weights=numeric(roles.weight),
        calib=np.column_stack(list(calib.values())),
        attributes={**attributes, **bands},
        outcomes=outcomes,
        calibration_attributes=calibration_attributes,
    )
    record_ids = (
        tuple(columns[roles.record_id])
        if roles.record_id
        else tuple(str(i + 1) for i in range(sample.n))
    )
    return IngestedSample(sample=sample, record_ids=record_ids, strata_covariates=covariates)


def write_draws(
    path: str | Path,
    draws: PosteriorDraws,
    spec: CalibrationSpec,
    metadata: dict | None = None,
) -> None:
    """Write a draw matrix: one row per draw, chain tag plus p block columns."""
    labels = spec.block_labels()
    if draws.p != len(labels):
        raise DataError(
            f"draw matrix width {draws.p} does not match layout p={len(labels)}"
        )
    write_table(
        path,
        ("chain",) + labels,
        (
            [str(int(tag))] + [format_machine(x) for x in row]
            for tag, row in zip(draws.chain_tags, draws.draws)
        ),
        metadata=metadata,
    )


def read_draws(path: str | Path, spec: CalibrationSpec) -> PosteriorDraws:
    """Read a draw matrix and validate it against the calibration layout."""
    path = Path(path)
    columns, lines = _read_table(path)
    expected = ("chain",) + spec.block_labels()
    header = tuple(columns)
    if header != expected:
        raise DataError(
            f"{path}: draw columns {header} do not match the expected layout "
            f"{expected}"
        )
    tags = _whole_column(columns["chain"], "chain tag", path, lines)
    values = [_float_column(columns[c], path, lines) for c in expected[1:]]
    return PosteriorDraws(draws=np.column_stack(values), chain_tags=tags.astype(int))


def write_weights(
    path: str | Path,
    record_ids,
    design_weights: np.ndarray,
    g_factors: np.ndarray,
    calibrated: np.ndarray,
    metadata: dict | None = None,
) -> None:
    """Posterior-mean calibrated weight export."""
    write_table(
        path,
        ["record_id", "design_weight", "g_factor", "calibrated_weight"],
        (
            [rid, format_machine(w), format_machine(g), format_machine(wc)]
            for rid, w, g, wc in zip(record_ids, design_weights, g_factors, calibrated)
        ),
        metadata=metadata,
    )


def write_table(
    path: str | Path,
    header,
    rows,
    metadata: dict | None = None,
) -> None:
    """Generic delimited table writer, the metadata first as ``# key=value``
    comment lines in key order."""
    metadata = metadata or {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"# {key}={metadata[key]}\n" for key in sorted(metadata))
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, payload: dict) -> None:
    """A JSON document with sorted keys, two-space indent and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
