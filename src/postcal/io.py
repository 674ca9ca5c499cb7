"""Delimited-file ingestion and interchange formats.

Every file read or written here (records, strata, draws, weights) is comma
separated with a header row.  On read, blank lines and lines starting with
'#' are skipped; written files put their run metadata (seed, config hash)
on such lines.  Fields are quoted as RFC 4180 says (the ``csv`` module's
default dialect), so a label may hold commas or doubled quotes; LF, CRLF
and CR line ends are all accepted; and an error in a row names it as
``file:line``, counting every line of the file, by the first line of a row
whose quoted field spans lines.  Files are read in blocks
of ``BLOCK_ROWS`` rows: a block's fields are held as strings only while its
columns are parsed and coded, and of several faults in a file the first in
file order is reported.  Numeric values are written with 17 significant
digits so that re-reading reproduces the float64 values exactly.

A block takes one of two paths.  After the header, the lines are read
``BLOCK_ROWS`` at a time, and a *plain* chunk is split with one
``str.split``: it has no quote, NUL or byte that is not UTF-8, no line that
is blank, a '#' line or starts with whitespace, none longer than the csv
module's field size limit, one line end throughout (all LF or all CRLF),
and as many fields on every line as the header has.  The csv module reads
such a line as exactly those fields on every supported Python.  From the
first chunk that is not plain, the rest of the file goes through
``csv.reader`` over the kept lines, so quoted fields, comments, ragged rows
and every fault's ``file:line`` come out as the csv module makes them.
"""

from __future__ import annotations

import csv
import json
import math
import re
from contextlib import closing
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .frame import CalibrationSpec, SampleSet, StratumSpec, code_labels, compact_codes
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

    def codes(self, column: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
        """Levels (the band labels in declaration order, then
        ``else_label``) and each value's position in them: the first band
        whose closed interval holds it, else ``else_label``."""
        column = np.asarray(column, dtype=float)
        masks = []
        for _, lo, hi in self.bands:
            mask = np.ones(column.shape, dtype=bool)
            if lo is not None:
                mask &= column >= lo
            if hi is not None:
                mask &= column <= hi
            masks.append(mask)
        B = len(self.bands)
        which = np.select(masks, range(B), B) if masks else np.full(column.shape, B)
        return compact_codes([label for label, _, _ in self.bands] + [self.else_label], which)


def derive_bands(
    rules, numeric: Mapping[str, np.ndarray], calibration: tuple[str, ...]
) -> tuple[dict[str, tuple[tuple, np.ndarray]], tuple[str, ...]]:
    """Band attribute columns, as ``(levels, codes)``, from the ``numeric``
    columns by name, and the names of the bands whose source is a
    ``calibration`` variable.

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
        bands[rule.name] = rule.codes(numeric[rule.source])
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


# Rows per block of the record and draw readers: a block's fields are held as
# strings only while its columns are parsed and coded.  On the benchmark's
# 50,000-record sample, blocks of 2,048 rather than 8,192 rows take the peak
# RSS of ``infer`` from 57.8 to 55.9 MiB at the same speed.
BLOCK_ROWS = 2048

# A byte that is not UTF-8, as the "surrogateescape" error handler decodes it:
# the first such byte of the file is the first of these in the decoded text.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def _open(path: Path):
    try:
        return open(path, newline="", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror or exc})") from exc


def _kept_lines(
    fh, path: Path, numbers: list[int], not_utf8: list[str], start: int = 1
) -> Iterator[str]:
    """The lines of ``fh``, the first of them file line ``start``, that are
    neither blank nor '#' lines, each one's file line appended to
    ``numbers``; a line with a byte that is not UTF-8 ends them, its fault
    appended to ``not_utf8``."""
    for number, line in enumerate(fh, start):
        byte = not line.isascii() and _NOT_UTF8.search(line)
        if byte:
            not_utf8.append(f"{path}:{number}: byte {ord(byte[0]) - 0xDC00:#04x} is not UTF-8")
            return
        if line.strip() and not line.startswith("#"):
            numbers.append(number)
            yield line


# A line that starts blank, with whitespace or with '#', after the first
_SKIPPED_START = re.compile(r"\n[\s#]")


def _plain_fields(lines: list[str], k: int) -> list[str] | None:
    """The fields of a plain chunk of lines (see the module docstring; the
    last line of the file may lack its end) on one flat list, so that
    column j is ``flat[j::k]``; None when the chunk is empty or not plain."""
    if not lines:
        return None
    end = "\r\n" if lines[0].endswith("\r\n") else "\n"
    text = "".join(lines)
    if not text.endswith(("\r", "\n")):
        text += end
    if (
        '"' in text
        or "\0" in text
        or (end == "\n" and "\r" in text)
        or (not text.isascii() and _NOT_UTF8.search(text))
        or text[0].isspace()
        or text[0] == "#"
        or _SKIPPED_START.search(text)
    ):
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    # every line end stays on the last field of its line, so the lines have
    # k fields each exactly when every k-th field holds one; replacing "\n"
    # alone takes less than half the time of replacing "\r\n"
    flat = text.replace("\n", "\n,").split(",")
    flat.pop()
    n = len(lines)
    if len(flat) != n * k:
        return None
    last = "".join(flat[k - 1 :: k])
    if last.count(end) != n:
        return None
    flat[k - 1 :: k] = last.split(end)[:-1]
    return flat


def _row_starts(path: Path, stop: int) -> list[int]:
    """The file line on which each of the first ``stop`` data rows starts,
    counted by reading the file again: a quoted field may span lines, so a
    row's line is the first of those its reader consumed.  A row the csv
    module cannot parse ends them, with its own line."""
    numbers: list[int] = []
    starts: list[int] = []
    with _open(path) as fh:
        reader = csv.reader(_kept_lines(fh, path, numbers, []))
        consumed = 0
        try:
            for _ in islice(reader, stop + 1):  # the header, then the rows
                starts.append(numbers[consumed])
                consumed = reader.line_num
        except csv.Error:
            starts.append(numbers[consumed])
    return starts[1:]


class _RowLines:
    """The file lines of a block's ``n`` rows, by row position in the block.

    They are the block's kept lines while each row took one line.  When a
    quoted field spans lines there are more kept lines than rows, and the
    rows' first lines are counted again by ``_row_starts``; only a fault, or
    a whole-file read, asks for them.
    """

    def __init__(self, path: Path, kept: list[int], first: int, n: int):
        self.path, self.kept, self.first, self.n = path, kept, first, n

    def __getitem__(self, i: int) -> int:
        if len(self.kept) != self.n:
            self.kept = _row_starts(self.path, self.first + self.n)[self.first :]
        return self.kept[i]


def _row_blocks(path: Path) -> Iterator:
    """The header of a delimited file, then its data rows in blocks of
    ``BLOCK_ROWS``, each as its columns by header name (lists of fields)
    and its rows' file lines (a ``range`` or ``_RowLines``).

    After a header the csv module parsed cleanly, the lines are read in
    chunks of ``BLOCK_ROWS``, and a plain chunk (``_plain_fields``) is one
    block of as many rows.  From the first chunk that is not plain, one
    ``csv.reader`` runs over the kept lines of the rest of the file.  A row
    with the wrong field count or that the csv module cannot parse (an
    unmatched quote whose field runs past its size limit), or a line with a
    byte that is not UTF-8, ends the rows: its block is cut before it and
    the fault is raised when the next block is asked for, so a consumer
    that checks every block it gets reports the first fault in file order.
    """
    numbers: list[int] = []
    not_utf8: list[str] = []
    with _open(path) as fh:
        reader = csv.reader(_kept_lines(fh, path, numbers, not_utf8))
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise DataError(f"{path}:{numbers[0]}: {exc}") from None
        k = len(header or ())
        # the file line that opens the next chunk, while the chunks are plain
        line = numbers[-1] + 1 if header and not not_utf8 else None
        first = 0  # the data row that opens the block

        def next_block() -> tuple[list[str], Sequence[int], str | None]:
            nonlocal reader, line, first
            if line is not None:
                chunk = list(islice(fh, BLOCK_ROWS))
                flat = _plain_fields(chunk, k)
                if flat is not None:
                    first += len(chunk)
                    line += len(chunk)
                    return flat, range(line - len(chunk), line), None
                reader = csv.reader(_kept_lines(chain(chunk, fh), path, numbers, not_utf8, line))
                line = None
            numbers.clear()
            flat, fault = _next_block(reader, k)
            n = len(flat) // k if flat else 0  # k is 0 in a file with no header
            # the lines of the block's rows, and of the faulty row that ends it
            lines = _RowLines(path, numbers.copy(), first, n + (fault is not None))
            first += n
            return flat, lines, fault

        flat, lines, fault = next_block()
        if not flat and fault is None:
            raise DataError(not_utf8[0] if not_utf8 else f"{path}: no data rows")
        yield header
        while flat or fault is not None:
            n = len(flat) // k
            if flat:
                columns = {name: flat[j::k] for j, name in enumerate(header)}
                flat = None  # only one block's fields are alive at a time
                yield columns, lines
                columns = None
            if fault is not None:
                raise DataError(f"{path}:{lines[n]}: {fault}")
            flat, lines, fault = next_block()
        if not_utf8:
            raise DataError(not_utf8[0])


def _next_block(reader, k: int) -> tuple[list[str], str | None]:
    """The fields of the next ``BLOCK_ROWS`` rows of ``k`` fields on one flat
    list, so that column j is ``flat[j::k]``, and the fault of a row with
    another field count or that the reader cannot parse, which ends the
    block.  Each row's list is dropped as soon as it is parsed: a block of
    them alive would make the cyclic garbage collector scan them over and
    over."""
    flat: list[str] = []
    try:
        for row in islice(reader, BLOCK_ROWS):
            if len(row) != k:
                return flat, f"{len(row)} fields, header has {k}"
            flat.extend(row)
    except csv.Error as exc:
        return flat, str(exc)
    return flat, None


def _read_table(path: Path) -> tuple[dict[str, list[str]], list[int]]:
    """Columns of a delimited file by header name, and each data row's line:
    the blocks of ``_row_blocks`` collected, for files read whole."""
    with closing(_row_blocks(path)) as blocks:
        columns: dict[str, list[str]] = {name: [] for name in next(blocks)}
        lines: list[int] = []
        for block, block_lines in blocks:
            for name, values in block.items():
                columns[name].extend(values)
            lines.extend(block_lines)
    return columns, lines


def _finite_or_none(raw: str) -> float | None:
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


# A block's checks put their first fault each onto a list of (row, message)
# pairs; ``_raise_first`` reports the earliest row's, so that of several
# faults the first in file order is named.


def _floats(raw: Sequence[str], faults: list) -> np.ndarray | None:
    """Parse a numeric column whole (numpy accepts the strings ``float``
    does); None, with a fault, when an entry is unparseable or non-finite."""
    try:
        values = np.array(raw, dtype=float)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        i = next(i for i, x in enumerate(raw) if _finite_or_none(x) is None)
        faults.append((i, f"{raw[i]!r} is not a finite number"))
        return None
    return values


def _wholes(raw: Sequence[str], what: str, faults: list) -> np.ndarray | None:
    """A numeric column whose entries must be integers."""
    values = _floats(raw, faults)
    if values is not None:
        fractional = np.flatnonzero(values != np.trunc(values))
        if fractional.size:
            i = fractional[0]
            faults.append((i, f"{what} {raw[i]!r} is not an integer"))
    return values


def _add_ids(
    block: Sequence[str], what: str, ids: list, seen: set, path: Path, lines: Sequence[int], faults: list
) -> None:
    """Append a block's ids to ``ids`` (``seen`` is their set); a fault
    names the first id that repeats one and the line of its first copy."""
    fresh = set(block)
    if len(fresh) != len(block) or not seen.isdisjoint(fresh):
        first: dict[str, int] = {}
        for i, x in enumerate(block):
            if x in seen:
                line = _row_starts(path, ids.index(x) + 1)[-1]
            elif first.setdefault(x, i) != i:
                line = lines[first[x]]
            else:
                continue
            faults.append((i, f"duplicate {what} id {x!r} (first on line {line})"))
            break
    seen |= fresh
    ids.extend(block)


def _raise_first(faults: list, path: Path, lines: Sequence[int]) -> None:
    if faults:
        i, message = min(faults)
        raise DataError(f"{path}:{lines[i]}: {message}")


def _positions(levels: dict, blocks: list[np.ndarray], position: Mapping) -> np.ndarray:
    """The positions of coded id blocks, ``position`` giving each level's."""
    return np.array([position[x] for x in levels], dtype=np.intp)[np.concatenate(blocks)]


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
    faults: list = []
    _add_ids(columns["id"], "stratum", [], set(), path, lines, faults)
    sizes = _wholes(columns["population_size"], "population_size", faults)
    raw_deff = columns.get("deff", ("",) * len(lines))
    deff = _floats(tuple(x or "1" for x in raw_deff), faults)
    covariates = {
        c: _floats(values, faults)
        for c, values in columns.items()
        if c not in ("id", "population_size", "deff")
    }
    _raise_first(faults, path, lines)
    strata = []
    for sid, size, d, line in zip(columns["id"], sizes.tolist(), deff.tolist(), lines):
        try:
            strata.append(StratumSpec(id=sid, population_size=int(size), deff=d))
        except DataError as exc:
            raise DataError(f"{path}:{line}: {exc}") from None
    return tuple(strata), covariates


def read_sample(
    records_path: str | Path,
    strata_path: str | Path,
    roles: ColumnRoles,
    domain_order: tuple[str, ...] | None = None,
    band_rules: tuple[BandRule, ...] = (),
) -> IngestedSample:
    """Ingest unit records and stratum metadata into a validated sample.

    The records are read in blocks of ``BLOCK_ROWS`` rows, keeping file
    order: each block's numeric columns are parsed, and its stratum, domain
    and attribute columns coded, before the next block is read, so only the
    record ids outlive their block as strings.  Stratum and domain ids are
    then resolved to positions.  Band rules materialize derived categorical
    attributes (for example hours bands) at ingestion time, so cell
    membership stays fixed, and register them as calibration-derived when
    the source is a calibration variable.
    """
    records_path = Path(records_path)
    numeric = dict.fromkeys((*roles.calibration, *roles.outcomes, roles.weight))
    categorical = dict.fromkeys((roles.stratum, roles.domain, *roles.attributes))
    with closing(_row_blocks(records_path)) as blocks:
        needed = set(numeric) | set(categorical) | ({roles.record_id} - {None})
        missing = needed - set(next(blocks))
        if missing:
            raise DataError(f"{records_path}: missing columns {sorted(missing)}")
        floats: dict[str, list] = {name: [] for name in numeric}
        codes: dict[str, tuple[dict, list]] = {name: ({}, []) for name in categorical}
        ids: list[str] = []
        seen: set[str] = set()
        for columns, lines in blocks:
            faults: list = []
            for name, parsed in floats.items():
                parsed.append(_floats(columns[name], faults))
            if roles.record_id:
                _add_ids(columns[roles.record_id], "record", ids, seen, records_path, lines, faults)
            _raise_first(faults, records_path, lines)
            for name, (levels, coded) in codes.items():
                coded.append(code_labels(columns[name], levels))
            # the next block is read while this one would still be alive
            del columns
    del seen  # freed before the store is built

    strata, covariates = read_strata(strata_path)
    domain_levels = codes[roles.domain][0]
    order = tuple(domain_order) if domain_order else tuple(sorted(domain_levels))
    unknown = set(domain_levels) - set(order)
    if unknown:
        raise DataError(
            f"{records_path}: records reference domains outside the declared "
            f"order: {sorted(unknown)}"
        )
    stratum_pos = {s.id: i for i, s in enumerate(strata)}
    unknown = set(codes[roles.stratum][0]) - set(stratum_pos)
    if unknown:
        raise DataError(
            f"{records_path}: records reference unknown strata: {sorted(unknown)}"
        )
    spec = CalibrationSpec(
        variable_names=tuple(roles.calibration), domain_order=order
    )
    for name, parsed in floats.items():
        floats[name] = np.concatenate(parsed)
    calib = {c: floats[c] for c in roles.calibration}
    outcomes = {o: floats[o] for o in roles.outcomes}
    bands, calibration_attributes = derive_bands(
        band_rules, {**outcomes, **calib}, roles.calibration
    )
    attributes = {}
    for name in roles.attributes:
        levels, coded = codes[name]
        attributes[name] = compact_codes(levels, np.concatenate(coded))
    sample = SampleSet(
        strata=strata,
        calibration=spec,
        stratum_idx=_positions(*codes[roles.stratum], stratum_pos),
        domain_idx=_positions(*codes[roles.domain], {d: i for i, d in enumerate(order)}),
        weights=floats[roles.weight],
        calib=np.column_stack(list(calib.values())),
        outcomes=outcomes,
        calibration_attributes=calibration_attributes,
        attribute_codes={**attributes, **bands},
    )
    record_ids = tuple(ids) if roles.record_id else tuple(str(i + 1) for i in range(sample.n))
    return IngestedSample(sample=sample, record_ids=record_ids, strata_covariates=covariates)


# A field is quoted, as the csv module's default dialect quotes it, only when
# it holds one of these.
_QUOTED = re.compile('[,"\r\n]')


def _formatted(first_format: str, first, columns) -> Iterator[str]:
    """Rows of ``first`` (tags or csv-ready ids) then the float ``columns``
    as text, in blocks of ``BLOCK_ROWS``: what csv.writer writes for
    ``format_machine`` fields, but one ``%`` over ``tolist()`` floats per row."""
    line = first_format + f",{MACHINE_FLOAT}" * len(columns) + "\r\n"
    for start in range(0, len(first), BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        yield "".join([line % row for row in zip(first[block], *(c[block].tolist() for c in columns))])


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
    text = _formatted("%d", draws.chain_tags.tolist(), draws.draws.T)
    write_table(path, ("chain",) + labels, (), metadata, text)


def read_draws(path: str | Path, spec: CalibrationSpec) -> PosteriorDraws:
    """Read a draw matrix, in blocks of ``BLOCK_ROWS`` rows, and validate it
    against the calibration layout."""
    path = Path(path)
    expected = ("chain",) + spec.block_labels()
    with closing(_row_blocks(path)) as blocks:
        header = tuple(next(blocks))
        if header != expected:
            raise DataError(
                f"{path}: draw columns {header} do not match the expected layout "
                f"{expected}"
            )
        tags, values = [], []
        for columns, lines in blocks:
            faults: list = []
            tags.append(_wholes(columns["chain"], "chain tag", faults))
            block = [_floats(columns[c], faults) for c in expected[1:]]
            _raise_first(faults, path, lines)
            values.append(np.column_stack(block))
            del columns
    return PosteriorDraws(
        draws=np.concatenate(values), chain_tags=np.concatenate(tags).astype(int)
    )


def write_weights(
    path: str | Path,
    record_ids,
    design_weights: np.ndarray,
    g_factors: np.ndarray,
    calibrated: np.ndarray,
    metadata: dict | None = None,
) -> None:
    """Posterior-mean calibrated weight export."""
    if _QUOTED.search("".join(record_ids)):
        record_ids = ['"' + x.replace('"', '""') + '"' if _QUOTED.search(x) else x for x in record_ids]
    header = ["record_id", "design_weight", "g_factor", "calibrated_weight"]
    text = _formatted("%s", record_ids, (design_weights, g_factors, calibrated))
    write_table(path, header, (), metadata, text)


def write_table(path: str | Path, header, rows, metadata: dict | None = None, text=()) -> None:
    """Generic delimited table writer, the metadata first as ``# key=value``
    comment lines in key order; ``text`` is rows already formatted."""
    metadata = metadata or {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"# {key}={metadata[key]}\n" for key in sorted(metadata))
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
        fh.writelines(text)


def write_json(path: str | Path, payload: dict) -> None:
    """A JSON document with sorted keys, two-space indent and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
