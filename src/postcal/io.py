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

A chunk takes one of two paths.  After the header, the lines are read
``BLOCK_ROWS`` at a time.  A *plain* chunk has no quote, NUL or byte that
is not UTF-8, no line that is blank, a '#' line or starts with whitespace,
and none longer than the csv module's field size limit.  A plain chunk of
a record file is split with one ``str.split`` when it also has one line end
throughout (all LF or all CRLF) and as many fields on every line as the
header has: the csv module reads such a line as exactly those fields on
every supported Python.  A plain chunk of a draw file, all numbers, goes to
NumPy's C reader (``np.loadtxt``), which makes no string and reads LF, CRLF
and CR line ends as the csv module does.  From the first chunk that its
path refuses, the rest of the file goes through ``csv.reader`` over the
kept lines, so quoted fields, comments, ragged rows and every fault's
``file:line`` come out as the csv module makes them.  A draw chunk leaves
NumPy's path where its reader refuses a spelling ``float`` reads (``1_0``,
non-ASCII digits) or the chunk may hold a fault (a row of another width, a
non-finite value, a chain tag that is not an integer below 2**53 in
magnitude), so that the checks of the csv path name every fault.  Record
files keep the split: their labels need strings.  A header that repeats a
name is refused.
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
from .frame import CalibrationSpec, SampleSet, StratumSpec, code_labels, compact_codes, in_interval
from .hb import PosteriorDraws

MACHINE_FLOAT = "%.17g"


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
        masks = [in_interval(column, lo, hi) for _, lo, hi in self.bands]
        B = len(self.bands)
        which = np.select(masks, range(B), B) if masks else np.full(column.shape, B)
        return compact_codes([label for label, _, _ in self.bands] + [self.else_label], which)


def derive_bands(
    rules, numeric: Mapping[str, np.ndarray], calibration: tuple[str, ...], attributes: Mapping
) -> tuple[dict[str, tuple[tuple, np.ndarray]], tuple[str, ...]]:
    """The ``attributes`` columns, as ``(levels, codes)`` by name, then the
    band columns derived from the ``numeric`` columns by name; and the names
    of the bands whose source is a ``calibration`` variable.  A band that
    takes the name of a column or an earlier band is a ConfigError.

    Bands are derived before a unit store is built, so sample records and
    population truths see identical attribute values.
    """
    columns = dict(attributes)
    for rule in rules:
        if rule.name in columns or rule.name in numeric:
            raise ConfigError(f"band rule {rule.name!r}: the name of a column or an earlier band")
        if rule.source not in numeric:
            raise ConfigError(
                f"band rule {rule.name!r}: source {rule.source!r} is not a "
                f"numeric column"
            )
        columns[rule.name] = rule.codes(numeric[rule.source])
    return columns, tuple(rule.name for rule in rules if rule.source in calibration)


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


def _plain_text(lines: list[str]) -> tuple[str, str] | None:
    """The lines of a plain chunk joined, by the checks that need no split
    (see the module docstring), and its first line's end, which the text
    gains where the file's last line lacks it; None when the chunk is empty
    or fails one.  That a CRLF chunk has no other line end is for the
    split to check, in counting fields; NumPy's reader reads any mix."""
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
    return text, end


def _plain_fields(lines: list[str], k: int) -> list[str] | None:
    """The fields of a plain chunk of lines on one flat list, so that column
    j is ``flat[j::k]``; None when the chunk is empty or not plain."""
    if (plain := _plain_text(lines)) is None:
        return None
    text, end = plain
    # every line end stays on the last field of its line, so the lines have
    # k fields each, all ending in ``end``, exactly when every k-th field holds
    # one; replacing "\n" alone takes less than half the time of "\r\n"
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


def _row_blocks(path: Path, parse=None) -> Iterator:
    """The header of a delimited file, then its data rows in blocks of
    ``BLOCK_ROWS``, each as its columns by header name (lists of fields) or
    as ``parse`` gives it, and its rows' file lines (a ``range`` or a list).

    After a header the csv module parsed cleanly, the lines are read in
    chunks of ``BLOCK_ROWS``, and a chunk is one block: ``parse(lines, k)``
    if given, else the fields of a plain chunk (``_plain_fields``).  From
    the first chunk that gives None, one ``csv.reader`` runs over the kept
    lines of the rest of the file.  A row with the wrong field count or
    that the csv module cannot parse (an unmatched quote whose field runs
    past its size limit), or a line with a byte that is not UTF-8, ends the
    rows: its block is cut before it and the fault is raised when the next
    block is asked for, so a consumer that checks every block it gets
    reports the first fault in file order.  A header that repeats a name is
    refused when the first block is asked for, after the consumer's own
    checks of the header.
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
        header_line = numbers[0] if header else None
        # the file line that opens the next chunk, while the chunks are plain
        line = numbers[-1] + 1 if header and not not_utf8 else None

        def columns(flat: list[str]) -> dict[str, list[str]] | None:
            return {name: flat[j::k] for j, name in enumerate(header)} if flat else None

        def next_block() -> tuple[object, Sequence[int], str | None]:
            nonlocal reader, line
            if line is not None:
                chunk = list(islice(fh, BLOCK_ROWS))
                block = parse(chunk, k) if parse else columns(_plain_fields(chunk, k))
                if block is not None:
                    line += len(chunk)
                    return block, range(line - len(chunk), line), None
                reader = csv.reader(_kept_lines(chain(chunk, fh), path, numbers, not_utf8, line))
                line = None
            flat, lines, fault = _next_block(reader, k, numbers)
            return columns(flat), lines, fault

        block, lines, fault = next_block()
        if block is None and fault is None:
            raise DataError(not_utf8[0] if not_utf8 else f"{path}: no data rows")
        yield header
        if len(set(header)) != k:
            name = next(name for j, name in enumerate(header) if name in header[:j])
            raise DataError(f"{path}:{header_line}: header repeats column {name!r}")
        while block is not None or fault is not None:
            if block is not None:
                yield block, lines
                block = None  # only one block's fields are alive at a time
            if fault is not None:
                raise DataError(f"{path}:{lines[-1]}: {fault}")
            block, lines, fault = next_block()
        if not_utf8:
            raise DataError(not_utf8[0])


def _next_block(reader, k: int, numbers: list[int]) -> tuple[list[str], list[int], str | None]:
    """The fields of the next ``BLOCK_ROWS`` rows of ``k`` fields on one flat
    list, so that column j is ``flat[j::k]``, the file line each row starts
    on, and the fault of a row with another field count or that the reader
    cannot parse, which ends the block with its line last.  ``numbers``
    gets the file line of each line the reader consumes; a row starts on
    the first of those it took.  Each row's list is dropped as soon as it
    is parsed: a block of them alive would make the cyclic garbage
    collector scan them over and over."""
    flat: list[str] = []
    lines: list[int] = []
    numbers.clear()
    start = base = reader.line_num
    try:
        for row in islice(reader, BLOCK_ROWS):
            lines.append(numbers[start - base])
            start = reader.line_num
            if len(row) != k:
                return flat, lines, f"{len(row)} fields, header has {k}"
            flat.extend(row)
    except csv.Error as exc:
        lines.append(numbers[start - base])
        return flat, lines, str(exc)
    return flat, lines, None


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


def _not_whole(values: np.ndarray) -> np.ndarray:
    """Where ``values`` are not integers below 2**53 in magnitude, the ones
    float64 holds each exactly (2**53 + 1 reads as 2**53)."""
    return (values != np.trunc(values)) | (np.abs(values) >= 2.0**53)


def _wholes(raw: Sequence[str], what: str, faults: list) -> np.ndarray | None:
    """A numeric column whose entries must be integers that read exactly."""
    values = _floats(raw, faults)
    wrong = () if values is None else np.flatnonzero(_not_whole(values))
    if len(wrong):
        i = wrong[0]
        why = "not an integer" if values[i] % 1 else "not below 2**53 in magnitude"
        faults.append((i, f"{what} {raw[i]!r} is {why}"))
    return values


def _add_ids(block: Sequence[str], what: str, ids: list, seen: set, tables: list, faults: list) -> None:
    """Append a block's ids to ``ids`` (``seen`` is their set); ``tables``
    holds the rows' file lines block by block, this block's last.  A fault
    names the first id that repeats one and the line of its first copy."""
    size = len(seen)
    seen.update(block)
    if len(seen) - size != len(block):
        earlier = set(ids)
        first: dict[str, int] = {}
        for i, x in enumerate(block):
            if x in earlier:
                row = ids.index(x)
            elif first.setdefault(x, i) != i:
                row = len(ids) + first[x]
            else:
                continue
            for table in tables:  # the row's block, and its place there
                if row < len(table):
                    break
                row -= len(table)
            faults.append((i, f"duplicate {what} id {x!r} (first on line {table[row]})"))
            break
    ids.extend(block)


def _raise_first(faults: list, path: Path, lines: Sequence[int]) -> None:
    if faults:
        i, message = min(faults)
        raise DataError(f"{path}:{lines[i]}: {message}")


def _positions(levels: dict, blocks: list[np.ndarray], position: Mapping) -> np.ndarray:
    """The positions of coded id blocks, ``position`` giving each level's."""
    return np.array([position[x] for x in levels], dtype=np.intp)[np.concatenate(blocks)]


def read_strata(path: str | Path) -> tuple[tuple[StratumSpec, ...], dict[str, np.ndarray], list[int]]:
    """Stratum metadata file: id, population_size, optional deff, covariates.

    Any additional numeric column is returned as a stratum-level covariate,
    and each stratum's file line is returned with them.  An empty deff entry
    means 1.
    """
    path = Path(path)
    columns, lines = _read_table(path)
    missing = {"id", "population_size"} - set(columns)
    if missing:
        raise DataError(f"{path}: missing columns {sorted(missing)}")
    faults: list = []
    _add_ids(columns["id"], "stratum", [], set(), [lines], faults)
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
        except DataError as error:
            raise error.within(f"{path}:{line}: ", f"stratum {sid!r}: ")
    return tuple(strata), covariates, lines


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
        tables: list[Sequence[int]] = []  # each block's row lines
        for columns, lines in blocks:
            faults: list = []
            for name, parsed in floats.items():
                parsed.append(_floats(columns[name], faults))
            weights = floats[roles.weight][-1]
            if weights is not None and not (weights > 0).all():
                i = int(np.argmin(weights > 0))
                faults.append((i, f"design weight {columns[roles.weight][i]!r} is not > 0"))
            if roles.record_id:
                # a range where every row took one line
                compact = lines[-1] - lines[0] == len(lines) - 1
                tables.append(range(lines[0], lines[-1] + 1) if compact else lines)
                _add_ids(columns[roles.record_id], "record", ids, seen, tables, faults)
            _raise_first(faults, records_path, lines)
            for name, (levels, coded) in codes.items():
                coded.append(code_labels(columns[name], levels))
            # the next block is read while this one would still be alive
            del columns
    del seen, tables  # freed before the store is built

    strata, covariates, strata_lines = read_strata(strata_path)
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
    stratum_idx = _positions(*codes[roles.stratum], stratum_pos)
    counts = np.bincount(stratum_idx, minlength=len(strata)).tolist()
    for stratum, n_h, line in zip(strata, counts, strata_lines):
        if n_h > stratum.population_size:
            raise DataError(
                f"{n_h} sampled records exceed the population size {stratum.population_size}",
                f"{strata_path}:{line}: ", f"stratum {stratum.id!r}: ",
            )
    spec = CalibrationSpec(
        variable_names=tuple(roles.calibration), domain_order=order
    )
    for name, parsed in floats.items():
        floats[name] = np.concatenate(parsed)
    calib = {c: floats[c] for c in roles.calibration}
    outcomes = {o: floats[o] for o in roles.outcomes}
    attributes = {}
    for name in roles.attributes:
        levels, coded = codes[name]
        attributes[name] = compact_codes(levels, np.concatenate(coded))
    attributes, calibration_attributes = derive_bands(
        band_rules, {**outcomes, **calib}, roles.calibration, attributes
    )
    try:
        sample = SampleSet(
            strata=strata,
            calibration=spec,
            stratum_idx=stratum_idx,
            domain_idx=_positions(*codes[roles.domain], {d: i for i, d in enumerate(order)}),
            weights=floats[roles.weight],
            calib=np.column_stack(list(calib.values())),
            outcomes=outcomes,
            calibration_attributes=calibration_attributes,
            attribute_codes=attributes,
        )
    except DataError as error:  # a refusal of the records as a whole
        raise error.within(f"{records_path}: ")
    record_ids = tuple(ids) if roles.record_id else tuple(str(i + 1) for i in range(sample.n))
    return IngestedSample(sample=sample, record_ids=record_ids, strata_covariates=covariates)


# A field is quoted, as the csv module's default dialect quotes it, only when
# it holds one of these.
_QUOTED = re.compile('[,"\r\n]')


def _formatted(first_format: str, first, columns) -> Iterator[str]:
    """Rows of ``first`` (tags or csv-ready ids) then the float ``columns``
    as text, in blocks of ``BLOCK_ROWS``: what csv.writer writes for
    ``MACHINE_FLOAT`` fields, but one ``%`` per block over its fields,
    interleaved row by row, with the floats from ``tolist()``."""
    line = first_format + f",{MACHINE_FLOAT}" * len(columns) + "\r\n"
    width = 1 + len(columns)
    for start in range(0, len(first), BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        ids = first[block]
        fields = [None] * (len(ids) * width)
        fields[::width] = ids
        for j, column in enumerate(columns, 1):
            fields[j::width] = column[block].tolist()
        yield line * len(ids) % tuple(fields)


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
    against the calibration layout (see ``_draw_rows``)."""
    path = Path(path)
    expected = ("chain",) + spec.block_labels()
    with closing(_row_blocks(path, _draw_rows)) as blocks:
        header = tuple(next(blocks))
        if header != expected:
            raise DataError(
                f"{path}: draw columns {header} do not match the expected layout "
                f"{expected}"
            )
        tags, values = [], []
        for block, lines in blocks:
            if isinstance(block, dict):
                faults: list = []
                columns = [_wholes(block["chain"], "chain tag", faults)]
                columns += [_floats(block[c], faults) for c in expected[1:]]
                _raise_first(faults, path, lines)
                block = np.column_stack(columns)
            tags.append(block[:, 0])
            values.append(block[:, 1:])
    return PosteriorDraws(
        draws=np.concatenate(values), chain_tags=np.concatenate(tags).astype(int)
    )


def _draw_rows(lines: list[str], k: int) -> np.ndarray | None:
    """A plain chunk of a draw file as an (n, k) array from NumPy's C reader;
    None, for the csv module and ``_floats``, where the reader refuses a
    spelling ``float`` reads (``1_0``, non-ASCII digits) or the chunk may
    hold a fault: another shape, a non-finite value or a tag ``_wholes``
    refuses.  NumPy reads LF, CRLF and CR line ends as the csv module does,
    so a chunk may mix them."""
    # none of the ASCII controls NumPy strips as space and ``float`` does not
    # (four ``in`` scans beat one regex search)
    if (plain := _plain_text(lines)) is None or any(c in plain[0] for c in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        rows = np.loadtxt(lines, delimiter=",", dtype=float, comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape != (len(lines), k) or not np.isfinite(rows).all() or _not_whole(rows[:, 0]).any():
        return None
    return rows


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
