"""Survey-unit store, calibration design vectors, and cells.

``SampleSet`` is the one store of survey units, whether a drawn sample or a
census population with every weight 1.  It carries its ``CalibrationSpec``
(variable names and domain order) and owns ``column``, the lookup of a
numeric column by name, so one cell filter reads samples and populations.

The calibration system stacks V variables over D geographic domains into a
single constraint vector of length p = V * D.  Block order is variable-major:
variable v occupies 0-based positions v*D .. v*D + D - 1, and a record's
design vector y_i holds its value of variable v at v*D + d_i, d_i its domain.
``block_sums`` reduces over that layout without forming design vectors;
``build_design_vector`` and ``SampleSet.design_matrix`` are test references.
A store also names its ``calibration_attributes``, the attribute columns
derived from calibration variables, which decide tier 2-CA over 2-NCA.
A store keeps each attribute column only as codes, ``SampleSet.attribute_codes``
(its levels, and each unit's position in them), and cell filters read those
codes.  ``evaluate_cells`` gives a run's cells their masks, each the AND of
clause masks made once per run and shared among the cells, so every
reduction after it reads only a cell's rows; ``CellRows`` concatenates a
group of cells' rows for reductions keyed by cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError


class TierLabel(Enum):
    """Inferential tier of a cross-tabulation cell.

    TIER_1E      exact constraint cell: calibration variable summed over one
                 whole domain.
    TIER_2CA     calibration variable summed under a filter derived from the
                 calibration variables themselves.
    TIER_2NCA    calibration variable summed under any other filter.
    TIER_3NCV    non-calibration outcome variable summed under any filter.
    """

    TIER_1E = "1-E"
    TIER_2CA = "2-CA"
    TIER_2NCA = "2-NCA"
    TIER_3NCV = "3-NCV"


@dataclass(frozen=True)
class StratumSpec:
    """Design stratum: population count and known design effect."""

    id: str
    population_size: int
    deff: float = 1.0

    def __post_init__(self):
        if self.population_size < 1:
            raise DataError(f"stratum {self.id!r}: population_size must be >= 1")
        if not self.deff > 0:
            raise DataError(f"stratum {self.id!r}: deff must be > 0")


@dataclass(frozen=True)
class CalibrationSpec:
    """Names and layout of the V x D constraint system."""

    variable_names: tuple[str, ...]
    domain_order: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.variable_names)) != len(self.variable_names):
            raise DataError("calibration variable names must be unique")
        if len(set(self.domain_order)) != len(self.domain_order):
            raise DataError("domain order must list unique domains")
        if not self.variable_names or not self.domain_order:
            raise DataError("calibration system needs >= 1 variable and domain")

    @property
    def n_variables(self) -> int:
        return len(self.variable_names)

    @property
    def n_domains(self) -> int:
        return len(self.domain_order)

    @property
    def p(self) -> int:
        return self.n_variables * self.n_domains

    def domain_position(self, domain_id: str) -> int:
        """0-based position of a domain id in the block layout."""
        try:
            return self.domain_order.index(domain_id)
        except ValueError:
            raise DataError(f"unknown domain {domain_id!r}") from None

    def block_labels(self) -> tuple[str, ...]:
        """Column labels in block order: v1_d1, v1_d2, ..., vV_dD."""
        return tuple(
            f"v{v + 1}_d{d + 1}"
            for v in range(self.n_variables)
            for d in range(self.n_domains)
        )

    def describe_block(self, position: int) -> str:
        """Human-readable name of a 0-based block position."""
        v, d = divmod(position, self.n_domains)
        return f"({self.variable_names[v]}, {self.domain_order[d]})"


def build_design_vector(
    domain: str, calib_values, spec: CalibrationSpec
) -> np.ndarray:
    """Stack one record's calibration values into its p-length design vector.

    Entry (v, d) carries the record's value for variable v when the record
    belongs to domain d, zero otherwise; at most V entries are non-zero.
    A test reference only: production code reduces over the layout with
    ``block_sums`` and never forms design vectors.
    """
    if len(calib_values) != spec.n_variables:
        raise DataError(
            f"record has {len(calib_values)} calibration values, "
            f"spec declares {spec.n_variables}"
        )
    d = spec.domain_position(domain)
    y = np.zeros(spec.p)
    for v, value in enumerate(calib_values):
        y[v * spec.n_domains + d] = value
    return y


def code_labels(labels: Sequence, levels: dict) -> np.ndarray:
    """Each label's position in ``levels``, a dict from level to position
    that first gains every new label in order of first appearance."""
    for label in dict.fromkeys(labels):
        levels.setdefault(label, len(levels))
    return np.fromiter(map(levels.__getitem__, labels), np.uint32, len(labels))


def compact_codes(levels: Sequence, codes: np.ndarray) -> tuple[tuple, np.ndarray]:
    """An attribute's ``(levels, codes)``, the codes in the smallest unsigned
    dtype that holds every position."""
    return tuple(levels), codes.astype(np.min_scalar_type(len(levels) - 1))


def block_sums(sample: SampleSet, scale=None) -> np.ndarray:
    """The p-vector sum_i scale_i * y_i (``scale`` 1 by default): entry
    v*D + d sums variable v over domain d, one ``np.bincount`` per variable."""
    idx, D = sample.domain_idx, sample.calibration.n_domains
    return np.concatenate(
        [np.bincount(idx, c if scale is None else c * scale, minlength=D) for c in sample.calib.T]
    )


class SampleSet:
    """Immutable columnar store of survey units with their calibration layout.

    Row i of every column describes one unit: ``stratum_idx`` and
    ``domain_idx`` are 0-based positions into ``strata`` and
    ``calibration.domain_order``, ``calib`` is the n x V matrix of the
    ``calibration`` variables, ``attribute_codes`` maps names to the coded
    categorical columns used only for cell filtering and ``outcomes`` maps
    names to non-calibration numeric columns; ``column`` looks up either of
    the numeric kinds by name.  Attributes arrive as label columns
    (``attributes``), coded here once, or already coded
    (``attribute_codes``); ``attributes`` is their label view.  Levels come
    in order of first appearance for label and ingested columns and in
    declaration order for generated and band columns; only
    ``filter_mask`` reads them, and it does not depend on their order.
    ``calibration_attributes`` names the attributes derived from calibration
    variables (for example banded hours): the filter predicate alone cannot
    prove that relationship, so the store declares it.  Validates the frame
    invariants at construction (positions in range, weights positive, sample
    counts within population sizes, declared attributes present).  Instances
    are safe for concurrent read.
    """

    def __init__(
        self,
        strata: Iterable[StratumSpec],
        calibration: CalibrationSpec,
        stratum_idx,
        domain_idx,
        weights,
        calib,
        attributes: Mapping[str, object] | None = None,
        outcomes: Mapping[str, object] | None = None,
        calibration_attributes: Iterable[str] = (),
        attribute_codes: Mapping[str, tuple[Sequence, object]] | None = None,
    ):
        self.strata: tuple[StratumSpec, ...] = tuple(strata)
        self.calibration = calibration
        self.weights = np.asarray(weights, dtype=float)
        self.n = self.weights.size
        if not self.n:
            raise DataError("sample must contain at least one record")
        if len(set(self.stratum_ids)) != len(self.strata):
            raise DataError("stratum ids must be unique")

        self.stratum_idx = np.asarray(stratum_idx, dtype=np.intp)
        self.domain_idx = np.asarray(domain_idx, dtype=np.intp)
        self.calib = np.asarray(calib, dtype=float)
        if self.calib.ndim != 2 or self.calib.shape[1] != calibration.n_variables:
            raise DataError(
                f"calibration values of shape {self.calib.shape} do not form an "
                f"n x V matrix for V = {calibration.n_variables} variables"
            )
        self.attribute_codes: dict[str, tuple[tuple, np.ndarray]] = {}
        for name, column in (attributes or {}).items():
            labels = np.asarray(column, dtype=object)
            levels: dict = {}
            codes = code_labels(labels.reshape(-1).tolist(), levels)
            self.attribute_codes[name] = compact_codes(levels, codes.reshape(labels.shape))
        for name, (levels, codes) in (attribute_codes or {}).items():
            self.attribute_codes[name] = tuple(levels), np.asarray(codes)
        self.outcomes = {
            name: np.asarray(column, dtype=float)
            for name, column in (outcomes or {}).items()
        }
        self.calibration_attributes = tuple(calibration_attributes)
        unknown = [a for a in self.calibration_attributes if a not in self.attribute_codes]
        if unknown:
            raise DataError(
                f"calibration-derived attribute {unknown[0]!r} is not an attribute column"
            )
        columns = {
            "weights": self.weights,
            "stratum_idx": self.stratum_idx,
            "domain_idx": self.domain_idx,
            "calib": self.calib,
            **{name: codes for name, (_, codes) in self.attribute_codes.items()},
            **self.outcomes,
        }
        for name, column in columns.items():
            if column.shape[:1] != (self.n,):
                raise DataError(
                    f"column {name!r} has shape {column.shape}, sample has "
                    f"{self.n} records"
                )
        for name, idx, bound in (
            ("stratum", self.stratum_idx, len(self.strata)),
            ("domain", self.domain_idx, calibration.n_domains),
            *(
                (f"attribute {name!r}", codes, len(levels))
                for name, (levels, codes) in self.attribute_codes.items()
            ),
        ):
            if idx.ndim != 1 or idx.min() < 0 or idx.max() >= bound:
                raise DataError(f"{name} positions must lie in 0..{bound - 1}")

        bad = np.flatnonzero(~(self.weights > 0))
        if bad.size:
            stratum = self.strata[self.stratum_idx[bad[0]]]
            raise DataError(
                f"record in stratum {stratum.id!r}: design weight must be > 0"
            )

        self.stratum_counts = np.bincount(
            self.stratum_idx, minlength=len(self.strata)
        )
        self.stratum_sizes = np.array(
            [s.population_size for s in self.strata], dtype=float
        )
        self.stratum_deff = np.array([s.deff for s in self.strata])
        over = [
            s.id
            for s, n_h, cap in zip(
                self.strata, self.stratum_counts, self.stratum_sizes
            )
            if n_h > cap
        ]
        if over:
            raise DataError(f"sample count exceeds population size in strata: {over}")
        self.sampling_fractions = np.where(
            self.stratum_sizes > 0, self.stratum_counts / self.stratum_sizes, 0.0
        )

    @property
    def domain_ids(self) -> tuple[str, ...]:
        return self.calibration.domain_order

    @property
    def stratum_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.strata)

    def check_spec(self, spec: CalibrationSpec) -> None:
        """Require the sample's layout (variable names, domain order) to be ``spec``."""
        if spec != self.calibration:
            raise DataError(
                f"sample layout {self.calibration} does not match the "
                f"calibration spec {spec}"
            )

    def column(self, name: str, cell: str | None = None) -> np.ndarray:
        """Per-unit values of a calibration variable or outcome by name;
        ``cell`` names the cell asking, for the error message."""
        if name in self.calibration.variable_names:
            return self.calib[:, self.calibration.variable_names.index(name)]
        if name in self.outcomes:
            return self.outcomes[name]
        where = f"cell {cell!r}: " if cell is not None else ""
        raise DataError(
            f"{where}variable {name!r} is neither a calibration variable nor an outcome"
        )

    def design_matrix(self, spec: CalibrationSpec) -> np.ndarray:
        """n x p dense design matrix, row i the design vector y_i.

        A test reference for ``block_sums`` and the calibration kernels,
        which never form it; built afresh on every call.
        """
        self.check_spec(spec)
        Y = np.zeros((self.n, spec.n_variables, spec.n_domains))
        Y[np.arange(self.n), :, self.domain_idx] = self.calib
        return Y.reshape(self.n, spec.p)

    @cached_property
    def stratum_domain_pairs(self) -> np.ndarray:
        """H x D read-only table: stratum h has sampled records in domain d."""
        H, D = len(self.strata), self.calibration.n_domains
        counts = np.bincount(self.stratum_idx * D + self.domain_idx, minlength=H * D)
        table = counts.reshape(H, D) > 0
        table.flags.writeable = False
        return table

    @cached_property
    def stratum_rows(self) -> tuple[np.ndarray, ...]:
        """Per stratum, its row positions in ascending order: read-only
        slices of one stable argsort of ``stratum_idx``."""
        order = np.argsort(self.stratum_idx, kind="stable")
        order.flags.writeable = False
        return tuple(np.split(order, np.cumsum(self.stratum_counts)[:-1]))

    @cached_property
    def attributes(self) -> dict[str, np.ndarray]:
        """Label view of ``attribute_codes``: per attribute, each unit's
        level as an object array, built on first access.  Cell filters read
        the codes; no command reads this view."""
        return {
            name: np.fromiter(levels, object, len(levels))[codes]
            for name, (levels, codes) in self.attribute_codes.items()
        }

    def stratum_mean_variance(self, values=None, cells: CellRows | None = None) -> np.ndarray:
        """Design variance of each stratum's sample mean of ``values``.

        Returns deff_h * (1 - f_h) * s2_h / n_h per stratum in frame order,
        where s2_h is the within-stratum sample variance (divisor n_h - 1)
        and f_h the sampling fraction; strata with n_h < 2 get 0.  Given
        ``cells``, a group of cells, the values are each cell's summed
        values at its rows (0 elsewhere) and the result is each cell's
        H x D table for z_d, the values zeroed outside domain d, keyed by
        (cell, stratum, domain) k; a key sums its terms in row order, as it
        would for the cell alone.  Squares are summed about each k's largest
        value (an all-equal k gets exactly 0), plus n_k (n_h - n_k) / n_h *
        mean_k^2 for the stratum's zeros outside k.
        """
        H, D, G = len(self.strata), self.calibration.n_domains, 1
        if cells is None:
            values, idx, D = np.asarray(values, dtype=float), self.stratum_idx, 1
        else:
            values, G = cells.values, cells.n_cells
            idx = (cells.cell * H + self.stratum_idx[cells.rows]) * D + self.domain_idx[cells.rows]
        K = G * H * D
        n_h = np.tile(np.repeat(self.stratum_counts, D), G)
        n = np.maximum(n_h, 1)
        n_k = np.bincount(idx, minlength=K)
        anchor = np.full(K, -np.inf)
        np.maximum.at(anchor, idx, values)
        centred = values - anchor[idx]
        mean = np.bincount(idx, centred, minlength=K) / np.maximum(n_k, 1)
        centred -= mean[idx]
        ss = np.bincount(idx, centred * centred, minlength=K)
        ss = ss + n_k * (n_h - n_k) / n * np.where(n_k > 0, anchor + mean, 0.0) ** 2
        s2 = np.where(n_h > 1, ss / np.maximum(n_h - 1, 1), 0.0)
        fpc = 1.0 - np.tile(np.repeat(self.sampling_fractions, D), G)
        out = np.tile(np.repeat(self.stratum_deff, D), G) * fpc * s2 / n
        return out if cells is None else out.reshape(G, H, D)


def _as_frozenset(value) -> frozenset:
    if isinstance(value, (str, bytes)):
        return frozenset([value])
    return frozenset(value)


@dataclass(frozen=True)
class CellFilter:
    """Deterministic record predicate: the AND of all configured clauses.

    Clauses may restrict the record's domain, require categorical attributes
    to fall in given level sets, or require numeric calibration values to lie
    in closed intervals.  Membership never depends on weights or draws.
    """

    domains: frozenset[str] | None = None
    attribute_levels: tuple[tuple[str, frozenset[str]], ...] = ()
    value_ranges: tuple[tuple[str, tuple[float | None, float | None]], ...] = ()

    @staticmethod
    def build(
        domains=None,
        attributes: Mapping[str, object] | None = None,
        ranges: Mapping[str, tuple[float | None, float | None]] | None = None,
    ) -> "CellFilter":
        return CellFilter(
            domains=_as_frozenset(domains) if domains is not None else None,
            attribute_levels=tuple(
                sorted((k, _as_frozenset(v)) for k, v in (attributes or {}).items())
            ),
            value_ranges=tuple(sorted((ranges or {}).items())),
        )

    def single_domain(self) -> str | None:
        """The domain id when the filter is exactly one domain, else None."""
        if (
            self.domains is not None
            and len(self.domains) == 1
            and not self.attribute_levels
            and not self.value_ranges
        ):
            return next(iter(self.domains))
        return None


@dataclass(frozen=True)
class CellQuery:
    """A cross-tabulation cell: one summed variable and a fixed filter."""

    name: str
    summed_variable: str
    filter: CellFilter = CellFilter()
    tier_override: TierLabel | None = None
    link_variable: str | None = None


@dataclass(frozen=True)
class CellData:
    """Evaluated cell membership: boolean mask (``rows``, its positions) plus
    per-record summed values."""

    mask: np.ndarray
    values: np.ndarray

    @cached_property
    def rows(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    @property
    def count(self) -> int:
        return self.rows.size


@dataclass(frozen=True)
class CellRows:
    """A group of cells' rows, concatenated cell by cell.

    ``rows`` are record positions, ``values`` the summed value of each in
    its cell and ``counts`` each cell's row count.  A per-cell reduction
    over the group is one ``np.bincount`` keyed by ``cell``, each entry's
    position in the group; it adds each cell's terms in row order, as a
    reduction over that cell alone does.
    """

    rows: np.ndarray
    values: np.ndarray
    counts: np.ndarray

    @staticmethod
    def of(cells: Sequence[tuple[np.ndarray, np.ndarray]]) -> "CellRows":
        """The group of ``cells``, each given as its rows and its summed
        values at those rows."""
        rows, values = zip(*cells)
        if len(cells) == 1:  # no copies of a lone cell's arrays
            return CellRows(rows[0], values[0], np.array([rows[0].size]))
        return CellRows(np.concatenate(rows), np.concatenate(values), np.array([r.size for r in rows]))

    @staticmethod
    def one(cell: CellData) -> "CellRows":
        return CellRows.of([(cell.rows, cell.values[cell.rows])])

    @property
    def n_cells(self) -> int:
        return self.counts.size

    @cached_property
    def cell(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_cells), self.counts)

    def select(self, keep: np.ndarray) -> "CellRows":
        """The group of the cells where ``keep`` is true."""
        if keep.all():
            return self
        entries = keep[self.cell]
        return CellRows(self.rows[entries], self.values[entries], self.counts[keep])


def _clause_mask(clause: tuple, sample: SampleSet, cell_name: str) -> np.ndarray:
    """The mask of one filter clause: ``("domains", ids)``, ``("attribute",
    name, levels)`` or ``("range", variable, (lo, hi))``."""
    spec = sample.calibration
    kind, *args = clause
    if kind == "domains":
        (domains,) = args
        unknown = domains - set(spec.domain_order)
        if unknown:
            raise DataError(
                f"cell {cell_name!r}: filter references unknown domains "
                f"{sorted(unknown)}"
            )
        allowed = np.array([d in domains for d in spec.domain_order], dtype=bool)
        return allowed[sample.domain_idx]
    if kind == "attribute":
        attr, levels = args
        if attr not in sample.attribute_codes:
            raise DataError(
                f"cell {cell_name!r}: filter references unknown attribute "
                f"{attr!r}"
            )
        present, codes = sample.attribute_codes[attr]
        return np.array([level in levels for level in present], dtype=bool)[codes]
    var, (lo, hi) = args
    if var not in spec.variable_names:
        raise DataError(
            f"cell {cell_name!r}: interval filter references "
            f"{var!r}, which is not a calibration variable"
        )
    column = sample.column(var)
    mask = np.ones(sample.n, dtype=bool)
    if lo is not None:
        mask &= column >= lo
    if hi is not None:
        mask &= column <= hi
    return mask


def _clauses(f: CellFilter) -> list[tuple]:
    """The clauses of a filter, each as the key of its mask."""
    return [
        *((("domains", f.domains),) if f.domains is not None else ()),
        *(("attribute", attr, levels) for attr, levels in f.attribute_levels),
        *(("range", var, bounds) for var, bounds in f.value_ranges),
    ]


def filter_mask(
    f: CellFilter, sample: SampleSet, cell_name: str = "?", clauses: dict | None = None
) -> np.ndarray:
    """Apply a cell filter to a sample's units: the AND of its clause masks.

    A census population is a ``SampleSet`` too, so sample cells and
    population truths go through this one predicate.  ``clauses`` keeps
    each clause's mask, read-only, for the other cells of a run on the
    same units: the 25 default cells of a simulation use 13 distinct
    clauses.
    """
    clauses = {} if clauses is None else clauses
    mask = None
    for key in _clauses(f):
        if key not in clauses:
            clauses[key] = _clause_mask(key, sample, cell_name)
            clauses[key].flags.writeable = False
        mask = clauses[key] if mask is None else mask & clauses[key]
    return np.ones(sample.n, dtype=bool) if mask is None else mask


def evaluate_cells(
    queries: Iterable[CellQuery], sample: SampleSet, spec: CalibrationSpec
) -> Iterator[CellData]:
    """Evaluate each cell's membership and summed values against a sample,
    in order, sharing clause masks among the cells; a clause's mask is
    dropped after the last cell that reads it.

    A mask depends only on record attributes, domains, and calibration
    values; it is independent of weights, draws, and record order.
    """
    sample.check_spec(spec)
    queries = tuple(queries)
    last_use = {key: k for k, query in enumerate(queries) for key in _clauses(query.filter)}
    clauses: dict = {}
    for k, query in enumerate(queries):
        values = sample.column(query.summed_variable, query.name)
        mask = filter_mask(query.filter, sample, query.name, clauses)
        for key in _clauses(query.filter):
            if last_use[key] == k:  # no later cell reads this clause
                del clauses[key]
        yield CellData(mask=mask, values=values)


def evaluate_cell(
    query: CellQuery, sample: SampleSet, spec: CalibrationSpec
) -> CellData:
    """``evaluate_cells`` of one cell."""
    return next(evaluate_cells((query,), sample, spec))
