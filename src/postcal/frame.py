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
``SampleSet.design_matrix``, which forms them, is a test reference.
A store also names its ``calibration_attributes``, the attribute columns
derived from calibration variables, which decide tier 2-CA over 2-NCA.
A store keeps each attribute column only as codes, ``SampleSet.attribute_codes``
(its levels, and each unit's position in them), and cell filters read those
codes.  ``CellAtoms`` groups a run's records into atoms, the records that
share their stratum, domain and membership of every distinct clause of the
run's cells, and takes per-atom statistics once; every per-cell reduction
after it reads a cell's atoms (``CellPairs``), not its records.
``evaluate_cell`` gives one cell its mask, which ``CellAtoms.one`` turns
into a table of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError, at_least, check_fields, distinct, positive


class TierLabel(Enum):
    """Inferential tier of a cross-tabulation cell.

    TIER_1E      exact constraint cell: calibration variable summed over whole
                 domains (one, several, or all with no filter), so its
                 replicate totals are sums of calibrated domain totals.
    TIER_2CA     calibration variable summed under a filter derived from the
                 calibration variables themselves.
    TIER_2NCA    calibration variable summed under any other filter.
    TIER_3NCV    non-calibration outcome variable summed under any filter.
    """

    TIER_1E = "1-E"
    TIER_2CA = "2-CA"
    TIER_2NCA = "2-NCA"
    TIER_3NCV = "3-NCV"


# a stratified draw takes at least 2 units from every stratum
MIN_STRATUM_SIZE = 2


@dataclass(frozen=True)
class StratumSpec:
    """Design stratum: population count and known design effect.

    A stratum of a generated population also names its ``domain`` and holds
    the value of its one ``covariate``; samples are drawn from it, so it
    holds at least ``MIN_STRATUM_SIZE`` units.
    """

    id: str
    population_size: int
    deff: float = 1.0
    domain: str | None = None
    covariate: float = 0.0

    def __post_init__(self):
        least = 1 if self.domain is None else MIN_STRATUM_SIZE
        check_fields(self, population_size=at_least(least), deff=positive)


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


def code_labels(labels: Sequence, levels: dict) -> np.ndarray:
    """Each label's position in ``levels``, a dict from level to position
    that first gains every new label in order of first appearance."""
    try:
        return np.fromiter(map(levels.__getitem__, labels), np.uint32, len(labels))
    except KeyError:  # a new label: the one pass that adds them
        for label in dict.fromkeys(labels):
            levels.setdefault(label, len(levels))
        return code_labels(labels, levels)


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
    invariants at construction (one column per name, positions in range,
    weights positive, sample counts within population sizes, declared
    attributes present).  Instances are safe for concurrent read.
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
        # one namespace: a name in two of these is refused by its later entry
        taken = dict.fromkeys(calibration.variable_names, "is a calibration variable")
        for where, names in (("attributes", attributes), ("attribute_codes", attribute_codes), ("outcomes", outcomes)):
            distinct(names or {}, where, DataError, taken=taken, what=f"is in {where}")
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

    def column(self, name: str) -> np.ndarray:
        """Per-unit values of a calibration variable or outcome by name."""
        if name in self.calibration.variable_names:
            return self.calib[:, self.calibration.variable_names.index(name)]
        if name in self.outcomes:
            return self.outcomes[name]
        raise DataError(f"variable {name!r} is neither a calibration variable nor an outcome")

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
        the codes; no command reads this view, but the benchmark's workload
        writer does."""
        return {
            name: np.fromiter(levels, object, len(levels))[codes]
            for name, (levels, codes) in self.attribute_codes.items()
        }

    def stratum_mean_variance(self, values) -> np.ndarray:
        """Design variance of each stratum's sample mean of ``values``.

        Returns deff_h * (1 - f_h) * s2_h / n_h per stratum in frame order,
        where s2_h is the within-stratum sample variance (divisor n_h - 1)
        and f_h the sampling fraction; strata with n_h < 2 get 0.  Squares
        are summed in row order about each stratum's largest value, so a
        stratum of equal values gets exactly 0.
        """
        values = np.asarray(values, dtype=float)
        idx, H = self.stratum_idx, len(self.strata)
        sampled = self.stratum_counts > 0
        starts = np.cumsum(self.stratum_counts) - self.stratum_counts
        anchor = np.zeros(H)
        ordered = values[np.concatenate(self.stratum_rows)]
        anchor[sampled] = np.maximum.reduceat(ordered, starts[sampled])
        centred = values - anchor[idx]
        mean = np.bincount(idx, centred, minlength=H) / np.maximum(self.stratum_counts, 1)
        centred -= mean[idx]
        ss = np.bincount(idx, centred * centred, minlength=H)
        return self.mean_variance(np.arange(H), ss)

    def mean_variance(self, strata: np.ndarray, ss: np.ndarray) -> np.ndarray:
        """deff_h * (1 - f_h) * s2_h / n_h of each entry of ``strata``, s2_h
        its sum of squares ``ss`` over the stratum sample divided by n_h - 1;
        0 where n_h < 2."""
        n_h = self.stratum_counts[strata]
        s2 = np.where(n_h > 1, ss / np.maximum(n_h - 1, 1), 0.0)
        fpc = 1.0 - self.sampling_fractions[strata]
        return self.stratum_deff[strata] * fpc * s2 / np.maximum(n_h, 1)


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


@dataclass(frozen=True)
class CellQuery:
    """A cross-tabulation cell: one summed variable and a fixed filter."""

    name: str
    summed_variable: str
    filter: CellFilter = CellFilter()
    link_variable: str | None = None


@dataclass(frozen=True)
class CellData:
    """Evaluated cell membership: boolean mask plus per-record summed values."""

    mask: np.ndarray
    values: np.ndarray


# Most bytes of column values in atom order that a table reduces at once:
# its per-atom statistics are taken over blocks of columns of this size,
# all of a 5,000-record sample's columns together and one column at a time
# of a 50,000-record one.
COLUMN_BLOCK_BYTES = 1 << 18


class Spread(NamedTuple):
    """Per column and atom: largest and smallest value, mean less the
    largest value (``offset``), and sum of squared deviations from the mean
    (``m2``)."""

    top: np.ndarray
    bottom: np.ndarray
    offset: np.ndarray
    m2: np.ndarray


class CellAtoms:
    """A run's records grouped into atoms for per-cell reductions.

    An atom is the set of records that share their stratum, their domain
    and their membership of each of the run's distinct clauses, so
    every cell holds either all of an atom or none of it.  Atoms come in
    stratum, domain, then membership-pattern order, and ``order`` puts the
    records in atom order, so a statistic of every atom is one ``reduceat``
    over a block of columns so ordered (``COLUMN_BLOCK_BYTES``).  A cell's
    statistic is then a reduction over its (cell, atom) pairs (``pairs``),
    which combines centred sums by the pairwise updates of Chan, Golub &
    LeVeque (1983).  A clause is ``(codes, table)``, its mask
    ``table[codes]``; columns are the calibration variables, in their
    order, then any other summed column; each cell is its clause positions
    and its column.
    """

    def __init__(self, clauses: Sequence[tuple[np.ndarray, np.ndarray]],
                 cells: Sequence[tuple[tuple[int, ...], int]], columns: Sequence[np.ndarray],
                 sample: SampleSet):
        self.sample, self.cells, self.columns = sample, tuple(cells), tuple(columns)
        n = self.columns[0].size
        D = sample.calibration.n_domains
        key, span = sample.stratum_idx * D + sample.domain_idx, len(sample.strata) * D
        # the clauses on one codes column (an attribute, a range's flags) are
        # a function of its codes: each code's pattern over them, numbered
        factors: dict[int, tuple[np.ndarray, list]] = {}
        for codes, table in clauses:
            factors.setdefault(id(codes), (codes, []))[1].append(table)
        for codes, tables in factors.values():
            if codes is sample.domain_idx:
                continue  # the key holds the domain
            patterns = [code.tobytes() for code in np.array(tables).T]
            rank = {pattern: r for r, pattern in enumerate(sorted(set(patterns)))}
            if span * len(rank) > 1 << 16:
                key, span = _dense(key)
            key = key * len(rank) + np.array([rank[pattern] for pattern in patterns])[codes]
            span *= len(rank)
        if span > 1 << 16:
            key, span = _dense(key)
        # a key that fits 16 bits sorts by radix
        self.order = np.argsort(key.astype(np.uint16) if span <= 1 << 16 else key, kind="stable")
        ordered = key[self.order]
        new = np.empty(n, dtype=bool)
        new[0], new[1:] = True, ordered[1:] != ordered[:-1]
        self.starts = np.flatnonzero(new)
        self.count = np.diff(np.append(self.starts, n))
        first = self.order[self.starts]
        self.pattern = np.array(
            [table[codes[first]] for codes, table in clauses], dtype=bool
        ).reshape(-1, first.size)
        self.stratum = sample.stratum_idx[first]
        self.domain = sample.domain_idx[first]
        self.used = sorted({column for _, column in self.cells})

    @staticmethod
    def of(sample: SampleSet, queries: Sequence[CellQuery]) -> "CellAtoms":
        """The atoms of a run's cells, each distinct clause read once."""
        names = sample.calibration.variable_names
        positions: dict = {}
        clauses, cells, columns = [], [], {name: v for v, name in enumerate(names)}
        for query in queries:
            keys = _clauses(query.filter)
            try:
                sample.column(query.summed_variable)  # rejects an unknown variable
                for key in keys:
                    if key not in positions:
                        positions[key] = len(clauses)
                        clauses.append(_clause_table(key, sample))
            except DataError as error:
                raise error.within(f"cell {query.name!r}: ")
            column = columns.setdefault(query.summed_variable, len(columns))
            cells.append((tuple(positions[key] for key in keys), column))
        values = [*sample.calib.T, *(sample.outcomes[name] for name in list(columns)[len(names):])]
        return CellAtoms(clauses, cells, values, sample)

    @staticmethod
    def one(cell: CellData, sample: SampleSet) -> "CellAtoms":
        """The atoms of one evaluated cell: its mask the only clause."""
        clause = (np.asarray(cell.mask, dtype=bool).view(np.uint8), np.array([False, True]))
        V = sample.calibration.n_variables
        return CellAtoms([clause], [((0,), V)], [*sample.calib.T, cell.values], sample)

    @property
    def n_atoms(self) -> int:
        return self.starts.size

    def pairs(self, cells: Sequence[int]) -> CellPairs:
        """The (cell, atom) pairs of the ``cells`` (positions), in order; the
        arrays are typed so that no cells give empty pairs."""
        members = [
            np.flatnonzero(np.logical_and.reduce(self.pattern[list(self.cells[c][0])])) for c in cells
        ]
        return CellPairs(
            self,
            np.concatenate([np.zeros(0, np.intp), *members]),
            np.array([self.cells[c][1] for c in cells], dtype=np.intp),
            np.array([m.size for m in members], dtype=np.intp),
        )

    def _blocks(self, columns) -> Iterator[list[int]]:
        """``columns`` in blocks of at most ``COLUMN_BLOCK_BYTES`` of values."""
        columns = list(columns)
        width = max(1, COLUMN_BLOCK_BYTES // (8 * self.order.size))
        for start in range(0, len(columns), width):
            yield columns[start : start + width]

    def _ordered(self, columns: Sequence[int]) -> np.ndarray:
        """The ``columns`` with the records in atom order, one row each."""
        out = np.empty((len(columns), self.order.size))
        for row, j in zip(out, columns):
            self.columns[j].take(self.order, out=row)
        return out

    def _sums(self, x: np.ndarray) -> np.ndarray:
        """The sums over each atom of each row of ``x``, records in atom order."""
        return np.add.reduceat(x, self.starts, axis=-1)

    def totals(self, weights: np.ndarray) -> np.ndarray:
        """S x A: each summed column's weighted total over each atom."""
        weights = weights[self.order]
        out = np.zeros((len(self.columns), self.n_atoms))
        for block in self._blocks(self.used):
            out[block] = self._sums(self._ordered(block) * weights)
        return out

    @cached_property
    def moments(self) -> np.ndarray:
        """V x S x A: each summed column's sum of value w y_v over each
        atom, y_v calibration variable v and w the design weight."""
        V = self.sample.calibration.n_variables
        weights = self.sample.weights[self.order]
        out = np.zeros((V, len(self.columns), self.n_atoms))
        for block in self._blocks(self.used):
            scale = weights * self._ordered(block)
            for v in range(V):
                out[v, block] = self._sums(self._ordered([v]) * scale)
        return out

    @cached_property
    def spread(self) -> Spread:
        """The ``Spread`` of each column over each atom, S x A each."""
        table = np.empty((4, len(self.columns), self.n_atoms))
        for block in self._blocks(range(len(self.columns))):
            x = self._ordered(block)
            table[0, block] = np.maximum.reduceat(x, self.starts, axis=1)
            table[1, block] = np.minimum.reduceat(x, self.starts, axis=1)
            x -= np.repeat(table[0, block], self.count, axis=1)
            table[2, block] = self._sums(x) / self.count
            x -= np.repeat(table[2, block], self.count, axis=1)
            table[3, block] = self._sums(x * x)
        return Spread(*table)

    def _deviations(self, block: Sequence[int]) -> np.ndarray:
        """The ``block`` columns less their atom means, records in atom order."""
        x = self._ordered(block)
        x -= np.repeat(self.spread.top[block], self.count, axis=1)
        x -= np.repeat(self.spread.offset[block], self.count, axis=1)
        return x

    def comoments(self, columns) -> np.ndarray:
        """V x S x A: per atom, the sum of products of the deviations of
        calibration variable v and of a column from their atom means, for
        the ``columns`` (0 for every other)."""
        V = self.sample.calibration.n_variables
        table = np.zeros((V, len(self.columns), self.n_atoms))
        for block in self._blocks(sorted(set(columns))):
            deviations = self._deviations(block)
            for v in range(V):
                table[v, block] = self._sums(deviations * self._deviations([v]))
        return table


def _dense(key: np.ndarray) -> tuple[np.ndarray, int]:
    """``key`` renumbered 0, 1, ... in the same order, and its new span."""
    levels, rank = np.unique(key, return_inverse=True)
    return rank.reshape(-1), levels.size


@dataclass(frozen=True)
class CellPairs:
    """Some cells' (cell, atom) pairs, cell by cell, each cell's atoms in
    table order.

    ``atom`` holds the atom positions, ``columns`` each cell's summed column
    and ``sizes`` each cell's pair count.  A per-cell reduction is one
    ``np.bincount`` keyed by ``cell``, each pair's position among the cells;
    ``take`` reads a per-atom table at each pair's column and atom.
    """

    atoms: CellAtoms
    atom: np.ndarray
    columns: np.ndarray
    sizes: np.ndarray

    @staticmethod
    def one(cell: CellData, sample: SampleSet) -> "CellPairs":
        """The pairs of one evaluated cell over ``CellAtoms.one``."""
        return CellAtoms.one(cell, sample).pairs([0])

    @property
    def n_cells(self) -> int:
        return self.sizes.size

    @cached_property
    def cell(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_cells), self.sizes)

    @cached_property
    def count(self) -> np.ndarray:
        """Each pair's atom record count, as floats."""
        return self.atoms.count[self.atom].astype(float)

    @property
    def counts(self) -> np.ndarray:
        """Each cell's record count."""
        return np.bincount(self.cell, self.count, minlength=self.n_cells).astype(np.intp)

    def select(self, keep: np.ndarray) -> "CellPairs":
        """The pairs of the cells where ``keep`` is true."""
        if keep.all():
            return self
        entries = keep[self.cell]
        return CellPairs(self.atoms, self.atom[entries], self.columns[keep], self.sizes[keep])

    @cached_property
    def _entry(self) -> np.ndarray:
        return np.repeat(self.columns * self.atoms.n_atoms, self.sizes) + self.atom

    def take(self, table: np.ndarray) -> np.ndarray:
        """Entry [..., column, atom] of a ... x S x A table at each pair:
        ... x P."""
        return table.reshape(*table.shape[:-2], -1).take(self._entry, axis=-1)


def _clause_table(clause: tuple, sample: SampleSet) -> tuple[np.ndarray, np.ndarray]:
    """One filter clause, ``("domains", ids)``, ``("attribute", name,
    levels)`` or ``("range", variable, (lo, hi))``, as ``(codes, table)``:
    its mask is ``table[codes]``, ``codes`` each unit's domain position,
    attribute code or, for a range, in-range flag."""
    spec = sample.calibration
    kind, *args = clause
    if kind == "domains":
        (domains,) = args
        unknown = domains - set(spec.domain_order)
        if unknown:
            raise DataError(f"filter references unknown domains {sorted(unknown)}")
        return sample.domain_idx, np.array([d in domains for d in spec.domain_order], dtype=bool)
    if kind == "attribute":
        attr, levels = args
        if attr not in sample.attribute_codes:
            raise DataError(f"filter references unknown attribute {attr!r}")
        present, codes = sample.attribute_codes[attr]
        return codes, np.array([level in levels for level in present], dtype=bool)
    var, (lo, hi) = args
    if var not in spec.variable_names:
        raise DataError(f"interval filter references {var!r}, which is not a calibration variable")
    return in_interval(sample.column(var), lo, hi).view(np.uint8), np.array([False, True])


def in_interval(column: np.ndarray, lo: float | None, hi: float | None) -> np.ndarray:
    """Where ``lo <= column <= hi``, the closed interval of a range clause
    or a band; None is an open end."""
    mask = np.ones(column.shape, dtype=bool)
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


def filter_mask(f: CellFilter, sample: SampleSet) -> np.ndarray:
    """Apply a cell filter to a sample's units: the AND of its clause masks.

    A census population is a ``SampleSet`` too, so sample cells and
    population truths go through this one predicate.  A mask depends only
    on record attributes, domains, and calibration values; it is
    independent of weights, draws, and record order.
    """
    mask = np.ones(sample.n, dtype=bool)
    for key in _clauses(f):
        codes, table = _clause_table(key, sample)
        mask &= table[codes]
    return mask


def evaluate_cell(
    query: CellQuery, sample: SampleSet, spec: CalibrationSpec
) -> CellData:
    """Evaluate one cell's membership and summed values against a sample."""
    sample.check_spec(spec)
    try:
        return CellData(values=sample.column(query.summed_variable), mask=filter_mask(query.filter, sample))
    except DataError as error:
        raise error.within(f"cell {query.name!r}: ")
