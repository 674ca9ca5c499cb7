import csv
import dataclasses
import io
import math
import pickle
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from postcal.cli import main
from postcal.config import (
    AttributeModel,
    BinaryVariableModel,
    ContinuousVariableModel,
    ModelConfig,
    OutcomeModel,
    RunConfig,
    SimulateConfig,
    SyntheticPopulationSpec,
    _pair,
    config_hash,
    load_config,
    names,
    parse_config,
)
from postcal.errors import ConfigError, DataError, NumericalError, checked, distinct, positive
from postcal.frame import CalibrationSpec, StratumSpec, TierLabel
from postcal.hb import HBPrior, McmcConfig, PosteriorDraws
import postcal.io as postcal_io
from postcal.io import (
    MACHINE_FLOAT,
    BandRule,
    ColumnRoles,
    _read_table,
    read_draws,
    read_sample,
    write_draws,
    write_weights,
)
from postcal.simulate import generate_population

SMOKE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "simulate_smoke.yaml"
DEMO_CONFIG = SMOKE_CONFIG.parent / "demo" / "config.yaml"

RECORDS_CSV = """stratum,domain,weight,employed,hours,occupation,income
s1,d1,2.5,1,38,managers,1200
s1,d1,2.5,0,0,trades,100
s2,d2,3.0,1,20,trades,800
s2,d2,3.0,1,45,managers,2000
"""

STRATA_CSV = """id,population_size,deff,z
s1,50,1.0,-0.5
s2,60,1.5,0.5
"""


def write_inputs(tmp_path):
    records = tmp_path / "records.csv"
    records.write_text(RECORDS_CSV)
    strata = tmp_path / "strata.csv"
    strata.write_text(STRATA_CSV)
    return records, strata


def roles():
    return ColumnRoles(
        stratum="stratum",
        domain="domain",
        weight="weight",
        calibration=("employed", "hours"),
        attributes=("occupation",),
        outcomes=("income",),
    )


class TestIngestion:
    def test_round_trip_shapes(self, tmp_path):
        records, strata = write_inputs(tmp_path)
        ingested = read_sample(records, strata, roles())
        assert ingested.sample.n == 4
        assert ingested.spec.variable_names == ("employed", "hours")
        assert ingested.spec.domain_order == ("d1", "d2")
        assert ingested.sample.strata[1].deff == 1.5
        assert ingested.strata_covariates["z"].tolist() == [-0.5, 0.5]
        assert ingested.record_ids == ("1", "2", "3", "4")

    def test_band_rule_materialized_and_registered(self, tmp_path):
        records, strata = write_inputs(tmp_path)
        rule = BandRule(
            "hours_band",
            "hours",
            (("none", None, 0.0), ("short", 1.0, 34.0), ("long", 35.0, None)),
            "other",
        )
        ingested = read_sample(records, strata, roles(), band_rules=(rule,))
        bands = ingested.sample.attributes["hours_band"].tolist()
        assert bands == ["long", "none", "short", "long"]
        assert ingested.sample.calibration_attributes == ("hours_band",)

    def test_unknown_band_source_named_alike_in_sample_and_population(self, tmp_path):
        records, strata = write_inputs(tmp_path)
        rule = (BandRule("band", "wages", (("low", None, 29.0),)),)
        message = "band rule 'band': source 'wages' is not a numeric column"
        with pytest.raises(ConfigError, match=message):
            read_sample(records, strata, roles(), band_rules=rule)
        with pytest.raises(ConfigError, match=message):
            generate_population(load_config(SMOKE_CONFIG).simulate.population, rule)

    @pytest.mark.parametrize(
        "names", [("occupation",), ("hours",), ("income",), ("band", "band")], ids=["attribute", "calibration", "outcome", "band"]
    )
    def test_band_taking_a_column_or_band_name_is_refused_in_sample_and_population(self, tmp_path, names):
        records, strata = write_inputs(tmp_path)
        rules = tuple(BandRule(name, "hours", (("low", None, 29.0),)) for name in names)
        message = f"band rule {names[-1]!r}: the name of a column or an earlier band"
        with pytest.raises(ConfigError, match=re.escape(message)):
            read_sample(records, strata, roles(), band_rules=rules)
        with pytest.raises(ConfigError, match=re.escape(message)):
            generate_population(load_config(SMOKE_CONFIG).simulate.population, rules)

    def test_missing_column_rejected(self, tmp_path):
        records, strata = write_inputs(tmp_path)
        bad = ColumnRoles(
            stratum="stratum",
            domain="domain",
            weight="weight",
            calibration=("employed", "wages"),
        )
        with pytest.raises(DataError, match="wages"):
            read_sample(records, strata, bad)

    def test_unparseable_number_points_at_line(self, tmp_path):
        records = tmp_path / "records.csv"
        records.write_text("stratum,domain,weight,employed\ns1,d1,abc,1\n")
        strata = tmp_path / "strata.csv"
        strata.write_text("id,population_size\ns1,10\n")
        bad = ColumnRoles(
            stratum="stratum", domain="domain", weight="weight", calibration=("employed",)
        )
        with pytest.raises(DataError, match=":2"):
            read_sample(records, strata, bad)

    @pytest.mark.parametrize(
        "raw", ["1_000", " 3.5 ", "+.5", "\u0661\u0662", "nan", "1e500", "", "0x10", "1,5", "-inf"]
    )
    def test_numbers_parse_as_float_does(self, tmp_path, raw):
        # a column is parsed whole; it must accept exactly the finite values float() reads
        records = tmp_path / "records.csv"
        with open(records, "w", newline="") as fh:
            csv.writer(fh).writerows(
                [["stratum", "domain", "weight", "employed"], ["s1", "d1", "2", "1"], ["s1", "d1", raw, "1"]]
            )
        strata = tmp_path / "strata.csv"
        strata.write_text("id,population_size\ns1,2000\n")
        plain = ColumnRoles(
            stratum="stratum", domain="domain", weight="weight", calibration=("employed",)
        )
        try:
            expected = float(raw)
        except ValueError:
            expected = math.nan
        if math.isfinite(expected):
            assert read_sample(records, strata, plain).sample.weights.tolist() == [2.0, expected]
        else:
            with pytest.raises(DataError, match=r"records.csv:3: .* is not a finite number"):
                read_sample(records, strata, plain)

    def test_columns_keep_file_order(self, tmp_path):
        records, strata = write_inputs(tmp_path)
        sample = read_sample(records, strata, roles(), domain_order=("d2", "d1")).sample
        assert sample.stratum_idx.tolist() == [0, 0, 1, 1]
        assert sample.domain_idx.tolist() == [1, 1, 0, 0]
        assert sample.weights.tolist() == [2.5, 2.5, 3.0, 3.0]
        assert sample.calib.tolist() == [[1, 38], [0, 0], [1, 20], [1, 45]]
        assert sample.attributes["occupation"].tolist() == [
            "managers", "trades", "trades", "managers",
        ]
        assert sample.outcomes["income"].tolist() == [1200, 100, 800, 2000]

    def test_unknown_stratum_rejected(self, tmp_path):
        records, strata = write_inputs(tmp_path)
        records.write_text(RECORDS_CSV + "ghost,d1,1.0,1,30,trades,500\n")
        with pytest.raises(DataError, match=r"unknown strata: \['ghost'\]"):
            read_sample(records, strata, roles())

    def test_ragged_row_points_at_line(self, tmp_path):
        records, strata = write_inputs(tmp_path)
        records.write_text("# comment\n" + RECORDS_CSV + "s1,d1,1.0\n")
        with pytest.raises(DataError, match=r"records.csv:7: 3 fields"):
            read_sample(records, strata, roles())

    def test_explicit_domain_order(self, tmp_path):
        records, strata = write_inputs(tmp_path)
        ingested = read_sample(records, strata, roles(), domain_order=("d2", "d1"))
        assert ingested.spec.domain_order == ("d2", "d1")
        assert ingested.sample.domain_ids[0] == "d2"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("r5,s1,d1", "3 fields, header has 8"),
            ("r5,s1,d1,nan,1,38,managers,1200", "'nan' is not a finite number"),
            ("r1,s1,d1,2.5,1,38,managers,1200", "duplicate record id 'r1' (first on line 3)"),
        ],
        ids=["ragged", "non-finite", "duplicate"],
    )
    def test_fault_opening_a_later_block_is_named_by_its_line(
        self, tmp_path, monkeypatch, row, message
    ):
        # blocks of 2 rows: the fault is data row 4, the first row of the third block
        monkeypatch.setattr(postcal_io, "BLOCK_ROWS", 2)
        records, strata = write_inputs(tmp_path)
        header, *rows = RECORDS_CSV.splitlines()
        rows = [f"r{i + 1},{fields}" for i, fields in enumerate(rows + rows)]
        rows[4] = row
        records.write_text("# run metadata\n" + "\n".join([f"id,{header}", *rows]) + "\n")
        with pytest.raises(DataError, match=rf"records\.csv:7: {re.escape(message)}$"):
            read_sample(records, strata, dataclasses.replace(roles(), record_id="id"))

    @pytest.mark.parametrize("block_rows", [1, 2, postcal_io.BLOCK_ROWS])
    def test_of_several_faults_the_first_in_file_order_is_named(
        self, tmp_path, monkeypatch, block_rows
    ):
        monkeypatch.setattr(postcal_io, "BLOCK_ROWS", block_rows)
        records, strata = write_inputs(tmp_path)
        header, *good = RECORDS_CSV.splitlines()
        good = [f"r{i + 1},{fields}" for i, fields in enumerate(good)]
        faults = {
            1: ("r2,s1,d1,2.5,0,0,trades,abc", "'abc' is not a finite number"),
            2: ("r1,s2,d2,3.0,1,20,trades,800", "duplicate record id 'r1' (first on line 2)"),
            3: ("r4,s2,d2", "3 fields, header has 8"),
        }
        rows = list(good)
        for i, (row, _) in faults.items():
            rows[i] = row
        for i, (_, message) in faults.items():
            records.write_text("\n".join([f"id,{header}", *rows]) + "\n")
            with pytest.raises(DataError, match=rf"records\.csv:{i + 2}: {re.escape(message)}$"):
                read_sample(records, strata, dataclasses.replace(roles(), record_id="id"))
            rows[i] = good[i]  # mend this fault: the next one in file order is named

    def test_non_utf8_byte_after_an_earlier_fault_is_not_named(self, tmp_path):
        records, strata = write_inputs(tmp_path)
        header, first, *rest = RECORDS_CSV.splitlines()
        text = "\n".join([header, first.replace("2.5", "inf", 1), *rest]) + "\n"
        records.write_bytes(text.encode() + b"s1,d1,1\xff,1,30,trades,500\n")
        with pytest.raises(DataError, match=r"records\.csv:2: 'inf' is not a finite number$"):
            read_sample(records, strata, roles())
        records.write_bytes(RECORDS_CSV.encode() + b"s1,d1,1\xff,1,30,trades,500\n")
        with pytest.raises(DataError, match=r"records\.csv:6: byte 0xff is not UTF-8$"):
            read_sample(records, strata, roles())

    @pytest.mark.parametrize("block_rows", [1, 2, postcal_io.BLOCK_ROWS])
    @pytest.mark.parametrize(
        "row, message",
        [
            ("r4,s2,d2", "3 fields, header has 8"),
            ("r4,s2,d2,3.0,1,abc,managers,2000", "'abc' is not a finite number"),
            ("r1,s2,d2,3.0,1,45,managers,2000", "duplicate record id 'r1' (first on line 2)"),
        ],
        ids=["ragged", "bad-number", "duplicate"],
    )
    def test_fault_after_a_field_spanning_lines_is_named_by_its_line(
        self, tmp_path, monkeypatch, block_rows, row, message
    ):
        # data row 2 holds a label over three lines, so data row 4 starts on line 7
        monkeypatch.setattr(postcal_io, "BLOCK_ROWS", block_rows)
        records, strata = write_inputs(tmp_path)
        header, *rows = RECORDS_CSV.splitlines()
        rows = [f"r{i + 1},{fields}" for i, fields in enumerate(rows)]
        rows[1] = rows[1].replace("trades", '"tra\ndes\nmen"')
        rows[3] = row
        records.write_text("\n".join([f"id,{header}", *rows]) + "\n")
        with pytest.raises(DataError, match=rf"records\.csv:7: {re.escape(message)}$"):
            read_sample(records, strata, dataclasses.replace(roles(), record_id="id"))

    @pytest.mark.parametrize("block_rows", [1, 2, postcal_io.BLOCK_ROWS])
    def test_duplicate_of_a_row_after_a_field_spanning_lines_names_its_first_line(
        self, tmp_path, monkeypatch, block_rows
    ):
        # data row 1 holds a label over three lines, so r2 starts on line 5;
        # in blocks of 2 rows its line is on the first block's list [2, 5]
        monkeypatch.setattr(postcal_io, "BLOCK_ROWS", block_rows)
        records, strata = write_inputs(tmp_path)
        header, *rows = RECORDS_CSV.splitlines()
        rows = [f"r{i + 1},{fields}" for i, fields in enumerate(rows)]
        rows[0] = rows[0].replace("managers", '"mana\nger\ns"')
        rows[3] = rows[3].replace("r4", "r2", 1)
        records.write_text("\n".join([f"id,{header}", *rows]) + "\n")
        message = "duplicate record id 'r2' (first on line 5)"
        with pytest.raises(DataError, match=rf"records\.csv:7: {re.escape(message)}$"):
            read_sample(records, strata, dataclasses.replace(roles(), record_id="id"))

    def test_attributes_are_stored_as_codes_in_order_of_first_appearance(self, tmp_path):
        records, strata = write_inputs(tmp_path)
        sample = read_sample(records, strata, roles()).sample
        levels, codes = sample.attribute_codes["occupation"]
        assert levels == ("managers", "trades")
        assert codes.tolist() == [0, 1, 1, 0]
        assert codes.dtype == np.uint8
        assert "attributes" not in vars(sample)

    @pytest.mark.parametrize("block_rows", [1, postcal_io.BLOCK_ROWS])
    def test_records_header_repeating_a_name_is_refused(self, tmp_path, monkeypatch, block_rows):
        # the last column, income, named hours as well: it must not stand in for hours
        monkeypatch.setattr(postcal_io, "BLOCK_ROWS", block_rows)
        records, strata = write_inputs(tmp_path)
        header, *rows = RECORDS_CSV.splitlines()
        records.write_text("\n".join(["# run metadata", header.replace("income", "hours"), *rows]) + "\n")
        no_income = dataclasses.replace(roles(), outcomes=())
        with pytest.raises(DataError, match=r"records\.csv:2: header repeats column 'hours'$"):
            read_sample(records, strata, no_income)

    def test_strata_header_repeating_a_name_is_refused(self, tmp_path):
        records, strata = write_inputs(tmp_path)
        strata.write_text(STRATA_CSV.replace("deff,z", "z,z", 1))
        with pytest.raises(DataError, match=r"strata\.csv:1: header repeats column 'z'$"):
            read_sample(records, strata, roles())


def write_records(path, n, seed=0):
    """``n`` records in the columns of ``roles()`` plus an id, with numbers
    written at 17 significant digits as the benchmark's large sample is."""
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "stratum", "domain", "weight", "employed", "hours", "occupation", "income"])
        for i in range(n):
            s = i % 2
            writer.writerow(
                [
                    f"r{i:06d}", f"s{s + 1}", f"d{s + 1}", "%.17g" % rng.uniform(1, 5),
                    int(rng.random() < 0.6), "%.17g" % rng.uniform(0, 60),
                    ("managers", "trades", "services")[i % 3], "%.17g" % rng.normal(900, 300),
                ]
            )


def test_read_sample_holds_one_block_of_fields_at_a_time(tmp_path, monkeypatch):
    # four times the blocks may at most double the memory the read frees
    # again (its peak above what it retains); a whole-file read quadruples it
    monkeypatch.setattr(postcal_io, "BLOCK_ROWS", 1024)
    strata = tmp_path / "strata.csv"
    strata.write_text("id,population_size\ns1,100000\ns2,100000\n")

    def transient(blocks):
        records = tmp_path / f"records{blocks}.csv"
        write_records(records, blocks * 1024)
        tracemalloc.start()
        try:
            ingested = read_sample(records, strata, dataclasses.replace(roles(), record_id="id"))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ingested.sample.n == blocks * 1024
        return peak - retained

    assert transient(16) <= 2 * transient(4)


def reference_read_table(path):
    """The reader's row-wise form: csv.reader over the kept lines, then a
    transpose of the row lists into column tuples."""
    text, lines = [], []
    with open(path, newline="") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip() and not line.startswith("#"):
                text.append(line)
                lines.append(number)
    header, *rows = csv.reader(text)
    return dict(zip(header, zip(*rows))), lines[1:]


def csv_reads_nul():
    """Whether this Python's csv module reads a NUL as a character (3.11 on)
    rather than raising "line contains NUL" (3.10)."""
    try:
        return list(csv.reader(["a\0b"])) == [["a\0b"]]
    except csv.Error:
        return False


# labels with the characters that force csv quoting, and the alphabets of
# plain ones (one with a NUL where the csv module reads one), so that a table
# may open with plain lines and go on with lines only the csv module reads;
# no 'r', so no label can equal a field of the ragged row below
LABELS = st.text(alphabet='ab ,"', max_size=6).filter(lambda s: s == "" or s.strip())
PLAIN_ALPHABETS = st.sampled_from(["ab", "ab "] + ["ab\0"] * csv_reads_nul())
# two of them make a line longer than the csv module's field size limit
LONG_LABEL = "a" * (csv.field_size_limit() // 2 + 1)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
NOISE_LINES = st.sampled_from(["", "   ", "\t", "# run metadata", "#a,b,\"c", "# "])


@st.composite
def delimited_tables(draw):
    """A csv.writer table as a list of lines without their ends, with blank
    and '#' lines at random positions, and the index of its header line.
    Its rows are some of plain labels, then some of any labels; one of them
    may hold two ``LONG_LABEL``s."""
    k = draw(st.integers(1, 4), label="columns")
    header = draw(st.lists(LABELS.filter(bool), min_size=k, max_size=k, unique=True))
    plain = st.text(alphabet=draw(PLAIN_ALPHABETS), max_size=6).filter(lambda s: s == "" or s.strip())
    rows = draw(st.lists(st.lists(plain, min_size=k, max_size=k), max_size=8), label="plain rows")
    if not rows or draw(st.booleans(), label="any rows after"):
        rows += draw(st.lists(st.lists(LABELS, min_size=k, max_size=k), min_size=1, max_size=8))
    if k > 1 and draw(st.integers(0, 3), label="long line") == 0:
        rows[draw(st.integers(0, len(rows) - 1))][:2] = [LONG_LABEL] * 2
    lines = []
    for row in [header, *rows]:
        out = io.StringIO()
        csv.writer(out, lineterminator="").writerow(row)
        lines.append(out.getvalue())
    header_line = lines[0]
    for _ in range(draw(st.integers(0, 4), label="noise")):
        lines.insert(draw(st.integers(0, len(lines))), draw(NOISE_LINES))
    return k, lines, lines.index(header_line)


def join_lines(draw, lines):
    """The lines, each with one line end for them all or each its own."""
    end = draw(st.one_of(st.none(), LINE_ENDS), label="one line end")
    return "".join(line + (end or draw(LINE_ENDS)) for line in lines)


# Block sizes the reader is checked at: at 1, 2 and 3 rows a block boundary
# falls inside every generated table.
BLOCK_SIZES = (1, 2, 3, postcal_io.BLOCK_ROWS)


class TestReadTable:
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(table=delimited_tables(), data=st.data())
    def test_columns_and_lines_match_the_row_wise_reader(
        self, tmp_path_factory, monkeypatch, table, data
    ):
        _, lines, _ = table
        path = tmp_path_factory.getbasetemp() / "table.csv"
        path.write_text(join_lines(data.draw, lines), newline="")
        expected_columns, expected_numbers = reference_read_table(path)
        for block_rows in BLOCK_SIZES:
            monkeypatch.setattr(postcal_io, "BLOCK_ROWS", block_rows)
            columns, numbers = _read_table(path)
            assert {name: tuple(values) for name, values in columns.items()} == expected_columns
            assert numbers == expected_numbers

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(table=delimited_tables(), data=st.data())
    def test_ragged_row_is_named_by_its_file_line(self, tmp_path_factory, monkeypatch, table, data):
        k, lines, header_at = table
        lines = list(lines)
        fields = data.draw(st.integers(1, k + 2).filter(lambda f: f != k), label="fields")
        ragged = ",".join(["ragged"] * fields)
        lines.insert(data.draw(st.integers(header_at + 1, len(lines)), label="at"), ragged)
        text = join_lines(data.draw, lines)
        path = tmp_path_factory.getbasetemp() / "table.csv"
        path.write_text(text, newline="")
        # the file line as an independent splitter on LF, CRLF and CR counts it
        line = re.split(r"\r\n|\r|\n", text).index(ragged) + 1
        for block_rows in BLOCK_SIZES:
            monkeypatch.setattr(postcal_io, "BLOCK_ROWS", block_rows)
            with pytest.raises(DataError, match=rf"table\.csv:{line}: {fields} fields, header has {k}$"):
                _read_table(path)

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(table=delimited_tables(), data=st.data())
    def test_byte_that_is_not_utf8_is_named_by_its_file_line(
        self, tmp_path_factory, monkeypatch, table, data
    ):
        _, lines, _ = table
        lines = list(lines)
        if data.draw(st.booleans(), label="padded"):
            # a long first line puts the byte past the text reader's first chunk
            lines.insert(0, "#" + "x" * 10_000)
        at = data.draw(st.integers(0, len(lines) - 1), label="at")
        cut = data.draw(st.integers(0, len(lines[at])), label="cut")
        ends = [data.draw(LINE_ENDS) for _ in lines]
        raw = b"".join(
            (line[:cut] + "\udcff" + line[cut:] if i == at else line).encode("utf-8", "surrogateescape")
            + end.encode()
            for i, (line, end) in enumerate(zip(lines, ends))
        )
        path = tmp_path_factory.getbasetemp() / "table.csv"
        path.write_bytes(raw)
        # the file line as an independent splitter on LF, CRLF and CR counts it
        line = len(re.findall(rb"\r\n|\r|\n", raw[: raw.index(b"\xff")])) + 1
        for block_rows in BLOCK_SIZES:
            monkeypatch.setattr(postcal_io, "BLOCK_ROWS", block_rows)
            with pytest.raises(DataError, match=rf"table\.csv:{line}: byte 0xff is not UTF-8$"):
                _read_table(path)


    @pytest.mark.parametrize("block_rows", [1, 2, postcal_io.BLOCK_ROWS])
    def test_a_row_after_a_field_spanning_lines_is_named_by_its_first_line(
        self, tmp_path, monkeypatch, block_rows
    ):
        monkeypatch.setattr(postcal_io, "BLOCK_ROWS", block_rows)
        path = tmp_path / "table.csv"
        path.write_text('a,b\n"x\ny",1\n3,z\n')
        columns, lines = _read_table(path)
        assert columns == {"a": ["x\ny", "3"], "b": ["1", "z"]}
        assert lines == [2, 4]
        path.write_text('a,b\n"x\ny",1\n2\n')
        with pytest.raises(DataError, match=r"table\.csv:4: 1 fields, header has 2$"):
            _read_table(path)


    @pytest.mark.parametrize("block_rows", [1, 2, postcal_io.BLOCK_ROWS])
    def test_unmatched_quote_is_named_by_the_line_its_row_starts_on(
        self, tmp_path, monkeypatch, block_rows
    ):
        # the quoted field runs on past the csv module's field size limit; a
        # field spanning lines ahead of it makes the reader count the rows'
        # lines again
        monkeypatch.setattr(postcal_io, "BLOCK_ROWS", block_rows)
        records, strata = write_inputs(tmp_path)
        write_records(records, 2_000)
        lines = records.read_bytes().decode().split("\r\n")
        lines[1] = lines[1].replace("managers", '"mana\r\ngers"')
        lines[5] = lines[5].replace(",s", ',"s', 1)  # data row 4, file line 7
        assert len("\r\n".join(lines[5:])) > csv.field_size_limit()
        records.write_text("\r\n".join(lines), newline="")
        limit = rf"field larger than field limit \({csv.field_size_limit()}\)$"
        with pytest.raises(DataError, match=rf"records\.csv:7: {limit}"):
            read_sample(records, strata, dataclasses.replace(roles(), record_id="id"))

    def test_unmatched_quote_in_the_header_is_named_by_its_line(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text('# seed=1\n\n"a,b\n' + "1,2\n" * 40_000)
        with pytest.raises(DataError, match=r"table\.csv:3: field larger than field limit"):
            _read_table(path)


# what breaks a line of an input file when put into it: a quote, a NUL, a
# byte that is not UTF-8, a field separator, a line end, a leading space, '#'
BREAKS = st.sampled_from(['"', "\0", "\udcff", ",", "\r", "\n", " ", "#"])
# what a field may be swapped for; the last is longer than the csv module's field size limit
FAULTY_FIELDS = st.sampled_from(["nan", "1e400", "", "x", "9" * (csv.field_size_limit() + 1)])


@st.composite
def broken_files(draw, header, row):
    """The text of a file with ``header`` and rows drawn from ``row`` (which
    get the row number as their first field), with blank and '#' lines and
    line ends as ``join_lines`` draws them; a row may be repeated, a field
    swapped for a faulty one, and a line broken at a random place."""
    rows = [[str(i), *draw(row)] for i in range(draw(st.integers(1, 12), label="rows"))]
    if draw(st.booleans(), label="repeat a row"):
        rows.append(rows[draw(st.integers(0, len(rows) - 1))])
    if draw(st.booleans(), label="swap a field"):
        fields = rows[draw(st.integers(0, len(rows) - 1))]
        fields[draw(st.integers(0, len(fields) - 1))] = draw(FAULTY_FIELDS)
    lines = [",".join(fields) for fields in [header, *rows]]
    if draw(st.booleans(), label="break a line"):
        at = draw(st.integers(0, len(lines) - 1))
        cut = draw(st.integers(0, len(lines[at])))
        lines[at] = lines[at][:cut] + draw(BREAKS) + lines[at][cut:]
    for _ in range(draw(st.integers(0, 2), label="noise")):
        lines.insert(draw(st.integers(0, len(lines))), draw(NOISE_LINES))
    return join_lines(draw, lines)


def _number(low, high):
    return st.floats(low, high).map(lambda x: MACHINE_FLOAT % x)


# a record of write_records' columns after the id, and a draw's columns after its chain tag
RECORD_ROWS = st.tuples(
    st.sampled_from(["s1", "s2"]),
    st.sampled_from(["d1", "d2"]),
    _number(1, 5),
    st.sampled_from(["0", "1"]),
    _number(0, 60),
    st.sampled_from(["managers", "trades", "é", "a b"]),
    _number(-1e3, 1e4),
)
RECORD_HEADER = ("id", "stratum", "domain", "weight", "employed", "hours", "occupation", "income")
DRAW_SPEC = CalibrationSpec(("a", "b"), ("d1", "d2"))
DRAW_ROWS = st.tuples(*[_number(-1e6, 1e6)] * 4)


def read_outcome(read):
    """What ``read()`` returns as bytes, names and level orders, or the
    text of the DataError it raises."""
    try:
        result = read()
    except DataError as exc:
        return str(exc)
    if isinstance(result, PosteriorDraws):
        return result.draws.tobytes(), result.chain_tags.tobytes()
    sample = result.sample
    arrays = (sample.stratum_idx, sample.domain_idx, sample.weights, sample.calib, *sample.outcomes.values())
    return (
        result.record_ids,
        sample.calibration.domain_order,
        [(a.dtype.str, a.tobytes()) for a in arrays],
        {name: (levels, codes.dtype.str, codes.tobytes()) for name, (levels, codes) in sample.attribute_codes.items()},
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    records=broken_files(RECORD_HEADER, RECORD_ROWS),
    draws=broken_files(("chain",) + DRAW_SPEC.block_labels(), DRAW_ROWS),
)
def test_plain_blocks_read_as_the_csv_module_reads_them(tmp_path_factory, monkeypatch, records, draws):
    base = tmp_path_factory.getbasetemp()
    strata = base / "strata.csv"
    strata.write_text("id,population_size\ns1,100000\ns2,100000\n")
    for name, text in (("records.csv", records), ("draws.csv", draws)):
        (base / name).write_bytes(text.encode("utf-8", "surrogateescape"))
    reads = (
        lambda: read_sample(base / "records.csv", strata, dataclasses.replace(roles(), record_id="id")),
        lambda: read_draws(base / "draws.csv", DRAW_SPEC),
    )
    for block_rows in BLOCK_SIZES:
        monkeypatch.setattr(postcal_io, "BLOCK_ROWS", block_rows)
        both = [read_outcome(read) for read in reads]
        with monkeypatch.context() as csv_only:
            csv_only.setattr(postcal_io, "_plain_fields", lambda lines, k: None)
            csv_only.setattr(postcal_io, "_draw_rows", lambda lines, k: None)
            assert [read_outcome(read) for read in reads] == both

class TestDrawsRoundTrip:
    def test_exact_float_round_trip(self, tmp_path):
        spec = CalibrationSpec(("a", "b"), ("d1", "d2"))
        rng = np.random.default_rng(0)
        draws = PosteriorDraws(
            draws=rng.normal(scale=1e6, size=(20, 4)) + np.pi,
            chain_tags=np.repeat([0, 1], 10),
        )
        path = tmp_path / "draws.csv"
        write_draws(path, draws, spec, metadata={"seed": 1, "config_hash": "ff"})
        loaded = read_draws(path, spec)
        assert np.array_equal(loaded.draws, draws.draws)
        assert np.array_equal(loaded.chain_tags, draws.chain_tags)
        text = path.read_text()
        assert text.startswith("# config_hash=ff\n# seed=1\n")
        assert text.splitlines()[2] == "chain,v1_d1,v1_d2,v2_d1,v2_d2"

    def test_wrong_layout_rejected(self, tmp_path):
        spec = CalibrationSpec(("a", "b"), ("d1", "d2"))
        other = CalibrationSpec(("a",), ("d1", "d2"))
        draws = PosteriorDraws(draws=np.ones((3, 4)), chain_tags=np.zeros(3, dtype=int))
        path = tmp_path / "draws.csv"
        write_draws(path, draws, spec)
        with pytest.raises(DataError, match="layout"):
            read_draws(path, other)

    def test_weights_file_format(self, tmp_path):
        path = tmp_path / "weights.csv"
        write_weights(
            path,
            ["r1", "r2"],
            np.array([2.0, 3.0]),
            np.array([1.1, 0.9]),
            np.array([2.2, 2.7]),
            metadata={"seed": 7},
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=7"
        assert lines[1] == "record_id,design_weight,g_factor,calibrated_weight"
        assert lines[2].startswith("r1,2,1.1")


DRAW_HEADER = ",".join(("chain",) + DRAW_SPEC.block_labels())
# spellings of a float that ``float`` reads back to the same value
SPELLINGS = (
    lambda x: MACHINE_FLOAT % x,
    repr,
    "{:+.17g}".format,
    "{:.16e}".format,
    "{:030.17g}".format,
    lambda x: f" {x!r}  ",
)
TAG_SPELLINGS = ("{:d}".format, "{:+d}".format, "{:d}.0".format, "{:d}e0".format, " {:d}".format)


class TestDrawReader:
    """``read_draws`` parses a plain chunk with NumPy's C reader and falls
    back to the csv module, whose rows' checks name faults, for anything
    else."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_values_read_as_float_reads_each_field(self, tmp_path_factory, monkeypatch, data):
        monkeypatch.setattr(postcal_io, "BLOCK_ROWS", data.draw(st.sampled_from([1, 2, 7]), label="block_rows"))
        value = st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPELLINGS))
        tag = st.tuples(st.integers(-3, 3), st.sampled_from(TAG_SPELLINGS))
        rows = data.draw(st.lists(st.tuples(tag, *[value] * 4), min_size=1, max_size=16), label="rows")
        lines = [",".join(spell(x) for x, spell in row) for row in rows]
        end = data.draw(st.sampled_from(["\n", "\r\n"]), label="end")
        text = end.join(["# seed=1", DRAW_HEADER, *lines]) + data.draw(st.sampled_from([end, ""]), label="last")
        path = tmp_path_factory.getbasetemp() / "draws.csv"
        path.write_bytes(text.encode())
        loaded = read_draws(path, DRAW_SPEC)
        reference = np.array([[float(f) for f in line.split(",")] for line in lines])
        assert loaded.draws.tobytes() == reference[:, 1:].tobytes()
        assert loaded.chain_tags.tolist() == [int(t) for t in reference[:, 0]]

    @pytest.mark.parametrize("column", [0, 2], ids=["tag", "value"])
    @pytest.mark.parametrize("spelling", ["1_0", "\u0661", " 2"], ids=["underscore", "arabic-indic", "space-led"])
    def test_spelling_numpy_refuses_is_read_by_the_str_path(self, tmp_path, monkeypatch, column, spelling):
        arrays = []
        real = postcal_io._draw_rows
        monkeypatch.setattr(postcal_io, "_draw_rows", lambda *args: arrays.append(real(*args)) or arrays[-1])
        monkeypatch.setattr(postcal_io, "_plain_fields", None)  # a draw chunk not NumPy's goes to the csv module
        fields = ["0", "1", "2", "3", "4"]
        fields[column] = spelling
        path = tmp_path / "draws.csv"
        path.write_text("\n".join([DRAW_HEADER, ",".join(fields), "1,5,6,7,8"]) + "\n")
        loaded = read_draws(path, DRAW_SPEC)
        row = [loaded.chain_tags[0], *loaded.draws[0]]
        assert row[column] == float(spelling)
        if column == 0 or spelling != " 2":  # NumPy reads a padded value as float does
            assert arrays == [None] * len(arrays)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "mixed"])
    @pytest.mark.parametrize("column", [0, 2], ids=["tag", "value"])
    @pytest.mark.parametrize(
        "field", ["nan", "-inf", "1e400", "", "x", "0.5", "1e19", "\x1c3"], ids=repr
    )
    def test_faulty_field_in_a_plain_file_is_named_as_the_csv_module_does(
        self, tmp_path, monkeypatch, end, column, field
    ):
        # the broken-file property reaches a plain chunk with a fault only rarely
        rows = [["0", "1", "2", "3", "4"] for _ in range(4)]
        rows[2][column] = field
        lines = [DRAW_HEADER, *(",".join(r) for r in rows)]
        ends = ["\n", "\r\n"] * 3 if end == "mixed" else [end] * 5
        path = tmp_path / "draws.csv"
        path.write_bytes("".join(map(str.__add__, lines, ends)).encode())
        read = lambda: read_draws(path, DRAW_SPEC)  # noqa: E731
        for block_rows in (1, 3, postcal_io.BLOCK_ROWS):
            monkeypatch.setattr(postcal_io, "BLOCK_ROWS", block_rows)
            fast = read_outcome(read)
            with monkeypatch.context() as csv_only:
                csv_only.setattr(postcal_io, "_plain_fields", lambda lines, k: None)
                csv_only.setattr(postcal_io, "_draw_rows", lambda lines, k: None)
                assert read_outcome(read) == fast
            if column == 0 or field not in ("0.5", "1e19"):  # a fault but in a tag
                assert isinstance(fast, str) and "draws.csv:4: " in fast

    def test_plain_draw_file_is_parsed_by_numpy_c_reader(self, tmp_path, monkeypatch):
        monkeypatch.setattr(postcal_io, "BLOCK_ROWS", 8)
        draws = PosteriorDraws(draws=np.random.default_rng(1).normal(size=(20, 4)), chain_tags=np.repeat([0, 1], 10))
        path = tmp_path / "draws.csv"
        write_draws(path, draws, DRAW_SPEC, metadata={"seed": 1})
        calls = []
        real = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        monkeypatch.setattr(postcal_io, "_floats", None)  # the str path would fail
        loaded = read_draws(path, DRAW_SPEC)
        assert len(calls) == 3
        assert loaded.draws.tobytes() == draws.draws.tobytes()
        assert loaded.chain_tags.tolist() == draws.chain_tags.tolist()

    def test_mixed_line_ends_are_parsed_by_numpy_c_reader(self, tmp_path, monkeypatch):
        # each chunk of three rows opens with CRLF, then an LF and a CR line
        monkeypatch.setattr(postcal_io, "BLOCK_ROWS", 3)
        values = np.random.default_rng(2).normal(size=(12, 4))
        rows = [f"{i // 6}," + ",".join(map(repr, row)) for i, row in enumerate(values.tolist())]
        text = DRAW_HEADER + "\n" + "".join(map(str.__add__, rows, ["\r\n", "\n", "\r"] * 4))
        path = tmp_path / "draws.csv"
        path.write_bytes(text.encode())
        with monkeypatch.context() as csv_only:
            csv_only.setattr(postcal_io, "_draw_rows", lambda lines, k: None)
            expected = read_draws(path, DRAW_SPEC)
        calls = []
        real = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        monkeypatch.setattr(postcal_io, "_floats", None)  # the csv path would fail
        loaded = read_draws(path, DRAW_SPEC)
        assert len(calls) == 4
        assert loaded.draws.tobytes() == expected.draws.tobytes() == values.tobytes()
        assert loaded.chain_tags.tolist() == expected.chain_tags.tolist() == [0] * 6 + [1] * 6

    @pytest.mark.parametrize("plain", [True, False], ids=["plain", "csv"])
    @pytest.mark.parametrize(
        "tags, bad",
        [
            (("0", "1e19", "2e19"), "1e19"),
            (("9007199254740993", "9007199254740992"), "9007199254740993"),
            (("1", "-9007199254740992"), "-9007199254740992"),
        ],
        ids=["1e19", "2**53-pair", "negative"],
    )
    def test_chain_tag_beyond_2_53_is_named_by_its_line(self, tmp_path, plain, tags, bad):
        # such tags would merge once cast to integers
        lines = [DRAW_HEADER, *(f"{t},1,2,3,4" for t in tags)]
        if not plain:
            lines.insert(2, '0,1,2,3,"4"')  # a quote: the rest goes through the csv module
        path = tmp_path / "draws.csv"
        path.write_text("\n".join(lines) + "\n")
        line = lines.index(f"{bad},1,2,3,4") + 1
        message = f"chain tag {bad!r} is not below 2**53 in magnitude"
        with pytest.raises(DataError, match=rf"draws\.csv:{line}: {re.escape(message)}$"):
            read_draws(path, DRAW_SPEC)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_add_ids_names_the_repeat_as_a_naive_scan_does(data):
    n = data.draw(st.integers(1, 60), label="n")
    ids = [f"r{i}" for i in range(n)]
    at = data.draw(st.integers(1, n), label="at")
    ids.insert(at, ids[data.draw(st.integers(0, at - 1), label="copied")])
    gaps = data.draw(st.lists(st.integers(1, 3), min_size=len(ids), max_size=len(ids)), label="gaps")
    lines = np.cumsum(gaps).tolist()  # the file line of each row
    first = {}
    for i, x in enumerate(ids):
        if x in first:
            expected = (i, f"duplicate record id {x!r} (first on line {lines[first[x]]})")
            break
        first[x] = i
    block_rows = data.draw(st.sampled_from([1, 2, 7, 2048]), label="block_rows")
    kept, seen, tables = [], set(), []
    for start in range(0, len(ids), block_rows):
        tables.append(lines[start : start + block_rows])
        faults = []
        postcal_io._add_ids(ids[start : start + block_rows], "record", kept, seen, tables, faults)
        if faults:
            i, message = min(faults)
            break
    assert (start + i, message) == expected


def reference_table(path, header, rows, metadata):
    """The writers' former form: csv.writer rows of ``MACHINE_FLOAT`` fields."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"# {key}={metadata[key]}\n" for key in sorted(metadata))
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ids that csv.writer quotes, and the empty id, which it does not
QUOTED_IDS = st.sampled_from(["", ",", '"', "\r", "\n", 'a"b', "a,b", "x\r\ny", '""', " q "])
MACHINE_VALUES = st.floats() | st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, 3.0, -12.0, 2.0**53])


class TestRowFormattedWriters:
    """``write_draws`` and ``write_weights`` write byte for byte what
    csv.writer writes for the same rows of ``MACHINE_FLOAT`` fields."""

    @staticmethod
    def rows(data, monkeypatch, width):
        """Drawn (id, values) rows repeated to a count on either side of a
        block boundary, at block sizes 1, 2, 3 and the real ``BLOCK_ROWS``."""
        block_rows = data.draw(st.sampled_from([1, 2, 3, postcal_io.BLOCK_ROWS]), label="block_rows")
        monkeypatch.setattr(postcal_io, "BLOCK_ROWS", block_rows)
        row = st.tuples(
            st.text(max_size=5) | QUOTED_IDS, st.lists(MACHINE_VALUES, min_size=width, max_size=width)
        )
        drawn = data.draw(st.lists(row, min_size=1, max_size=7), label="rows")
        n = data.draw(st.sampled_from([len(drawn), block_rows - 1, block_rows, block_rows + 1]), label="n")
        rows = [drawn[i % len(drawn)] for i in range(n)]
        return [rid for rid, _ in rows], np.array([v for _, v in rows], dtype=float).reshape(n, width)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_weights_match_csv_writer(self, tmp_path_factory, monkeypatch, data):
        ids, values = self.rows(data, monkeypatch, 3)
        metadata = {"seed": 7, "config_hash": "ab"}
        got, want = (tmp_path_factory.getbasetemp() / name for name in ("got.csv", "want.csv"))
        write_weights(got, ids, *values.T, metadata=metadata)
        header = ["record_id", "design_weight", "g_factor", "calibrated_weight"]
        rows = ([rid, *(MACHINE_FLOAT % v for v in row)] for rid, row in zip(ids, values))
        reference_table(want, header, rows, metadata)
        assert got.read_bytes() == want.read_bytes()

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_draws_match_csv_writer(self, tmp_path_factory, monkeypatch, data):
        spec = CalibrationSpec(("a", "b"), ("d1", "d2"))
        _, values = self.rows(data, monkeypatch, spec.p)
        values[~np.isfinite(values)] = 0.0  # a draw matrix holds finite values
        n = len(values)
        tags = data.draw(st.lists(st.integers(-3, 2**40), min_size=n, max_size=n), label="tags")
        draws = PosteriorDraws(draws=values, chain_tags=np.array(tags, dtype=int))
        got, want = (tmp_path_factory.getbasetemp() / name for name in ("got.csv", "want.csv"))
        write_draws(got, draws, spec, metadata={"seed": 1})
        rows = ([str(int(t)), *(MACHINE_FLOAT % v for v in row)] for t, row in zip(draws.chain_tags, draws.draws))
        reference_table(want, ("chain",) + spec.block_labels(), rows, {"seed": 1})
        assert got.read_bytes() == want.read_bytes()


BASE_CONFIG = {
    "seed": 99,
    "sample": {
        "records": "records.csv",
        "strata": "strata.csv",
        "columns": {
            "stratum": "stratum",
            "domain": "domain",
            "weight": "weight",
            "calibration": ["employed", "hours"],
            "attributes": ["occupation"],
            "outcomes": ["income"],
        },
    },
    "models": {
        "employed": {"kind": "binary", "covariates": ["z"]},
        "hours": {"kind": "gaussian", "prior_scale": 2.0},
    },
    "mcmc": {"burnin": 10, "iterations": 20, "chains": 2},
    "cells": [
        {"name": "hours_d1", "sum": "hours", "where": {"domain": "d1"}},
        {
            "name": "emp_band",
            "sum": "employed",
            "where": {"hours": {"min": 35, "max": 39}},
            "tier": "2-CA",
        },
        {
            "name": "inc_mgr",
            "sum": "income",
            "where": {"occupation": ["managers"]},
            "link": "hours",
        },
    ],
}


class TestConfig:
    def test_parse_full_document(self, tmp_path):
        import copy, yaml

        write_inputs(tmp_path)
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(BASE_CONFIG))
        cfg = load_config(cfg_path)
        assert cfg.seed == 99
        assert cfg.mcmc.iterations == 20
        assert cfg.models["hours"].prior.prior_scale == 2.0
        assert len(cfg.cells) == 3
        assert cfg.cells[0].filter.single_domain() == "d1"
        assert cfg.cells[1].tier_override is TierLabel.TIER_2CA
        assert dict(cfg.cells[1].filter.value_ranges)["hours"] == (35, 39)
        assert cfg.cells[2].link_variable == "hours"

    def test_seed_override_changes_hash(self, tmp_path):
        import yaml

        write_inputs(tmp_path)
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(BASE_CONFIG))
        base = load_config(cfg_path)
        overridden = load_config(cfg_path, seed_override=7)
        assert overridden.seed == 7
        assert base.config_hash != overridden.config_hash
        assert base.config_hash == config_hash(base.raw, 99)

    def test_duplicate_cells_rejected(self):
        raw = {
            "cells": [
                {"name": "x", "sum": "a"},
                {"name": "x", "sum": "b"},
            ]
        }
        with pytest.raises(ConfigError, match=re.escape("cells[1].name: 'x' repeats [0]")):
            parse_config(raw)

    @pytest.mark.parametrize("value", [3, 3.0, "3"])
    def test_integer_key_takes_integral_forms(self, value):
        assert parse_config({"mcmc": {"chains": value}}).mcmc.chains == 3

    @pytest.mark.parametrize(
        "models,cause",
        [
            ({"wages": {"kind": "gaussian"}}, "models.wages: not a calibration variable"),
            ({}, "models: no model for calibration variables ['hours']"),
        ],
    )
    def test_simulation_models_match_its_generated_variables(self, models, cause):
        import yaml

        raw = yaml.safe_load(SMOKE_CONFIG.read_text())
        if models:
            raw["models"].update(models)
        else:
            del raw["models"]["hours"]
        with pytest.raises(ConfigError, match=re.escape(cause)):
            parse_config(raw)

    def test_absent_keys_leave_the_dataclass_defaults(self):
        population = {
            "domains": ["d1"],
            "strata": [{"id": "s1", "domain": "d1", "population_size": 10}],
            "variables": [
                {"name": "emp", "kind": "binary", "intercept": 0.0},
                {"name": "hrs", "kind": "continuous", "mean": 1.0, "unit_sd": 1.0},
            ],
            "attributes": [{"name": "occ", "levels": {"a": 1.0}}],
            "outcomes": [{"name": "inc", "link": "hrs", "rho": 0.5}],
        }
        raw = {
            "seed": 5,
            "models": {"emp": {"kind": "binary"}, "hrs": {"kind": "gaussian"}},
            "simulate": {
                "population": population,
                "derived": [{"name": "band", "source": "hrs", "bands": [{"label": "x"}]}],
            },
        }
        assert parse_config(raw) == RunConfig(
            seed=5,
            raw=raw,
            band_rules=(BandRule("band", "hrs", (("x", None, None),)),),
            models={"emp": ModelConfig("emp", HBPrior("binary")), "hrs": ModelConfig("hrs", HBPrior("gaussian"))},
            mcmc=McmcConfig(seed=5),
            simulate=SimulateConfig(
                SyntheticPopulationSpec(
                    domains=("d1",),
                    strata=(StratumSpec("s1", 10, domain="d1"),),
                    variables=(
                        BinaryVariableModel("emp", 0.0),
                        ContinuousVariableModel("hrs", 1.0, 1.0),
                    ),
                    attributes=(AttributeModel("occ", (("a", 1.0),)),),
                    outcomes=(OutcomeModel("inc", "hrs", 0.5),),
                    seed=5,
                )
            ),
        )

    @pytest.mark.parametrize(
        "cell,where,cause",
        [
            (0, {"domain": None}, "cells[0].where.domain: expected a name or a list of names, got None"),
            (0, {"domain": ["east", ["west"]]}, "cells[0].where.domain[1]: expected a name, got ['west']"),
            (0, {"domain": []}, "cells[0].where.domain: expected a name or a list of names, got []"),
            (5, {"occupation": None}, "cells[5].where.occupation: expected a name or a list of names"),
            (5, {"occupation": []}, "cells[5].where.occupation: expected a name or a list of names, got []"),
            (5, {"occupation": {"trades": 1}}, "cells[5].where.occupation: expected a name, got {'trades': 1}"),
            (5, {"occupation": ["trades", ["sales"]]}, "cells[5].where.occupation[1]: expected a name"),
        ],
        ids=[
            "domain-null",
            "domain-nested-list",
            "domain-empty-list",
            "attribute-null",
            "attribute-empty-list",
            "attribute-mapping",
            "attribute-nested-list",
        ],
    )
    def test_malformed_where_value_is_named_not_an_empty_cell(self, cell, where, cause):
        import yaml

        raw = yaml.safe_load(DEMO_CONFIG.read_text())
        raw["cells"][cell]["where"] = where
        with pytest.raises(ConfigError, match=re.escape(cause)):
            parse_config(raw, base_dir=DEMO_CONFIG.parent)

    @pytest.mark.parametrize(
        "config,change,cause",
        [
            (DEMO_CONFIG, lambda raw: raw["cells"][0].update(wher=raw["cells"][0].pop("where")),
             "cells[0].wher: unknown key; expected one of ['name', 'sum', 'where', 'tier', 'link']"),
            (DEMO_CONFIG, lambda raw: raw["mcmc"].update(iteratons=2000), "mcmc.iteratons: unknown key"),
            (DEMO_CONFIG, lambda raw: raw["cells"][0]["where"].update(hours={"mn": 1}),
             "cells[0].where.hours.mn: unknown key of an interval; expected one of ['min', 'max']"),
            (DEMO_CONFIG, lambda raw: raw["cells"][5].update(where={"occuptaion": "trades"}),
             "cells[5].where.occuptaion: unknown attribute 'occuptaion'; declared ['occupation', 'hours_band']"),
            (DEMO_CONFIG, lambda raw: raw["cells"][7].update(where={"income": 5}),
             "cells[7].where.income: unknown attribute 'income'"),
            (SMOKE_CONFIG, lambda raw: raw["cells"][1].update(where={"occupaton": "trades"}),
             "cells[1].where.occupaton: unknown attribute 'occupaton'; declared ['occupation']"),
            *(
                (config, lambda raw, tier=tier: raw["cells"][-1].update(tier=tier),
                 f"cells[{last}].tier: {tier!r} needs a summed calibration variable; 'income' is an outcome")
                for config, last in [(DEMO_CONFIG, 8), (SMOKE_CONFIG, 2)]
                for tier in ("2-CA", "2-NCA")
            ),
            # a band that took an attribute's name once replaced the attribute's
            # column, so its cells were empty; a repeated band kept the last
            *(
                (DEMO_CONFIG, lambda raw, name=name: raw["sample"]["derived"][0].update(name=name),
                 f"sample.derived[0].name: {name!r} is {what}")
                for name, what in [("occupation", "an attribute"), ("hours", "a calibration variable"),
                                   ("income", "an outcome")]
            ),
            (DEMO_CONFIG, lambda raw: raw["sample"]["derived"].append(raw["sample"]["derived"][0]),
             "sample.derived[1].name: 'hours_band' repeats sample.derived[0]"),
            (SMOKE_CONFIG, lambda raw: raw["simulate"].update(derived=[{"name": "occupation", "source": "hours",
                                                                       "bands": []}]),
             "simulate.derived[0].name: 'occupation' is an attribute"),
            (SMOKE_CONFIG, lambda raw: raw["simulate"]["population"]["attributes"].append(
                raw["simulate"]["population"]["attributes"][0]),
             "simulate.population.attributes[1].name: 'occupation' repeats [0]"),
        ],
        ids=[
            "cell-key", "mcmc-key", "interval-key", "attribute", "outcome-as-attribute", "simulated-attribute",
            "tier-2CA-outcome", "tier-2NCA-outcome", "simulated-tier-2CA-outcome", "simulated-tier-2NCA-outcome",
            "band-attribute", "band-calibration", "band-outcome", "band-repeat", "simulated-band-attribute",
            "simulated-attribute-repeat",
        ],
    )
    def test_config_fault_is_refused_at_parse_by_its_path(self, config, change, cause):
        import yaml

        raw = yaml.safe_load(config.read_text())
        change(raw)
        with pytest.raises(ConfigError, match=re.escape(cause)):
            parse_config(raw, base_dir=config.parent)

    @pytest.mark.parametrize(
        "cell,tier",
        [(7, "1-E"), (7, "3-NCV"), (5, "2-CA"), (5, "2-NCA"), (0, "3-NCV")],
    )
    def test_tier_override_on_a_fitting_sum_is_kept(self, cell, tier):
        import yaml

        raw = yaml.safe_load(DEMO_CONFIG.read_text())
        raw["cells"][cell]["tier"] = tier
        assert parse_config(raw, base_dir=DEMO_CONFIG.parent).cells[cell].tier_override.value == tier

    def test_bad_tier_rejected(self):
        raw = {"cells": [{"name": "x", "sum": "a", "tier": "9-Z"}]}
        with pytest.raises(ConfigError, match="9-Z"):
            parse_config(raw)

    @pytest.mark.parametrize(
        "path",
        sorted(SMOKE_CONFIG.parent.glob("**/*.yaml")),
        ids=lambda p: str(p.relative_to(SMOKE_CONFIG.parent)),
    )
    def test_libyaml_and_pure_python_loaders_agree(self, path):
        import yaml

        from postcal.config import _YAML_LOADER

        fast = getattr(yaml, "CSafeLoader", None)
        if fast is None:
            assert _YAML_LOADER is yaml.SafeLoader
            pytest.skip("PyYAML built without libyaml")
        assert _YAML_LOADER is fast
        text = path.read_text()
        assert yaml.load(text, Loader=fast) == yaml.load(text, Loader=yaml.SafeLoader)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_interval_filter_requires_min_max_keys(self, tmp_path):
        import copy, yaml

        write_inputs(tmp_path)
        bad = copy.deepcopy(BASE_CONFIG)
        bad["cells"] = [
            {"name": "x", "sum": "hours", "where": {"hours": {"lo": 1}}}
        ]
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(bad))
        with pytest.raises(ConfigError, match="interval"):
            load_config(cfg_path)


class TestSimulateSection:
    def test_load_config_rejects_a_malformed_population_key(self, tmp_path):
        import yaml

        population = {
            "domains": ["d1"],
            "strata": {"per_domain": "two", "population_size": 10},
            "variables": [{"name": "emp", "kind": "binary", "intercept": 0.0}],
        }
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"simulate": {"population": population}}))
        with pytest.raises(ConfigError, match=r"simulate\.population\.strata\.per_domain"):
            load_config(path)

    @pytest.mark.parametrize(
        "change,cause",
        [
            (("cells", 2, "sum", "wages"), "cells[2].sum: variable 'wages' is neither"),
            (("cells", 0, "where", "domain", "d9"), "cells[0].where.domain: unknown domains ['d9']"),
            (
                ("simulate", "derived", [{"name": "band", "source": "occupation", "bands": [{"label": "x"}]}]),
                "simulate.derived[0].source: 'occupation' is not a numeric column",
            ),
        ],
        ids=["cell-sum", "cell-domain", "band-source"],
    )
    def test_simulation_only_config_checks_cells_and_bands_against_the_population(
        self, change, cause
    ):
        import yaml

        raw = yaml.safe_load(SMOKE_CONFIG.read_text())
        *keys, last, value = change
        section = raw
        for key in keys:
            section = section[key]
        section[last] = value
        with pytest.raises(ConfigError, match=re.escape(cause)):
            parse_config(raw)

    @pytest.mark.parametrize(
        "change,cause",
        [
            (("seed", -1), "seed: expected at least 0, got -1"),
            (("models", "employed", "covariates", [["z"]]), "models.employed.covariates[0]: expected a name, got ['z']"),
            (("models", "hours", "covariates", {"z": 1}), "models.hours.covariates: expected a name, got {'z': 1}"),
            (("simulate", "population", "domains", ["d1", ["d2"]]), "simulate.population.domains[1]: expected a name"),
            (("simulate", "population", "domains", [{"d1": 1}, "d2"]), "simulate.population.domains[0]: expected a name"),
            (
                ("simulate", "population", "variables", 0, "stratum_sd", -0.15),
                "simulate.population.variables[0].stratum_sd: expected nonnegative, got -0.15",
            ),
            (
                ("simulate", "population", "variables", 1, "unit_sd", -10.0),
                "simulate.population.variables[1].unit_sd: expected nonnegative, got -10.0",
            ),
            (("cells", 0, "where", {"hours": {"min": 40, "max": 30}}), "cells[0].where.hours: min 40.0 exceeds max 30.0"),
            (
                ("simulate", "derived", [{"name": "band", "source": "hours", "bands": [{"label": "x", "min": 4, "max": 3}]}]),
                "simulate.derived[0].bands[0]: min 4.0 exceeds max 3.0",
            ),
        ],
        ids=[
            "seed-negative",
            "covariate-list",
            "covariates-mapping",
            "domain-list",
            "domain-mapping",
            "stratum-sd-negative",
            "unit-sd-negative",
            "cell-interval-reversed",
            "band-reversed",
        ],
    )
    def test_value_that_would_fail_later_is_named_by_its_key(self, change, cause):
        import yaml

        raw = yaml.safe_load(SMOKE_CONFIG.read_text())
        *keys, last, value = change
        section = raw
        for key in keys:
            section = section[key]
        section[last] = value
        with pytest.raises(ConfigError, match=re.escape(cause)):
            parse_config(raw)

    @pytest.mark.parametrize(
        "change,cause",
        [
            (("variables", 0, "kind", [1]), "variables[0].kind: expected 'binary' or 'continuous', got [1]"),
            (("variables", 1, "gated_by", "hours"), "variables[1].gated_by: 'hours' is not an earlier variable"),
            (
                ("variables", 0, "exclusive_with", "hours"),
                "variables[0].exclusive_with: 'hours' is not an earlier binary variable",
            ),
            (("outcomes", 0, "link", [1]), "outcomes[0].link: expected a name, got [1]"),
            (("outcomes", 0, "link", "wages"), "outcomes[0].link: 'wages' is not a generated variable"),
            (("attributes", 0, "name", None), "attributes[0].name: expected a name, got None"),
            (
                ("strata", [{"id": "s1", "domain": "d9", "population_size": 10}]),
                "strata[0].domain: 'd9' is not a declared domain",
            ),
        ],
        ids=["kind", "gated-by", "exclusive-with", "link-list", "link-unknown", "attribute-null", "stratum-domain"],
    )
    def test_population_entry_is_named_by_its_key(self, change, cause):
        import yaml

        raw = yaml.safe_load(SMOKE_CONFIG.read_text())
        *keys, last, value = change
        section = raw["simulate"]["population"]
        for key in keys:
            section = section[key]
        section[last] = value
        with pytest.raises(ConfigError, match=re.escape(f"simulate.population.{cause}")):
            parse_config(raw)

    def test_unknown_simulated_covariate_is_named_by_its_key(self, tmp_path, capsys):
        import yaml

        raw = yaml.safe_load(SMOKE_CONFIG.read_text())
        raw["models"]["hours"]["covariates"] = [7]
        raw["simulate"]["mc"]["replications"] = 1
        (tmp_path / "config.yaml").write_text(yaml.safe_dump(raw))
        assert main(["simulate", "--config", str(tmp_path / "config.yaml"), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: models.hours.covariates: unknown stratum covariate '7'\n"

    def test_equal_bounds_and_zero_sds_stay_valid(self):
        import yaml

        raw = yaml.safe_load(SMOKE_CONFIG.read_text())
        raw["cells"][0]["where"] = {"hours": {"min": 30, "max": 30}}
        raw["simulate"]["derived"] = [{"name": "band", "source": "hours", "bands": [{"label": "x", "min": 3, "max": 3}]}]
        raw["simulate"]["population"]["variables"][1].update(stratum_sd=0, unit_sd=0)
        cfg = parse_config(raw)
        assert dict(cfg.cells[0].filter.value_ranges)["hours"] == (30.0, 30.0)
        assert cfg.band_rules[0].bands == (("x", 3.0, 3.0),)
        assert cfg.simulate.population.variables[1].unit_sd == 0.0

    def test_negative_sampler_seed_is_refused(self):
        with pytest.raises(DataError, match="seed: expected at least 0, got -1"):
            McmcConfig(seed=-1)

    def test_shipped_smoke_config_parses_to_typed_values(self):
        cfg = load_config(SMOKE_CONFIG, seed_override=3)
        assert (cfg.simulate.replications, cfg.simulate.sampling_fraction) == (5, 0.1)
        population = cfg.simulate.population
        assert population.seed == 3
        assert [s.id for s in population.strata] == [f"s{k}" for k in range(1, 9)]
        assert population.variables[1].clip == (1.0, 60.0)


class TestErrorContext:
    """An error holds its cause and its context parts, outermost first, and
    reads as the parts and then the cause."""

    @pytest.mark.parametrize(
        "held,parts,where",
        [
            ((), ("a: ",), ("a: ",)),
            (("b: ",), ("a: ", "", "ab: "), ("a: ", "ab: ", "b: ")),
            # a replication's label goes in front of the variable its input names
            (("variable 'v': ",), ("replication 0, ", "variable 'v': "), ("replication 0, ", "variable 'v': ")),
            (("replication 0, ", "variable 'v': "), ("replication 0, ",), ("replication 0, ", "variable 'v': ")),
        ],
    )
    def test_within_puts_parts_in_front_once(self, held, parts, where):
        error = DataError("cause", *held)
        assert error.within(*parts) is error
        assert (error.cause, error.where, str(error)) == ("cause", where, "".join(where) + "cause")

    @pytest.mark.parametrize(
        "refuse,text",
        [
            (lambda: checked(-1, positive, "prior_df"), "prior_df: expected positive, got -1"),
            (lambda: checked(["a", ["b"]], names, "domains", ConfigError), "domains[1]: expected a name, got ['b']"),
            (lambda: checked(["a", "a"], names, "domains", ConfigError), "domains[1]: 'a' repeats [0]"),
            (lambda: checked([1, "x"], _pair(False), "range", ConfigError), "range: expected real, got 'x'"),
            (lambda: checked([2, 1], _pair(True), "clip", ConfigError), "clip: min 2.0 exceeds max 1.0"),
            (lambda: distinct(["s1", "s1"], "strata", key=".id"), "strata[1].id: 's1' repeats [0]"),
        ],
    )
    def test_text_is_the_parts_then_the_cause(self, refuse, text):
        with pytest.raises((ConfigError, DataError)) as refused:
            refuse()
        assert str(refused.value) == text == "".join(refused.value.where) + refused.value.cause

    def test_pickled_error_keeps_its_context(self):
        # a worker process's refusal reaches the parent through pickle
        error = NumericalError("non-finite log-posterior", "variable 'v': ", models=[1, 3]).within("replication 0, ")
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is NumericalError
        assert (back.cause, back.where, back.models) == (error.cause, ("replication 0, ", "variable 'v': "), (1, 3))
        assert str(back) == "replication 0, variable 'v': non-finite log-posterior"
