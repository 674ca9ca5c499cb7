"""A seeded mutation fuzz of the demo inputs through the CLI.

Each case breaks one thing in a copy of the demo ``records.csv``,
``strata.csv``, a ``draws.csv`` fitted from them, or ``config.yaml``: it
drops, repeats or truncates a line, swaps a field for a faulty token, or
swaps the type of a config leaf.  It then runs ``calibrate``, ``infer`` and
``diagnose`` with ``--draws`` in-process.  So that swapped ``models:``,
``mcmc:`` and ``simulate:`` values reach a sampler too, each leaf of the
demo config is also swapped on short chains and run through ``fit``, and
each leaf of the smoke simulation config on short chains and one
replication through ``simulate``; each numeric leaf of the two is also
swapped for NaN, an infinity, -7 and 7, and each key of the two is renamed
with a suffix: a key of a mapping with a fixed set of keys must be refused
by its path, and a name in a ``models:``, ``where:`` or ``levels:`` mapping
may end as any run does.  A name repeated in a list of names, or of
entries keyed by a name, must be refused by the repeat's path.  Every run
must end with a documented exit code and no traceback, and a refusal
(exit 2) must name where its cause is: a key path, the cell or band rule
that holds it, or the file, with its line where a row is at fault.  A
swapped number may also leave ``simulate`` a generated sample it refuses,
which names its replication; no refusal names a part of its context
twice in a row.  The cases are drawn once from fixed seeds, so every run
checks the same ones.
"""

import copy
import math
import random
import re
import shutil

import pytest
import yaml

from postcal.cli import main

from test_golden import DEMO_CONFIG, SMOKE_CONFIG

SEED = 2026
CASES_PER_FILE = 30
# what a field is swapped for: each is refused, or read as text
TOKENS = (b"nan", b"1e400", b'"', b"", b"\0", b"\xff")
# a number, a string, null, a list and a mapping
SWAPS = (7, "x", None, [1], {"a": 1})
# what a key is renamed to: its name with this suffix
RENAME_SUFFIX = "_x"
# what a numeric leaf is swapped for: not finite, or out of a key's range
VALUES = (math.nan, math.inf, -7.0, 7.0)
DEMO = yaml.safe_load(DEMO_CONFIG.read_text())
# the configs that ``fit`` and ``simulate`` run, on chains short enough
# that a run takes milliseconds
SHORT_MCMC = {"burnin": 5, "iterations": 20, "chains": 2, "rhat_threshold": 100.0}
SHORT = {
    "fit": {**DEMO, "mcmc": SHORT_MCMC},
    "simulate": yaml.safe_load(SMOKE_CONFIG.read_text()) | {"mcmc": SHORT_MCMC},
}
SHORT["simulate"]["simulate"]["mc"]["replications"] = 1
# two keys the smoke config leaves at their defaults, so that swaps reach them
SHORT["simulate"]["simulate"]["population"]["attributes"][0]["domain_tilt"] = 0.05
SHORT["simulate"]["simulate"]["population"]["strata"]["deff"] = 1.0

NAMED_CAUSE = re.compile(
    r"^error: (?:"
    r"\S+\.(?:csv|yaml)(?::\d+)?: "  # a file, with the line of a faulty row
    rf"|(?:{'|'.join({**DEMO, **SHORT['simulate']})})\b[\w.\[\]]*[: ]"  # a key path
    r")",
    re.MULTILINE,
)
# a ``simulate`` refusal of a generated sample names its replication
REPLICATION_CAUSE = re.compile(r"^error: replication \d+, ", re.MULTILINE)
# a context part said twice in a row: each layer names what it adds once
REPEATED_PART = re.compile(r"(variable '[^']*': |replication \d+, |cell '[^']*': |stratum '[^']*': )\1")


def leaves(node, path=()):
    """The key path of every scalar in a YAML document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, (*path, i))
    else:
        yield path


def mutate_line(data: bytes, rng: random.Random) -> tuple[bytes, str]:
    """``data`` with one line dropped, repeated, truncated or with a field
    swapped for one of ``TOKENS``, and what was done."""
    lines = data.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    line = lines[i]
    body = line.rstrip(b"\r\n")
    op = rng.choice(("drop", "repeat", "truncate", "swap"))
    if op == "drop":
        del lines[i]
    elif op == "repeat":
        lines.insert(i, line)
    elif op == "truncate":
        lines[i] = line[: rng.randrange(len(line))]
    else:
        fields = body.split(b",")
        token = rng.choice(TOKENS)
        fields[rng.randrange(len(fields))] = token
        lines[i] = b",".join(fields) + line[len(body) :]
        op = f"field swapped for {token!r}"
    return b"".join(lines), f"line {i + 1}: {op}"


def yaml_type(value) -> type:
    """The type of a YAML value, with integers and floats one type."""
    return float if isinstance(value, int) else type(value)


def holder(raw: dict, path: tuple):
    """The mapping or list that holds the leaf at ``path``."""
    node = raw
    for key in path[:-1]:
        node = node[key]
    return node


def swap_leaf(raw: dict, path: tuple, rng: random.Random) -> str:
    """Swap the leaf at ``path`` for a value of another type; what was done."""
    node = holder(raw, path)
    value = rng.choice([v for v in SWAPS if yaml_type(v) is not yaml_type(node[path[-1]])])
    node[path[-1]] = value
    return f"{'.'.join(map(str, path))} = {value!r}"


CASES = [
    *(
        pytest.param(name, f"{SEED}:{name}:{i}", id=f"{name}-{i}")
        for name in ("records.csv", "strata.csv", "draws.csv")
        for i in range(CASES_PER_FILE)
    ),
    *(
        pytest.param("config.yaml", path, id="config-" + ".".join(map(str, path)))
        for path in leaves(DEMO)
    ),
]


@pytest.fixture(scope="module")
def demo_inputs(tmp_path_factory):
    """The demo config and sample, and a draw file fitted from them."""
    inputs = tmp_path_factory.mktemp("demo")
    for name in ("config.yaml", "records.csv", "strata.csv"):
        shutil.copy(DEMO_CONFIG.parent / name, inputs / name)
    assert main(["fit", "--config", str(inputs / "config.yaml"), "--out", str(inputs)]) == 0
    return inputs


@pytest.mark.parametrize("name,case", CASES)
def test_mutated_input_exits_cleanly_and_names_the_cause(demo_inputs, tmp_path, capsys, name, case):
    for input_name in ("config.yaml", "records.csv", "strata.csv", "draws.csv"):
        shutil.copy(demo_inputs / input_name, tmp_path / input_name)
    path = tmp_path / name
    if name == "config.yaml":
        raw = yaml.safe_load(path.read_text())
        done = swap_leaf(raw, case, random.Random(f"{SEED}:{case}"))
        path.write_text(yaml.safe_dump(raw))
    else:
        data, done = mutate_line(path.read_bytes(), random.Random(case))
        path.write_bytes(data)
    capsys.readouterr()
    for command in ("calibrate", "infer", "diagnose"):
        argv = ["--config", str(tmp_path / "config.yaml"), "--out", str(tmp_path / "out")]
        code = main([command, *argv, "--draws", str(tmp_path / "draws.csv")])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), f"{name} {done}: {command} exit {code}: {err}"
        assert "Traceback" not in err, f"{name} {done}: {command}: {err}"
        if code == 2:
            assert NAMED_CAUSE.search(err), f"{name} {done}: {command} names no cause: {err}"


@pytest.mark.parametrize(
    "command,path",
    [
        pytest.param(command, path, id=f"{command}-" + ".".join(map(str, path)))
        for command, raw in SHORT.items()
        for path in leaves(raw)
    ],
)
def test_swapped_leaf_run_through_the_sampler_exits_cleanly(tmp_path, capsys, command, path):
    raw = copy.deepcopy(SHORT[command])
    done = swap_leaf(raw, path, random.Random(f"{SEED}:{command}:{path}"))
    code, err = run_short(tmp_path, capsys, command, raw, done)
    if code == 2:
        assert NAMED_CAUSE.search(err), f"{done}: {command} names no cause: {err}"


@pytest.mark.parametrize(
    "command,path,value",
    [
        pytest.param(command, path, value, id=f"{command}-" + ".".join(map(str, path)) + f"={value}")
        for command, raw in SHORT.items()
        for path in leaves(raw)
        if yaml_type(holder(raw, path)[path[-1]]) is float
        for value in VALUES
    ],
)
def test_numeric_leaf_out_of_range_exits_cleanly(tmp_path, capsys, command, path, value):
    raw = copy.deepcopy(SHORT[command])
    holder(raw, path)[path[-1]] = value
    done = f"{'.'.join(map(str, path))} = {value!r}"
    code, err = run_short(tmp_path, capsys, command, raw, done)
    if code == 2:
        named = NAMED_CAUSE.search(err) or command == "simulate" and REPLICATION_CAUSE.search(err)
        assert named, f"{done}: {command} names no cause: {err}"


def keys(node, path=()):
    """The key path of every mapping key in a YAML document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield (*path, key)
            yield from keys(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from keys(value, (*path, i))


def free_form(path: tuple) -> bool:
    """Whether the key at ``path`` is one of a mapping whose keys are names:
    a ``models:`` variable, a ``where:`` clause or a ``levels:`` label."""
    return path[:-1] == ("models",) or path[-2:-1] in (("where",), ("levels",))


@pytest.mark.parametrize(
    "command,path",
    [
        pytest.param(command, path, id=f"{command}-" + ".".join(map(str, path)))
        for command, raw in SHORT.items()
        for path in keys(raw)
    ],
)
def test_renamed_key_is_refused_by_its_path(tmp_path, capsys, command, path):
    raw = copy.deepcopy(SHORT[command])
    node = holder(raw, path)
    renamed = f"{path[-1]}{RENAME_SUFFIX}"
    node[renamed] = node.pop(path[-1])
    done = f"{'.'.join(map(str, path))} renamed {renamed}"
    code, err = run_short(tmp_path, capsys, command, raw, done)
    if not free_form(path):
        where = re.sub(r"\.(\d+)(?=\.|$)", r"[\1]", ".".join(map(str, (*path[:-1], renamed))))
        assert code == 2 and f"error: {where}: unknown key" in err, f"{done}: {command} exit {code}: {err}"


# each list of the two configs whose entries are names, or hold one under a
# key: its key path and that key (None for a list of names)
POPULATION = ("simulate", "population")
NAMED_LISTS = [
    ("fit", ("sample", "derived"), "name"),
    ("fit", ("sample", "domain_order"), None),
    *(("fit", ("sample", "columns", roles), None) for roles in ("calibration", "attributes", "outcomes")),
    ("fit", ("cells",), "name"),
    ("simulate", (*POPULATION, "domains"), None),
    ("simulate", (*POPULATION, "strata"), "id"),
    *(("simulate", (*POPULATION, part), "name") for part in ("variables", "attributes", "outcomes")),
    ("simulate", ("cells",), "name"),
]
# the smoke config's strata grid as a list, so that an id can repeat
LISTED_STRATA = [{"id": f"s{d}", "domain": f"d{d}", "population_size": 800} for d in (1, 2)]
# the lists of the one namespace that calibration variables, attributes,
# outcomes and bands share, in the order they are checked, each with what
# holds its names; a name of an earlier list is refused in a later one
NAMESPACE = {
    "fit": [
        *((("sample", "columns", part), None, what) for part, what in (
            ("calibration", "is a calibration variable"), ("attributes", "is an attribute"),
            ("outcomes", "is an outcome"),
        )),
        (("sample", "derived"), "name", None),
    ],
    "simulate": [
        ((*POPULATION, part), "name", what) for part, what in (
            ("variables", "is a calibration variable"), ("attributes", "is an attribute"),
            ("outcomes", "is an outcome"),
        )
    ],
}
# (command, list, its key, the earlier list whose first name an appended entry takes, what holds it)
TAKEN_NAMES = [
    (command, path, key, earlier, what)
    for command, lists in NAMESPACE.items()
    for j, (path, key, _) in enumerate(lists)
    for earlier, _, what in lists[:j]
]


@pytest.mark.parametrize(
    "command,path,key,earlier,what",
    [pytest.param(*case, None, None, id=f"{case[0]}-" + ".".join(case[1])) for case in NAMED_LISTS]
    + [
        pytest.param(*case, id=f"{case[0]}-" + ".".join(case[1]) + "-takes-" + case[3][-1])
        for case in TAKEN_NAMES
    ],
)
def test_repeated_name_is_refused_by_its_path(tmp_path, capsys, command, path, key, earlier, what):
    raw = copy.deepcopy(SHORT[command])
    if path[-1] == "strata":
        holder(raw, path)["strata"] = LISTED_STRATA
    items = holder(raw, path)[path[-1]]
    at, cause = 1, "repeats"
    if earlier is not None:  # a copy of the first entry, named as the earlier list's first
        first = holder(raw, earlier)[earlier[-1]][0]
        name = first if isinstance(first, str) else first["name"]
        items.append(name if key is None else {**items[0], key: name})
        at, cause = len(items) - 1, f"{name!r} {what}"
    elif len(items) < 2:  # a copy of the one entry
        items.append(copy.deepcopy(items[0]))
    elif key is None:  # the second name is the first's
        items[1] = items[0]
    else:
        items[1][key] = items[0][key]
    where = ".".join(path) + f"[{at}]" + ("" if key is None else f".{key}")
    code, err = run_short(tmp_path, capsys, command, raw, f"{where} repeated")
    assert code == 2 and f"error: {where}: " in err and f" {cause}" in err, f"{where}: {command} exit {code}: {err}"


def run_short(tmp_path, capsys, command: str, raw: dict, done: str) -> tuple[int, str]:
    """Run ``command`` on the demo sample and config ``raw``, which must end
    with a documented exit code and no traceback; its code and stderr."""
    for name in ("records.csv", "strata.csv"):
        shutil.copy(DEMO_CONFIG.parent / name, tmp_path / name)
    (tmp_path / "config.yaml").write_text(yaml.safe_dump(raw))
    capsys.readouterr()
    code = main([command, "--config", str(tmp_path / "config.yaml"), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), f"{done}: {command} exit {code}: {err}"
    assert "Traceback" not in err, f"{done}: {command}: {err}"
    assert not REPEATED_PART.search(err), f"{done}: {command} names a part twice: {err}"
    return code, err
