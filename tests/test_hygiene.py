"""Source hygiene: every import is used, every private module-level name is
referenced, every package export is reached, every script path the README
names exists, the README's layout names every module and no other file,
the README's solution-block table matches the CLI's schemas
and the fields each family samples, its failure-type table matches the error
classes, every config object in those schemas is closed and uses only
keywords the CLI's validator checks, the library's run and grid settings are
the CLI's, each profile, modulus and flux block's keys are its builder's
keywords and the README's table of those blocks matches both, the CLI runs
without jsonschema, numpy.random or numpy.polynomial, and the repo's pytest
settings let a failing property report its falsifying example."""
import ast
import collections
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shearwaves import cli, errors
from shearwaves.constitutive import FLUX_BUILTINS, MODULUS_BUILTINS
from shearwaves.profiles import PROFILE_BUILTINS
from shearwaves.schema import FLUX, MODULUS, NUM, PROFILE, _KEYWORDS, _TYPES, _kind
from shearwaves.simulate import Grid1D, SimulationConfig
from test_cli import EXACT_SOLUTIONS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "shearwaves"
# __init__.py imports names only to re-export them
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
# files scanned for unused imports: the package modules and the test files
IMPORT_CHECKED = {**{m: SRC / m for m in MODULES},
                  **{f"tests/{p.name}": p for p in (ROOT / "tests").glob("test_*.py")}}
# Exports that no command, benchmark or acceptance criterion reads, and why each stays.
EXPORT_ALLOWLIST = {
    "compatibility_residuals": "g4/g5 check of a constructed pair; its CLI path is ROADMAP item 4",
    "construct_temple_flux": "builds the paper's constructed class; its CLI path is ROADMAP item 4",
}


def unused_imports(source):
    """Imported names that the module never refers to, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - {"annotations"})


def referenced_names(tree):
    """Names a parsed module reads: a name loaded anywhere, an attribute
    ``module.x`` or an import ``from module import x``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used |= {a.name for a in node.names}
    return used


def unreferenced_private_names(sources):
    """Private module-level names (``_x``, not dunders) that no module refers to, sorted.

    ``sources`` maps module names to source text.  A definition is a
    top-level ``def``, ``class`` or assignment; a reference is a name read
    anywhere, an attribute ``module._x`` or an import ``from .module import _x``.
    """
    defined, used = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for tgt in targets for n in ast.walk(tgt) if isinstance(n, ast.Name)]
            else:
                continue
            defined |= {(module, n) for n in names if n.startswith("_") and not n.endswith("__")}
        used |= referenced_names(tree)
    return sorted(f"{module}:{name}" for module, name in defined if name not in used)


def test_detector_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "def f(x: Optional[int]) -> np.ndarray:\n"
        "    return dataclass\n"
        "from typing import Optional\n"
    )
    assert unused_imports(source) == ["field", "os"]


@pytest.mark.parametrize("name", sorted(IMPORT_CHECKED))
def test_module_uses_every_import(name):
    assert unused_imports(IMPORT_CHECKED[name].read_text()) == []


def test_detector_finds_unreferenced_private_names():
    sources = {
        "a": (
            "import b\n"
            "_LIMIT = 3\n"
            "_dead_const, _pair = 1, 2\n"
            "def _helper(x):\n"
            "    return x + _LIMIT\n"
            "def _orphan():\n"
            "    return _helper(1)\n"
            "class _Unused:\n"
            "    pass\n"
            "__all__ = []\n"
            "def public():\n"
            "    return b._shared() + _pair\n"
        ),
        "b": (
            "from .c import _imported\n"
            "def _shared():\n"
            "    return 0\n"
            "def _step_old(w):\n"
            "    return w\n"
        ),
        "c": "def _imported():\n    return 1\n",
    }
    assert unreferenced_private_names(sources) == [
        "a:_Unused", "a:_dead_const", "a:_orphan", "b:_step_old"]


def test_every_private_name_is_referenced():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def export_problems(init_source, sources, allowlist):
    """Exports that nothing reaches, and allowlist entries gone stale, sorted.

    An export is a name the package ``__init__`` imports; it is reached when
    one of ``sources`` reads it.  ``unreached:x`` is an export neither read
    nor allowlisted; ``stale:x`` is an allowlisted name that is read or is no
    longer exported.
    """
    exported = {a.asname or a.name for node in ast.walk(ast.parse(init_source))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    reached = set().union(*(referenced_names(ast.parse(s)) for s in sources))
    unreached = exported - reached - set(allowlist)
    stale = {n for n in allowlist if n in reached or n not in exported}
    return sorted(f"unreached:{n}" for n in unreached) + sorted(f"stale:{n}" for n in stale)


def test_detector_finds_unreached_exports():
    init = ("from .errors import Unraised, Raised\n"
            "from .core import solve, solve_one as reference, helper, dead\n")
    sources = [
        "from shearwaves import solve\nraise errors.Raised()\n",
        "import shearwaves.core as core\nx = core.helper(1)\n",
    ]
    allowlist = {"reference": "kept", "helper": "kept", "gone": "kept"}
    assert export_problems(init, sources, allowlist) == [
        "unreached:Unraised", "unreached:dead", "stale:gone", "stale:helper"]


def test_detector_counts_only_reads_as_reaching_an_export():
    init = "from .core import stored, quoted, called\n"
    sources = ["stored = 1\n", "doc = 'quoted'\n", "def f():\n    return called()\n"]
    assert export_problems(init, sources, {}) == ["unreached:quoted", "unreached:stored"]


def test_every_export_is_reached_or_allowlisted():
    readers = [*(SRC / m for m in MODULES), *ROOT.glob("benchmarks/*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    sources = [p.read_text() for p in readers]
    assert export_problems((SRC / "__init__.py").read_text(), sources, EXPORT_ALLOWLIST) == []


def script_paths(text):
    """The ``scripts/...`` paths named in a text, in order of appearance."""
    return re.findall(r"scripts/[\w./-]*[\w/]", text)


def test_detector_finds_script_paths():
    text = ("Configs live in `scripts/configs/`:\n"
            "shearwaves verify --config scripts/configs/verify.json --out o\n"
            "python3 scripts/old_study.py. See scripts/a-b/c_d.json, too.")
    assert script_paths(text) == ["scripts/configs/", "scripts/configs/verify.json",
                                  "scripts/old_study.py", "scripts/a-b/c_d.json"]


def test_readme_names_only_existing_scripts():
    named = script_paths((ROOT / "README.md").read_text())
    assert named
    assert [p for p in named if not (ROOT / p).exists()] == []


def layout_files(text):
    """The file names of the README's "Layout" block, one per row, in order."""
    block = text.split("\n## Layout\n", 1)[1].split("```")[1]
    return re.findall(r"^  (\S+)", block, re.M)


def test_detector_reads_layout_files():
    text = ("## Usage\n\n```\n  run.py  not this one\n```\n\n## Layout\n\n```\n"
            "src/shearwaves/\n  a.py   first\n         continued\n  b.py   second\n```\n"
            "  c.py  after the block\n")
    assert layout_files(text) == ["a.py", "b.py"]


def test_readme_layout_names_every_module():
    named = layout_files((ROOT / "README.md").read_text())
    assert sorted(named) == sorted(p.name for p in SRC.glob("*.py"))


def solution_block_rows(text):
    """The cells of each row of the README's "Solution blocks" table."""
    section = text.split("\n## Solution blocks\n", 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].startswith("`"):
            yield cells


def solution_block_table(text):
    """``{kind: (required, optional, contexts)}`` from the README's "Solution blocks" table.

    The parameters cell lists the required names, then ``optional`` and the
    optional ones.  A context is ``(command, system)``: "full `init`" is
    ``("init", "full")`` and "`exact`" is ``("exact", None)``.
    """
    table = {}
    for cells in solution_block_rows(text):
        required, _, optional = cells[2].partition("optional")
        contexts = {(command, system or None)
                    for system, command in re.findall(r"(?:(\w+) )?`(\w+)`", cells[3])}
        table[cells[0].strip("`")] = (re.findall(r"`(\w+)`", required),
                                      re.findall(r"`(\w+)`", optional), contexts)
    return table


def test_detector_reads_solution_block_table():
    text = ("# Tool\n\n## Solution blocks\n\n| kind | fields | parameters | accepted in |\n"
            "| ---- | ------ | ---------- | ----------- |\n"
            "| `wave` | `U` | `a`, `b`; optional `c` | `exact`, full `init`, `verify` |\n"
            "| `flat` | initial `U` only | none | scalar `oracle` |\n\n"
            "## Next\n| `x` | 1 | 2 | 3 |\n")
    assert solution_block_table(text) == {
        "wave": (["a", "b"], ["c"], {("exact", None), ("init", "full"), ("verify", None)}),
        "flat": ([], [], {("oracle", "scalar")}),
    }


def schema_block_kinds():
    """``{kind: contexts}`` of every block kind that a CLI schema accepts."""
    kinds = collections.defaultdict(set)
    positions = [(cli.EXACT_SCHEMA, "solution", ("exact", None))]
    positions += [(schema, "init", ("init", system))
                  for system, schema in cli.SCHEMAS["simulate"].items()]
    positions += [(schema, "oracle", ("oracle", system))
                  for system, schema in cli.SCHEMAS["convergence"].items()]
    positions += [(schema, "solution", ("verify", None))
                  for schema in cli.SCHEMAS["verify"].values()
                  if "solution" in schema["properties"]]
    for schema, key, context in positions:
        # a position of one block kind takes its block alone, not in a oneOf
        block = schema["properties"][key]
        for branch in block.get("oneOf", [block]):
            kinds[branch["properties"]["kind"]["const"]].add(context)
    # the hodograph command samples the hodograph family from its top level
    kinds["hodograph"].add(("hodograph", None))
    return dict(kinds)


def test_readme_solution_blocks_match_the_schemas():
    table = solution_block_table((ROOT / "README.md").read_text())
    accepted = schema_block_kinds()
    assert {kind: contexts for kind, (_, _, contexts) in table.items()} == accepted
    # every family is accepted somewhere: no FAMILIES entry is dead
    assert set(cli.FAMILIES) <= set(accepted)
    for kind, (required, optional, _) in table.items():
        family = cli.FAMILIES[kind]
        assert (required, optional) == (list(family.required), [
            p for p in family.props if p not in family.required]), kind


def test_readme_solution_fields_are_what_each_family_samples():
    # each family's fields as its builder returns them on a 5 x 5 mesh of its
    # axes; a row of initial fields only names a family that samples none
    params = {**EXACT_SOLUTIONS, "zero": {},
              "hodograph": json.loads((ROOT / "scripts/configs/hodograph.json").read_text())}
    unit = {"min": 0.0, "max": 1.0}
    checked = set()
    for kind, fields, _, _ in solution_block_rows((ROOT / "README.md").read_text()):
        kind = kind.strip("`")
        if fields.startswith("initial"):
            continue
        family, block = cli.FAMILIES[kind], params[kind]
        axes = [block.get(name, unit) for name in family.axes]
        mesh = [np.linspace(axis["min"], axis["max"], 5) for axis in axes]
        assert list(family.build(block)(*mesh)) == re.findall(r"`(\w+)`", fields), kind
        checked.add(kind)
    assert checked == set(params)


def test_library_run_settings_are_the_cli_settings():
    # a setting that no config can set is a knob for tests alone
    assert [f.name for f in dataclasses.fields(SimulationConfig)] == list(cli.RUN["properties"])
    assert [f.name for f in dataclasses.fields(Grid1D)] == list(cli.GRID["properties"])


# each config block of the library: its schema and its builders by kind
CONFIG_BLOCKS = {"profile": (PROFILE, PROFILE_BUILTINS), "modulus": (MODULUS, MODULUS_BUILTINS),
                 "flux": (FLUX, FLUX_BUILTINS)}
# builder keywords that no config sets: poly_flux's name labels a flux built in code
UNSET_KEYWORDS = {("flux", "poly"): {"name"}}


def block_keys(block):
    """``{kind: (required, optional)}`` of a block schema's ``oneOf`` branches, without ``kind``."""
    keys = {}
    for branch in block["oneOf"]:
        required = [k for k in branch["required"] if k != "kind"]
        keys[branch["properties"]["kind"]["const"]] = (required, [
            k for k in branch["properties"] if k != "kind" and k not in required])
    return keys


def builder_mismatches(what, block, builtins):
    """``what/kind`` for each kind whose schema branch and builder signature differ, sorted:
    a kind on one side only, a key that is no keyword or a keyword that is no key, or
    required keys other than the keywords without a default."""
    keys, found = block_keys(block), []
    for kind in sorted(set(keys) | set(builtins)):
        if kind in keys and kind in builtins:
            params = {name: p for name, p in inspect.signature(builtins[kind]).parameters.items()
                      if name not in UNSET_KEYWORDS.get((what, kind), ())}
            required, optional = keys[kind]
            if ({*required, *optional} == set(params) and set(required) == {
                    name for name, p in params.items() if p.default is p.empty}):
                continue
        found.append(f"{what}/{kind}")
    return found


def test_detector_finds_block_builder_mismatches():
    def builder(a, b=1.0):
        return a, b
    block = {"oneOf": [
        _kind("same", {"a": NUM, "b": NUM}, ["a"]),
        _kind("extra_key", {"a": NUM, "b": NUM, "c": NUM}, ["a"]),
        _kind("extra_keyword", {"a": NUM}, ["a"]),
        _kind("default_required", {"a": NUM, "b": NUM}, ["a", "b"]),
        _kind("schema_only", {}),
    ]}
    builtins = dict.fromkeys(["same", "extra_key", "extra_keyword", "default_required",
                              "builder_only"], builder)
    assert builder_mismatches("demo", block, builtins) == [
        "demo/builder_only", "demo/default_required", "demo/extra_key", "demo/extra_keyword",
        "demo/schema_only"]


def test_block_keys_are_their_builders_keywords():
    assert [kind for what, (block, builtins) in CONFIG_BLOCKS.items()
            for kind in builder_mismatches(what, block, builtins)] == []


def config_block_table(text):
    """``{(block, kind): (required, {optional: default})}`` of the README's "Profile,
    modulus and flux blocks" table; a default is the Python literal after `` = ``."""
    section = text.split("\n## Profile, modulus and flux blocks\n", 1)[1].split("\n#", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[0].startswith("`"):
            defaults = re.findall(r"`(\w+)` = `([^`]+)`", cells[4])
            table[cells[0].strip("`"), cells[1].strip("`")] = (
                re.findall(r"`(\w+)`", cells[3]),
                {name: ast.literal_eval(value) for name, value in defaults})
    return table


def test_detector_reads_config_block_table():
    text = ("# Tool\n\n## Profile, modulus and flux blocks\n\n"
            "| block | kind | value | required | optional |\n| --- | --- | --- | --- | --- |\n"
            "| `profile` | `wave` | `f(s) = a s` | `a`, `b` | "
            "`c` = `0.5`, `d` = `-1` |\n| `flux` | `flat` | `P = 1` | none | none |\n\n"
            "## Next\n| `x` | `y` | 1 | `z` | 2 |\n")
    assert config_block_table(text) == {("profile", "wave"): (["a", "b"], {"c": 0.5, "d": -1}),
                                        ("flux", "flat"): ([], {})}


def test_readme_config_blocks_match_the_schemas_and_builders():
    expected = {}
    for what, (block, builtins) in CONFIG_BLOCKS.items():
        for kind, (required, optional) in block_keys(block).items():
            params = inspect.signature(builtins[kind]).parameters
            expected[what, kind] = (required, {name: params[name].default for name in optional})
    assert config_block_table((ROOT / "README.md").read_text()) == expected


def config_schemas():
    """Every config schema as ``(command, variant, schema)``; the variant is None
    for a command that has no variants."""
    for command, schema in cli.SCHEMAS.items():
        variants = schema if command in cli.VARIANT_KEYS else {None: schema}
        for variant, variant_schema in variants.items():
            yield command, variant, variant_schema


def top_level_key_table(text):
    """``{(command, variant): (required, optional)}`` of the README's "Top-level
    keys" table; the variant is None for a command that has no variants."""
    section = text.split("\n### Top-level keys\n", 1)[1].split("\n#", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].startswith("`"):
            table[cells[0].strip("`"), cells[1].strip("`") or None] = (
                re.findall(r"`(\w+)`", cells[2]), re.findall(r"`(\w+)`", cells[3]))
    return table


def test_detector_reads_top_level_key_table():
    text = ("## Command line\n\n### Top-level keys\n\n| command | variant | required | optional |\n"
            "| --- | --- | --- | --- |\n| `run` | `fast` | `system`, `n` | `seed` |\n"
            "| `plot` | | `axes` | |\n\n### Next\n| `x` | 1 | 2 | 3 |\n")
    assert top_level_key_table(text) == {("run", "fast"): (["system", "n"], ["seed"]),
                                         ("plot", None): (["axes"], [])}


def test_readme_top_level_keys_match_the_schemas():
    assert top_level_key_table((ROOT / "README.md").read_text()) == {
        (command, variant): (schema["required"], [
            name for name in schema["properties"]
            if name not in schema["required"] and name != "command"])
        for command, variant, schema in config_schemas()}


def failure_type_table(text):
    """The type names of the README's "Failure types" table, in order."""
    section = text.split("\n### Failure types\n", 1)[1].split("\n#", 1)[0]
    return re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)


def test_detector_reads_failure_type_table():
    text = ("## Command line\n\n### Failure types\n\n| type | meaning |\n| ---- | ---- |\n"
            "| `Fold` | the map folds, see `Other` |\n| `Stall` | no root |\n\n"
            "## Next\n| `Later` | 1 |\n")
    assert failure_type_table(text) == ["Fold", "Stall"]


def test_readme_failure_types_match_the_error_classes():
    # every ShearWaveError subclass, in the order errors.py defines them
    subclasses = [name for name, obj in vars(errors).items() if isinstance(obj, type)
                  and issubclass(obj, errors.ShearWaveError) and obj is not errors.ShearWaveError]
    assert failure_type_table((ROOT / "README.md").read_text()) == subclasses


def open_objects(schema, path):
    """Paths of the object schemas under ``schema`` that accept unknown keys.

    An object schema has ``"type": "object"`` or ``properties``; it is closed
    when it has both and ``"additionalProperties": False``.  A property adds
    its name to the path, a ``oneOf``/``anyOf``/``allOf`` branch its keyword
    and index, any other nested schema (``items``) its keyword.
    """
    found = []
    if schema.get("type") == "object" or "properties" in schema:
        if not (schema.get("type") == "object" and "properties" in schema
                and schema.get("additionalProperties") is False):
            found.append(path)
    for key, value in schema.items():
        if key == "properties":
            for name, sub in value.items():
                found += open_objects(sub, f"{path}/{name}")
        elif key in ("oneOf", "anyOf", "allOf"):
            for i, sub in enumerate(value):
                found += open_objects(sub, f"{path}/{key}[{i}]")
        elif isinstance(value, dict):
            found += open_objects(value, f"{path}/{key}")
    return found


def test_detector_finds_open_objects():
    closed = {"type": "object", "properties": {"n": {"type": "integer"}}, "required": [],
              "additionalProperties": False}
    schema = {
        "type": "object",
        "properties": {
            "a": {"type": "object", "properties": {"b": closed, "c": {"type": "object"}}},
            "d": {"oneOf": [closed, {"type": "object", "properties": {},
                                     "additionalProperties": True}]},
            "e": {"type": "array", "items": {"properties": {}, "additionalProperties": False}},
            "f": closed,
        },
        "additionalProperties": False,
    }
    assert open_objects(schema, "demo") == ["demo/a", "demo/a/c", "demo/d/oneOf[1]", "demo/e/items"]


def test_every_config_object_is_closed():
    assert [path for command, variant, schema in config_schemas()
            for path in open_objects(schema, f"{command}/{variant}")] == []


# the keywords that schema._schema_error checks
VALIDATOR_KEYWORDS = {*_KEYWORDS, "properties", "items"}


def _scalar(value):
    return isinstance(value, (str, int)) and not isinstance(value, bool)


def _kind_const(branch):
    """The ``kind`` const of a branch that requires it, or None."""
    kind = branch.get("properties", {}).get("kind", {})
    required = "kind" in branch.get("required", ()) and kind.keys() == {"const"}
    return kind["const"] if required else None


def unchecked_schema_parts(schema, path):
    """What under ``schema`` the CLI's validator would not check as JSON Schema does.

    ``path:key`` is a keyword outside the validator's subset, a ``type`` it
    does not know, an ``additionalProperties`` other than false, or a
    ``const``/``enum`` value that is not a string or an int.  ``path/oneOf``
    is a ``oneOf`` whose branches are not ``_kind`` objects of pairwise
    distinct kinds, so that more than one branch could match.  Nested schemas
    extend the path as in `open_objects`.
    """
    found = [f"{path}:{key}" for key in schema if key not in VALIDATOR_KEYWORDS]
    if "type" in schema and not (isinstance(schema["type"], str) and schema["type"] in _TYPES):
        found.append(f"{path}:type")
    if schema.get("additionalProperties", False) is not False:
        found.append(f"{path}:additionalProperties")
    if "const" in schema and not _scalar(schema["const"]):
        found.append(f"{path}:const")
    if not all(map(_scalar, schema.get("enum", ()))):
        found.append(f"{path}:enum")
    if "oneOf" in schema:
        kinds = [_kind_const(branch) for branch in schema["oneOf"]]
        if None in kinds or len(set(kinds)) < len(kinds):
            found.append(f"{path}/oneOf")
    for key, value in schema.items():
        if key == "properties":
            for name, sub in value.items():
                found += unchecked_schema_parts(sub, f"{path}/{name}")
        elif key == "oneOf":
            for i, sub in enumerate(value):
                found += unchecked_schema_parts(sub, f"{path}/{key}[{i}]")
        elif isinstance(value, dict):
            found += unchecked_schema_parts(value, f"{path}/{key}")
    return found


def test_detector_finds_unchecked_schema_parts():
    def kind(name):
        return {"type": "object", "properties": {"kind": {"const": name}}, "required": ["kind"],
                "additionalProperties": False}
    schema = {"type": "object", "properties": {
        "name": {"type": "string", "pattern": "^[a-z]+$"},
        "twins": {"oneOf": [kind("a"), kind("a")]},
        "distinct": {"oneOf": [kind("a"), kind("b")]},
        "loose": {"oneOf": [{"type": "object"}, kind("c")]},
        "open": {"type": "object", "additionalProperties": {"type": "number"}},
        "flag": {"enum": [True, 1]},
    }}
    assert unchecked_schema_parts(schema, "demo") == [
        "demo/name:pattern", "demo/name:type", "demo/twins/oneOf", "demo/loose/oneOf",
        "demo/open:additionalProperties", "demo/flag:enum"]


def test_validator_checks_every_schema_part():
    assert [path for command, variant, schema in config_schemas()
            for path in unchecked_schema_parts(schema, f"{command}/{variant}")] == []


# a separable block and a sum_squares classify: the product-form check and
# the poly flux, which no shipped config reaches
EXTRA_RUNS = [
    {"command": "exact", "solution": {
        "kind": "separable", "flux": {"kind": "product"}, "k": 0.3, "phi0": 0.3, "dphi0": 0.1,
        "x": {"min": -1.0, "max": 1.0, "n": 7}, "t": {"min": 0.0, "max": 1.0, "n": 5}}},
    {"command": "classify", "flux": {"kind": "sum_squares", "scale": 0.5},
     "samples": {"u": {"min": 0.5, "max": 2.0, "n": 5}, "v": {"min": 0.5, "max": 2.0, "n": 5}}},
]


def test_cli_runs_without_jsonschema(tmp_path):
    # jsonschema and what it imports cost a CLI process about 64 ms and 4 MB
    # at start-up; the CLI validates its configs itself.  On first use in a
    # fresh process numpy.random costs 6.1 MB and 11-17 ms, numpy.polynomial
    # 0.87 MB and 3-5 ms (2-vCPU Xeon, numpy 2.4.6); no run but a commutator
    # study or a full study's negative control draws random numbers, and no
    # run needs numpy.polynomial
    paths = sorted((ROOT / "scripts" / "configs").glob("*.json"))
    for k, cfg in enumerate(EXTRA_RUNS):
        paths.append(tmp_path / f"extra{k}.json")
        paths[-1].write_text(json.dumps(cfg))
    runs = [(json.loads(p.read_text())["command"], str(p), str(tmp_path / f"out{k}"))
            for k, p in enumerate(paths)]
    assert any(p.name == "full_residual.json" for p in paths)
    script = (
        "import json, sys\n"
        "from shearwaves.cli import main\n"
        "codes = [main([command, '--config', path, '--out', out, '--quiet'])\n"
        f"         for command, path, out in {runs!r}]\n"
        "roots = {name.partition('.')[0] for name in sys.modules}\n"
        "print(json.dumps([codes, sorted(roots & {'jsonschema', 'referencing', 'rpds',\n"
        "                                        'attr', 'attrs'}),\n"
        "                  sorted({'numpy.random', 'numpy.polynomial'} & set(sys.modules))]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    assert json.loads(proc.stdout) == [[0] * len(runs), [], []]


def test_failing_property_reports_its_example(tmp_path):
    # on a failure hypothesis imports libcst, whose import-time
    # DeprecationWarning the settings' "error::DeprecationWarning" would turn
    # into an INTERNALERROR (exit 3) that hides the example
    (tmp_path / "test_prop.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 5\n")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
                           "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
                           "test_prop.py"], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
