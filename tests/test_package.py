"""Checks on the package's source: the functions the benchmark names, the
names each module imports, that every public function has a reader outside
the tests, that every dataclass field has a reader, and the command line
the README documents."""

import argparse
import ast
import importlib
import inspect
import json
import re
import shlex
from pathlib import Path

import pytest

from walras import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "walras"


def benchmark_functions():
    """(layer, function) for each per-layer metric <layer>.<function>.calls
    that BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parts = (m["name"].split(".") for m in spec["per_layer"])
    return sorted((p[0], p[1]) for p in parts if len(p) == 3 and p[2] == "calls")


@pytest.mark.parametrize("layer, name", benchmark_functions())
def test_benchmark_names_a_public_function(layer, name):
    # the traced benchmark reports calls and self time only for the plain,
    # public functions a layer defines, and fails on any name it lacks
    module = importlib.import_module(f"walras.{layer}")
    fn = getattr(module, name, None)
    assert fn is not None, f"BENCHMARK.json names walras.{layer}.{name}, which is gone"
    assert not name.startswith("_")
    assert fn.__module__ == module.__name__
    plain = inspect.unwrap(fn)
    assert inspect.isfunction(plain) and not inspect.isgeneratorfunction(plain)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement in source that nothing reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_module_reads_every_name_it_imports(path):
    # __init__.py is exempt: its imports are the package's exports
    assert unused_imports((PACKAGE / path).read_text()) == []


def test_unused_import_check_sees_plain_and_from_imports():
    source = ("import os\nimport numpy as np\nfrom x import a, b as c\n"
              "from __future__ import annotations\nprint(np.pi, c)\n")
    assert unused_imports(source) == ["os", "a"]


def read_names(source: str) -> set[str]:
    """Names source reads: Name and Attribute loads and from-import names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_read_names_sees_loads_attributes_and_from_imports():
    source = "from x import a\nb = c.d\ne(f)\ndef g(): pass\n"
    assert read_names(source) == {"a", "c", "d", "e", "f"}


def test_every_public_function_has_a_reader():
    # a public function that only tests call is dead code; the package's
    # own modules (its exports included), the benchmark and the functions
    # BENCHMARK.json names count as readers
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")]
    read = set().union(*(read_names(p.read_text()) for p in sources))
    named = set(benchmark_functions())
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                    and node.name not in read and (path.stem, node.name) not in named):
                unread.append(f"{path.stem}.{node.name}")
    assert unread == []


def attribute_loads(source: str) -> set[str]:
    """The attribute names source reads, as in x.name."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def dataclass_fields(source: str) -> list[str]:
    """Class.field for each annotated field of each dataclass in source."""
    fields = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                == "dataclass"
                for d in node.decorator_list):
            fields += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                       if isinstance(stmt, ast.AnnAssign)]
    return fields


def test_attribute_and_field_scans():
    source = ("@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
              "@dataclass\nclass B:\n    z: int\nclass C:\n    w: int\n"
              "print(a.x, b.y.z)\nc.w = 1\n")
    assert dataclass_fields(source) == ["A.x", "A.y", "B.z"]
    assert attribute_loads(source) == {"x", "y", "z"}


def test_every_dataclass_field_has_a_reader():
    # a field nothing reads is dead state that every constructor must fill
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py"),
               *(ROOT / "tests").glob("*.py")]
    read = set().union(*(attribute_loads(p.read_text()) for p in sources))
    unread = [f for path in sorted(PACKAGE.glob("*.py"))
              for f in dataclass_fields(path.read_text())
              if f.split(".")[1] not in read]
    assert unread == []


def readme_prose() -> str:
    """README.md without its fenced code blocks."""
    return re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)


def readme_command_lines() -> list[str]:
    """The walras lines of the README's "Command line" code block."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, flags=re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("walras ")]


def parser_options() -> set[str]:
    """Every option string of every walras subcommand."""
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {opt for sub in subs.choices.values() for a in sub._actions
            for opt in a.option_strings}


def test_readme_flags_are_parser_options():
    spans = re.findall(r"`([^`]+)`", readme_prose())
    flags = {f for span in spans for f in re.findall(r"(?<![\w-])--[a-z][\w-]*", span)}
    assert "--out" in flags
    assert flags - parser_options() == set()


def test_readme_command_lines_parse():
    lines = readme_command_lines()
    assert len(lines) >= 10
    bad = []
    for line in lines:
        try:
            cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            bad.append(line)
    assert bad == []


def test_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    module, name = project["scripts"]["walras"].split(":")
    assert getattr(importlib.import_module(module), name) is cli.main
