"""Every module of the package uses each name it imports.  The project
depends on no linter, so the module sources are walked as syntax trees."""

import ast
import re
import tokenize
from pathlib import Path

import pytest

import rotconv

PACKAGE = Path(rotconv.__file__).parent
# the names a module imports only for others to rebind through it
REBOUND = {"experiments": {"solve_velocity"}}  # bench/test_bench.py rebinds it


# the package's __init__ imports the public names for its callers
@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - REBOUND.get(path.stem, set())) == []


def test_every_private_definition_is_used():
    # a private top-level function or class that no module of the package
    # names, as a variable or an attribute, is dead code
    trees = [ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")]
    private = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    assert sorted(private - used) == []


def test_the_two_thirds_rule_is_written_once():
    # the kept modes are defined once, in `grid._kept`: outside its comments,
    # no other module spells the 2/3 rule as `// 3` or `3 * abs(`
    def spellings(path):
        with path.open("rb") as fh:
            code = " ".join(t.string for t in tokenize.tokenize(fh.readline)
                            if t.type != tokenize.COMMENT)
        return len(re.findall(r"//\s*3\b|\b3\s*\*\s*abs\s*\(", code))

    spelled = {p.stem: spellings(p) for p in PACKAGE.glob("*.py")}
    assert {stem: n for stem, n in spelled.items() if n} == {"grid": 1}


def test_the_cpu_count_is_read_once():
    # the CPU count sizes the threads of `experiments._stream` and is read
    # there only: outside comments and strings, no other module names
    # `WORKERS`, `sched_getaffinity` or `cpu_count`
    def readers(path):
        with path.open("rb") as fh:
            return {t.string for t in tokenize.tokenize(fh.readline) if t.type == tokenize.NAME
                    and t.string in ("WORKERS", "sched_getaffinity", "cpu_count")}

    read = {p.stem: readers(p) for p in PACKAGE.glob("*.py")}
    assert {stem: names for stem, names in read.items() if names} == {
        "experiments": {"WORKERS", "sched_getaffinity", "cpu_count"}}
