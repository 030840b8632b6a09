"""The demos import only names rotconv still defines, and the README's
configurations and command lines are ones the CLI accepts; nothing is run."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

from rotconv.cli import build_parser, load_config

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()


def rotconv_imports(path):
    """(module, name) for every `from rotconv... import name` in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rotconv":
            for alias in node.names:
                yield node.module, alias.name


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_exist(path):
    imports = list(rotconv_imports(path))
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name} imports names rotconv does not define: {missing}"


def test_readme_configs_load(tmp_path):
    blocks = re.findall(r"^```json\n(.*?)^```", README, re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme_{i}.json"
        path.write_text(block)
        load_config(path)


def test_readme_commands_parse():
    commands = [line.strip() for line in README.splitlines()
                if line.strip().startswith("rotconv ")]
    assert commands
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {command}")
