"""README.md names only code that exists: every backticked `<module>.<name>`
reference to a module of the package is an attribute of that module."""

import importlib
import re
from pathlib import Path

import rotconv

PACKAGE = Path(rotconv.__file__).parent
README = PACKAGE.parents[1] / "README.md"


def test_readme_code_references_resolve():
    modules = "|".join(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    refs = set(re.findall(rf"`((?:{modules})\.\w+)`", README.read_text()))
    missing = [ref for ref in sorted(refs) if not hasattr(
        importlib.import_module(f"rotconv.{ref.split('.')[0]}"), ref.split(".")[1])]
    assert refs and missing == []
