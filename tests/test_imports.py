"""Every module of the package uses each name it imports.  The project
depends on no linter, so the module sources are walked as syntax trees."""

import ast
import os
import re
import subprocess
import sys
import textwrap
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


def _tokens(path):
    """The tokens of a module's source, comments included."""
    with path.open("rb") as fh:
        return list(tokenize.tokenize(fh.readline))


def _two_thirds_rule(tokens):
    # outside comments, the rule spelled as `// 3` or `3 * abs(`
    code = " ".join(t.string for t in tokens if t.type != tokenize.COMMENT)
    return len(re.findall(r"//\s*3\b|\b3\s*\*\s*abs\s*\(", code))


def _half_grid(tokens):
    # outside comments and strings, the half-grid size spelled `// 2`
    kinds = {tokenize.COMMENT, tokenize.STRING,
             getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}  # f-string parts since 3.12
    code = " ".join(t.string for t in tokens if t.type not in kinds)
    return len(re.findall(r"//\s*2\b", code))


def _cpu_count(tokens):
    # outside comments and strings, the names that read or hold the CPU count
    return {t.string for t in tokens if t.type == tokenize.NAME
            and t.string in ("WORKERS", "sched_getaffinity", "cpu_count")}


def _i_and_pi(tokens):
    # imaginary literals (i k) and the name `pi` (2 pi), outside comments and strings
    return sorted(t.string for t in tokens if (t.type == tokenize.NUMBER and t.string[-1] in "jJ")
                  or (t.type == tokenize.NAME and t.string == "pi"))


def _scipy_fft(tokens):
    # the dotted names that import statements take from the `scipy.fft` package
    tree = ast.parse(tokenize.untokenize(tokens))
    imported = [alias.name if isinstance(node, ast.Import) else f"{node.module}.{alias.name}"
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    return sorted(name for name in imported if name.split(".")[:2] == ["scipy", "fft"])


def _float_view(tokens):
    # outside comments and strings, the ways to read an array's memory as floats:
    # a `.view(` of another dtype, `.real`, `.imag` and `as_strided`
    kinds = {tokenize.COMMENT, tokenize.STRING,
             getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}  # f-string parts since 3.12
    code = " ".join(t.string for t in tokens if t.type not in kinds)
    return len(re.findall(r"\.\s*(?:view\s*\(|real\b|imag\b)|\bas_strided\b", code))


def _float_format(tokens):
    # the `.17g` format of a written float, in string tokens (f-string parts since 3.12)
    kinds = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}
    return sum(t.string.count(".17g") for t in tokens if t.type in kinds)


def _horizontal_reduction(tokens):
    # the calls that reduce a physical field over x and y, `axis=(0, 1)`: a roll is no reduction
    tree = ast.parse(tokenize.untokenize(tokens))
    return sorted(ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and any(k.arg == "axis" and ast.unparse(k.value) == "(0, 1)"
                          for k in node.keywords) and ast.unparse(node.func) != "np.roll")


@pytest.mark.parametrize("spelled, owners", [
    # the kept modes are defined once, in `grid._kept`
    (_two_thirds_rule, {"grid": 1}),
    # the half grid n // 2 (Nyquist planes, half spectrum, lattice) is spelled in `grid`
    # only: `evolution.cfl_dt` reads the kept modes' maxima from `grid._kept`
    (_half_grid, {"grid": 11}),
    # the CPU count sizes the threads of `experiments._stream` and is read there only
    (_cpu_count, {"experiments": {"WORKERS", "sched_getaffinity", "cpu_count"}}),
    # i k is `grid.derivative_symbol` (and `grid._z_antiderivative`'s divisor for a
    # z-profile) and 2 pi is `grid.TWO_PI`
    (_i_and_pi, {"grid": ["1j", "1j", "pi"]}),
    # a float is written to a CSV file or to stdout as `io._fmt` writes it
    (_float_format, {"io": 1}),
    # every transform, the z-profile's included, calls the binding that `grid` imports,
    # and the lattice's wavenumbers are integer arithmetic
    (_scipy_fft, {"grid": ["scipy.fft._pocketfft.pypocketfft"]}),
    # the real fields of an inverse transform live in its input's memory, and only
    # `grid` knows the layout (`to_physical`, and `horizontal_mean`'s products of the
    # real and imaginary parts): no other module reads complex memory as floats
    (_float_view, {"grid": 3}),
    # a horizontal mean in physical space is `meanstate.heat_flux` or `invariants._slice_lp`,
    # for the fields the report and the CLI profiles have there anyway; the tendency and
    # the sweeps reduce on the half box (`grid.horizontal_mean`)
    (_horizontal_reduction, {"meanstate": ["np.mean"], "invariants": ["np.sum"]}),
], ids=["two-thirds-rule", "half-grid", "cpu-count", "i-and-pi", "float-format", "scipy-fft",
        "float-view", "horizontal-reduction"])
def test_written_once(spelled, owners):
    found = {p.stem: spelled(_tokens(p)) for p in PACKAGE.glob("*.py")}
    assert {stem: n for stem, n in found.items() if n} == owners


def test_imports_inside_functions():
    # an import runs at module top, unless it closes a cycle (`compute_report` in
    # `evolution.run`: invariants imports evolution) or costs every run what few
    # use (`scipy.integrate`, see the next test)
    found = set()
    for path in PACKAGE.glob("*.py"):
        owner = {}
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        owner[node] = fn.name  # the walk is breadth first: the innermost wins
        found |= {(path.stem, name, getattr(node, "module", None),
                   tuple(alias.name for alias in node.names)) for node, name in owner.items()}
    assert found == {("evolution", "run", "invariants", ("compute_report",)),
                     ("invariants", "integrated_budget_residual", "scipy.integrate", ("simpson",))}


def test_no_run_imports_scipy_integrate():
    # importing `scipy.integrate` takes 150-200 ms and raises peak RSS from 56 to
    # 80 MB (2-vCPU VM, scipy 1.17), so only `integrated_budget_residual` imports
    # it: a fresh interpreter that imports the package and runs `rotconv run` never does
    script = textwrap.dedent("""
        import json, sys, tempfile
        from pathlib import Path
        import rotconv
        from rotconv.cli import main
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps({"grid": {"nx": 8, "ny": 8, "nz": 8}, "dt": 0.05,
                                       "t_end": 0.1, "initial": {"band": [1, 2]}}))
            main(["run", "--config", str(cfg), "--out", str(Path(tmp) / "out")])
        print("scipy.integrate" in sys.modules)
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, check=True, timeout=300)
    assert result.stdout.splitlines()[-1] == "False"
