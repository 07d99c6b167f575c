"""The package's import graph: the low-level modules stay independent of the driver,
and the constants the README quotes are the package's own."""

import ast
import importlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import aetta

PACKAGE = Path(aetta.__file__).parent

# modules below the harness and what they may import from the package
LAYERS = {
    "nn": set(),
    "plots": set(),
    "estimators": {"nn"},
    "tta": {"nn"},
    "streams": {"nn"},
}


def sibling_imports(path: Path) -> set[str]:
    """Every package module ``path`` imports, relatively or as ``aetta.<module>``,
    at any depth of the file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0 and node.module is None:
                found.update(alias.name for alias in node.names)
            elif node.level > 0:
                found.add(node.module.split(".")[0])
            elif node.module == "aetta":
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("aetta."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("aetta."))
    return found


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_its_allowed_siblings(module):
    assert sibling_imports(PACKAGE / f"{module}.py") == LAYERS[module]


# perfbench/tracing.py traces these calls by replacing the harness module's own
# bindings, and its Tracer.instrument skips a binding that is missing, so a call
# spelled ``tta.apply_reset(...)`` would silently drop out of the per-layer trace
TRACED_HARNESS_CALLS = (
    "make_stream",
    "prepared_task",
    "src_valid",
    "softmax_score",
    "gde_agreement",
    "adv_perturb_agreement",
    "aetta_estimate",
    "tent_step",
    "should_reset",
    "apply_reset",
)


def test_harness_calls_each_traced_function_through_its_imported_name():
    tree = ast.parse((PACKAGE / "harness.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    called = {
        node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for name in TRACED_HARNESS_CALLS:
        assert name in imported, f"harness does not import {name} by name"
        assert name in called, f"harness does not call {name} through its bare name"
        assert name not in attributes, f"harness reaches {name} through a module attribute"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_a_name_from_nn(path):
    """perfbench/tracing.py patches ``nn.forward``, ``nn.backward`` and the rest as
    attributes of the ``nn`` module, so a name bound in another module by
    ``from .nn import ...`` would skip the per-layer trace."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            assert (node.level, node.module) != (1, "nn") and node.module != "aetta.nn", (
                f"{path.name} imports {[a.name for a in node.names]} from nn"
            )


# what ``xml.sax.saxutils`` drags in through ``urllib.request``; ``urllib`` itself
# is left off, because ``pathlib`` imports ``urllib.parse``
NETWORK_MODULES = ("ssl", "socket", "http.client", "email", "urllib.request", "xml.sax")


def test_cli_and_a_trace_plot_load_no_network_stack(tmp_path):
    script = (
        "import sys\n"
        "import aetta.cli\n"
        "from aetta import plots\n"
        f"plots.accuracy_trace_svg([0.9, 0.2], [0.8, 0.3], [1], 'a & b', {str(tmp_path / 't.svg')!r})\n"
        f"print(sorted(m for m in {NETWORK_MODULES!r} if m in sys.modules))\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


# a README pair such as `nn.BN_EPS` (1e-5); the name and its value may wrap onto two lines
README_CONSTANT = re.compile(r"`(\w+)\.([A-Z][A-Z0-9_]*)`\s+\(([0-9./e+-]+)")


def test_readme_constants_match_the_package():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    pairs = README_CONSTANT.findall(text)
    assert pairs, "the README quotes no `module.NAME` (value) constants"
    for module, name, value in pairs:
        numerator, _, denominator = value.partition("/")
        expected = float(Fraction(int(numerator), int(denominator))) if denominator else float(value)
        actual = getattr(importlib.import_module(f"aetta.{module}"), name)
        assert actual == expected, f"README says {module}.{name} is {value}, the package has {actual!r}"
