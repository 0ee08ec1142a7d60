"""The package's public names are its layers' `__all__` lists, republished,
no module imports a name it does not use, and the suite's own pytest
configuration reports a falsified property as one failed test."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import sliceforge

# The layers the package republishes, in the order of its `__all__`.
LAYERS = tuple(importlib.import_module(f"sliceforge.{name}") for name in ("model", "loss", "fixedpoint", "inner", "outer", "sim"))


def test_package_all_is_the_layers_lists_in_order():
    want = ["__version__", *(name for layer in LAYERS for name in layer.__all__)]
    assert sliceforge.__all__ == want
    assert len(set(want)) == len(want)


def test_no_name_is_public_in_two_layers():
    owners = {}
    for layer in LAYERS:
        for name in layer.__all__:
            owners.setdefault(name, []).append(layer.__name__)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}


def test_each_exported_name_is_the_object_its_layer_defines():
    for layer in LAYERS:
        for name in layer.__all__:
            obj = getattr(layer, name)
            assert getattr(sliceforge, name) is obj, name
            assert getattr(obj, "__module__", layer.__name__) == layer.__name__, name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from sliceforge import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(sliceforge.__all__)
    assert namespace["__version__"] == sliceforge.__version__


def _tracer_patches(modules):
    """{module: names perfbench/tracer.py rebinds on it}, from an install in
    a fresh process (it rebinds module attributes for good)."""
    root = Path(__file__).resolve().parent.parent
    script = (
        "import importlib, json, sys\n"
        "import tracer\n"
        "mods = {name: importlib.import_module(f'sliceforge.{name}') for name in sys.argv[1:]}\n"
        "before = {name: dict(vars(mod)) for name, mod in mods.items()}\n"
        "tracer.install(tracer.Tracer())\n"
        "print(json.dumps({name: [k for k, v in vars(mod).items() if before[name].get(k) is not v] for name, mod in mods.items()}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), str(root / "perfbench"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *modules], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return {name: set(names) for name, names in json.loads(proc.stdout).items()}


def _unused_imports(tree):
    """Names bound by the module's imports (star imports aside) that it
    never reads and does not list in its `__all__`."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return imported - used


def test_every_imported_name_is_used_exported_or_traced():
    # No linter runs in the test suite, so a dead import would pass it
    # unseen.  The only ones allowed are names perfbench/tracer.py wraps
    # on the importing module, where its callers look them up.
    unused = {}
    for path in sorted(Path(sliceforge.__file__).parent.glob("*.py")):
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[path.stem] = names
    patched = _tracer_patches(sorted(unused))
    assert {name: names - patched[name] for name, names in unused.items() if names - patched[name]} == {}


def test_a_falsified_property_fails_its_test_and_the_run_goes_on(tmp_path):
    # Hypothesis imports libcst to print a patch for a falsified property.
    # Under the suite's warning filters a DeprecationWarning raised by that
    # import once stopped the whole run with INTERNALERROR (exit code 3),
    # so no later test ran.
    root = Path(__file__).resolve().parent.parent
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_falsified(x):\n"
        "    assert x < 10\n\n\n"
        "def test_after():\n"
        "    pass\n",
        encoding="utf-8",
    )
    config = ["-c", str(root / "pyproject.toml"), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *config, "test_falsified.py"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
