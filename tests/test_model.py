"""The model module and the package's layering: the limit solvers read the
model from epilim.model and import nothing of the simulator."""

import ast
from collections import Counter
from pathlib import Path

import numpy as np

import epilim
from epilim import agent_sim, model
from epilim.fluid import FluidSolution

SRC = Path(epilim.__file__).parent

# the limit layer, and the modules it must not import
_LIMIT_LAYER = ("model", "distributions", "fluid", "fclt", "equilibria")
_ABOVE = {"agent_sim", "harness", "cli"}


def _package_imports(path: Path) -> set:
    """Every epilim module a source file names in an import statement."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("epilim"):
                continue  # another package
            # from .x import y, from epilim.x import y, from . import x
            out.update(p for p in (node.module or "").split(".") if p != "epilim")
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("epilim."):
                    out.update(alias.name.split(".")[1:])
    return out


def test_limit_layer_imports_no_simulator():
    # a static check: epilim/__init__.py imports every module, so the
    # modules already loaded at run time say nothing about who imports whom
    assert _package_imports(SRC / "harness.py") & _ABOVE == {"agent_sim"}  # the guard sees imports
    for name in _LIMIT_LAYER:
        assert not _package_imports(SRC / f"{name}.py") & _ABOVE, name


def _unused_imports(path: Path) -> list:
    """Names bound by the module-level imports of a source file that the file
    neither reads nor lists in __all__."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", "") != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line} {name}" for name, line in bound.items()
                  if name not in read and name not in exported)


def test_every_module_level_import_is_used(tmp_path):
    probe = tmp_path / "probe.py"  # the guard sees unused names
    probe.write_text("import os.path\nfrom x import a, b as c\n__all__ = ['a']\n")
    assert _unused_imports(probe) == ["probe.py:1 os", "probe.py:2 c"]
    found = [u for path in sorted(SRC.glob("*.py")) for u in _unused_imports(path)]
    assert found == []


def _private_defs(tree: ast.Module) -> list:
    """The private module-level functions and classes of a module, and the
    private methods of its classes: (name, node)."""
    out = []
    for node in tree.body:
        defs = [node]
        if isinstance(node, ast.ClassDef):
            defs += node.body
        out += [(d.name, d) for d in defs
                if isinstance(d, (ast.FunctionDef, ast.ClassDef))
                and d.name.startswith("_") and not d.name.endswith("__")]
    return out


def _reads(tree) -> Counter:
    """How often each name is read, as a name or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, ast.Name) or isinstance(n, ast.Attribute))


def _dead_private_code(paths) -> list:
    """Private definitions that no file of paths reads outside their own body."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return sorted(f"{path.name}:{node.lineno} {name}" for path, tree in trees.items()
                  for name, node in _private_defs(tree) if reads[name] <= _reads(node)[name])


def test_every_private_definition_is_read(tmp_path):
    probe = tmp_path / "probe.py"  # the guard sees dead code, recursion included
    probe.write_text("def _dead(): pass\ndef _live(): pass\ndef _loop(): _loop()\n"
                     "class C:\n    def _m(self): pass\n    def __init__(self): _live()\n")
    assert _dead_private_code([probe]) == ["probe.py:1 _dead", "probe.py:3 _loop",
                                           "probe.py:5 _m"]
    assert _dead_private_code(sorted(SRC.glob("*.py"))) == []


def test_model_names_resolve_where_they_did():
    for mod in (epilim, agent_sim, model):
        for name in mod.__all__:
            assert hasattr(mod, name), (mod.__name__, name)
    for name in model.__all__:
        assert getattr(agent_sim, name) is getattr(model, name)
    assert epilim.ModelSpec is model.ModelSpec
    assert epilim.TabulatedRate is model.TabulatedRate
    # a solution built without the kernel table still works
    grid = np.linspace(0.0, 1.0, 3)
    sol = FluidSolution("SIS", grid, *(np.zeros(3) for _ in range(6)))
    assert sol.kernels is None
