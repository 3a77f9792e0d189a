"""Source hygiene of the package, checked with the standard library only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kgchain"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line (``__future__`` excluded)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Every name read in the module, quoted annotations included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        # a quoted annotation such as "SeedPoly" or "list[Monomial]"
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    return used


def test_no_unused_imports():
    unused = []
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used(tree)
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _imported(tree).items()
                   if name not in used]
    assert not unused, "imported but never used: " + ", ".join(unused)


def test_every_private_function_is_used_in_src():
    # a deleted path leaves no private helper that only tests still call
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}
    orphans = [f"{path.name}: {node.name}"
               for path, tree in trees.items() for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_")
               and not node.name.startswith("__")
               and node.name not in used]
    assert not orphans, "private functions that src/ never calls: " \
        + ", ".join(orphans)


def _fields(cls: ast.ClassDef) -> list[str]:
    """Names of the annotated fields declared in a class body."""
    return [node.target.id for node in cls.body
            if isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)]


def _serializes_dict(cls: ast.ClassDef) -> bool:
    """True when the class reads ``self.__dict__``, so every field is read."""
    return any(isinstance(n, ast.Attribute) and n.attr == "__dict__"
               for n in ast.walk(cls))


def test_every_field_is_read():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for folder in (SRC, ROOT / "tests", ROOT / "perfbench")
             for path in sorted(folder.glob("*.py"))}
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{path.name}: {cls.name}.{name}"
              for path, tree in trees.items() if path.parent == SRC
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              and not _serializes_dict(cls)
              for name in _fields(cls) if name not in read]
    assert not unread, "fields that nothing reads: " + ", ".join(unread)


def _copies(call: ast.Call) -> list[str]:
    """The ``k=obj.k`` arguments of a call that also passes ``x=obj``."""
    passed = {kw.value.id for kw in call.keywords
              if isinstance(kw.value, ast.Name)}
    return [f"{kw.arg}={kw.value.value.id}.{kw.arg}" for kw in call.keywords
            if isinstance(kw.value, ast.Attribute) and kw.value.attr == kw.arg
            and isinstance(kw.value.value, ast.Name)
            and kw.value.value.id in passed]


def test_each_value_is_stored_once():
    # a call that hands over obj and also obj.k as k stores k twice
    copies = [f"{path.name}:{node.lineno}: {arg}"
              for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(),
                                             filename=str(path)))
              if isinstance(node, ast.Call) for arg in _copies(node)]
    assert not copies, "values passed with their owner: " + ", ".join(copies)


def test_import_does_not_load_scipy_integrate():
    # scipy.integrate serves only the sampled deformation check, and it is
    # most of the import time of the package when loaded eagerly
    code = ("import sys, kgchain; "
            "sys.exit('scipy.integrate' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env)
    assert done.returncode == 0, "import kgchain loads scipy.integrate"
