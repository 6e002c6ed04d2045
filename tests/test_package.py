"""Package hygiene: every module-level function and class in
``src/crnlocus`` is used somewhere in the package or exported by it,
every exported name has a caller in the package or the benchmark,
every module but ``__init__`` uses each name it imports, and the
README's Layout block names exactly the package's modules."""

import ast
import re
from pathlib import Path

import crnlocus

SRC = Path(crnlocus.__file__).parent


def _trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _exported(init: ast.Module) -> set[str]:
    return {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _references(tree: ast.Module, skip: ast.AST | None = None) -> set[str]:
    """Names loaded or read as attributes in ``tree``, outside ``skip``."""
    out: set[str] = set()
    todo: list[ast.AST] = [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return out


def unused_definitions() -> list[str]:
    """``module.name`` for each top-level def or class that no other code
    in the package refers to and ``__init__`` does not export."""
    trees = _trees()
    exported = _exported(trees["__init__.py"])
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in exported:
                continue
            used = any(
                node.name in _references(other, skip=node if other is tree else None)
                for other in trees.values()
            )
            if not used:
                unused.append(f"{module[:-3]}.{node.name}")
    return unused


def test_every_definition_is_used_or_exported():
    assert unused_definitions() == []


def unused_imports() -> list[str]:
    """``module.name`` for each name a module other than ``__init__``
    imports and never refers to."""
    unused = []
    for module, tree in _trees().items():
        if module == "__init__.py":
            continue
        used = _references(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{module[:-3]}.{name}")
    return unused


def test_every_import_is_used():
    assert unused_imports() == []


BENCH = SRC.parents[1] / "perfbench"
# The paper's cone subspace J~R, kept public for its users; the report
# builds the same restriction of ``embed_kernels`` itself, from the local
# kernels of its per-vertex decisions, and only for a nonempty cone with
# cone rows: an empty cone's dimension is an integer rank.
PUBLIC_WITHOUT_CALLER = {"jr_subspace"}


def exports_without_caller() -> list[str]:
    """Each name ``__init__`` exports that no package module refers to
    outside its own definition, and no benchmark module refers to."""
    trees = _trees()
    modules = [tree for name, tree in trees.items() if name != "__init__.py"]
    definitions = {
        node.name: node
        for tree in modules
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    bench: set[str] = set()
    for path in sorted(BENCH.glob("*.py")):
        bench |= _references(ast.parse(path.read_text(), filename=str(path)))

    def has_caller(name: str) -> bool:
        skip = definitions.get(name)
        return name in bench or any(name in _references(tree, skip) for tree in modules)

    exported = _exported(trees["__init__.py"]) - PUBLIC_WITHOUT_CALLER
    return sorted(name for name in exported if not has_caller(name))


def test_every_export_has_a_caller():
    assert exports_without_caller() == []


def readme_layout_modules() -> set[str]:
    """The ``name.py`` entries of the code block under README's Layout heading."""
    readme = (SRC.parents[1] / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```")[1]
    return set(re.findall(r"^ +(\w+\.py) ", block, re.M))


def test_readme_layout_names_every_module():
    modules = {p.name for p in SRC.glob("*.py")} - {"__init__.py"}
    assert readme_layout_modules() == modules
