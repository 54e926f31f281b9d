"""Every definition in the package has a reader outside the unit tests.

A top-level function or class, or a public method, under
``src/selfattract/`` is read when its name is used

- in another module of the package, or in its own module outside its
  definition;
- in ``scripts/`` or ``bench/`` (the bench tracer looks attributes up by
  dotted strings, so a string that is a dotted name counts there);
- in ``tests/test_acceptance.py``.

Re-exports in ``__init__.py`` are not reads, and neither is an import
that nothing uses.  A name that only unit tests read is surface that every
refactor carries for nothing: report it through a command or a script, or
delete it with its tests.

Every field of a dataclass in the package is read as an attribute
somewhere in the package, ``scripts/``, ``bench/`` or ``tests/``: a field
that is only ever set is a result nobody looks at.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "selfattract"
_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _definitions(tree: ast.Module):
    """(qualified name, name, node) of each top-level function and class,
    and of each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def _uses(tree: ast.AST, skip: ast.AST | None = None, strings: bool = False) -> set[str]:
    """Names loaded or attributes read in ``tree`` outside the subtree
    ``skip``; with ``strings``, also the parts of dotted-name strings."""
    out: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            out.update(node.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return out


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_package_definition_has_a_reader():
    modules = {p: _parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    outside = set()
    for path in sorted((ROOT / "scripts").glob("*.py")):
        outside |= _uses(_parse(path))
    for path in sorted((ROOT / "bench").glob("*.py")):
        outside |= _uses(_parse(path), strings=True)
    outside |= _uses(_parse(ROOT / "tests" / "test_acceptance.py"))
    package = {p: _uses(tree) for p, tree in modules.items()}
    unread = []
    for path, tree in modules.items():
        others = set().union(*(uses for p, uses in package.items() if p != path))
        for qualified, name, node in _definitions(tree):
            if name in outside or name in others or name in _uses(tree, skip=node):
                continue
            unread.append(f"{path.stem}.{qualified} (line {node.lineno})")
    assert unread == [], "read by no command, script, bench file or acceptance test: " \
        + ", ".join(unread)


def _attributes_read(tree: ast.AST) -> set[str]:
    """The attribute names that ``tree`` loads."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def test_every_dataclass_field_is_read():
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "bench").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    read = set().union(*(_attributes_read(_parse(p)) for p in paths))
    unread = [f"{path.stem}.{node.name}.{item.target.id} (line {item.lineno})"
              for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.walk(_parse(path))
              if isinstance(node, ast.ClassDef) and _is_dataclass(node)
              for item in node.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
              and item.target.id not in read]
    assert unread == [], "dataclass fields nothing reads: " + ", ".join(unread)
