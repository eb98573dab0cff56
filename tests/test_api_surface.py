"""src/bentkit keeps only what it runs, and makes each Field in one place.

Every function, class and method defined in the package must be named in
its code somewhere outside its own definition, or be exported by
bentkit/__init__, or be an entry point that perfbench/shim.py wraps.  A
name counts only as code (an ast.Name or an ast.Attribute), never in a
docstring or a comment.  Names are matched without their owner, so two
methods of one name share their uses.  gf2n.make_field is the only code
that calls Field(...).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bentkit"


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree: ast.Module):
    """(qualified name, node) of every def and class, methods included."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                qual = prefix + node.name
                yield qual, node
                yield from walk(node.body, qual + ".")
    yield from walk(tree.body, "")


def _uses(tree: ast.Module):
    """(name, line) of every Name and Attribute in the module's code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _exports(trees) -> set[str]:
    """The names in bentkit/__init__'s lazy export table, _EXPORTS."""
    for node in trees["__init__.py"].body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "_EXPORTS"):
            table = ast.literal_eval(node.value)
            return {name for names in table.values() for name in names}
    raise AssertionError("bentkit/__init__.py has no _EXPORTS table")


def _shim_wrapped() -> set[str]:
    """'module.Qualified.name' of each entry point the benchmark shim wraps."""
    tree = ast.parse((ROOT / "perfbench" / "shim.py").read_text())
    wrapped = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in ("SPANNED",
                                                             "COUNTED")):
            for module, path, _name in ast.literal_eval(node.value):
                wrapped.add(f"{module}.{path}")
    return wrapped


def unused_names() -> list[str]:
    trees = _trees()
    uses = {name: list(_uses(tree)) for name, tree in trees.items()}
    exports = _exports(trees)
    wrapped = _shim_wrapped()
    unused = []
    for filename, tree in trees.items():
        module = filename.removesuffix(".py")
        for qual, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in exports or f"{module}.{qual}" in wrapped:
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(used == name
                       and (other != filename or line not in inside)
                       for other, occurrences in uses.items()
                       for used, line in occurrences):
                unused.append(f"{module}.{qual}")
    return unused


def test_every_definition_in_src_is_used_or_exported():
    assert unused_names() == []


def field_calls() -> list[str]:
    """'file:line' of each Field(...) call outside gf2n.make_field."""
    calls = []
    for filename, tree in _trees().items():
        inside = set()
        for qual, node in _definitions(tree):
            if filename == "gf2n.py" and qual == "make_field":
                inside = set(range(node.lineno, node.end_lineno + 1))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and (getattr(node.func, "id", None) == "Field"
                         or getattr(node.func, "attr", None) == "Field")
                    and node.lineno not in inside):
                calls.append(f"{filename}:{node.lineno}")
    return calls


def test_only_make_field_constructs_a_field():
    assert field_calls() == []
