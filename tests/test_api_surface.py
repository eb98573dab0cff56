"""src/bentkit keeps only what it runs, and makes each Field in one place.

Every function, class and method defined in the package must be named in
its code somewhere outside its own definition, or be exported by
bentkit/__init__.  A name counts only as code (an ast.Name or an
ast.Attribute), never in a docstring or a comment, and a method (a def
directly in a class body) only as an attribute, x.name, so a builtin or a
local of the same name does not keep it.  Names are matched without their
owner, so two methods of one name share their uses.  gf2n.make_field is
the only code that calls Field(...).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bentkit"


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree: ast.Module):
    """(qualified name, node, is a method) of every def and class."""
    def walk(body, prefix, in_class):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                qual = prefix + node.name
                is_class = isinstance(node, ast.ClassDef)
                yield qual, node, in_class and not is_class
                yield from walk(node.body, qual + ".", is_class)
    yield from walk(tree.body, "", False)


def _uses(tree: ast.Module):
    """(name, line, is an attribute) of every Name and Attribute in the
    module's code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


def _exports(trees) -> set[str]:
    """The names in bentkit/__init__'s lazy export table, _EXPORTS."""
    for node in trees["__init__.py"].body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "_EXPORTS"):
            table = ast.literal_eval(node.value)
            return {name for names in table.values() for name in names}
    raise AssertionError("bentkit/__init__.py has no _EXPORTS table")


def unused_names(trees) -> list[str]:
    uses = {name: list(_uses(tree)) for name, tree in trees.items()}
    exports = _exports(trees)
    unused = []
    for filename, tree in trees.items():
        module = filename.removesuffix(".py")
        for qual, node, method in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in exports:
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(used == name and (attr or not method)
                       and (other != filename or line not in inside)
                       for other, occurrences in uses.items()
                       for used, line, attr in occurrences):
                unused.append(f"{module}.{qual}")
    return unused


def test_every_definition_in_src_is_used_or_exported():
    assert unused_names(_trees()) == []


def test_a_method_named_only_as_a_builtin_is_unused():
    """Field.pow restored: constructions calls the builtin pow(...), which
    is no use of the method."""
    trees = _trees()
    assert any(isinstance(node, ast.Name) and node.id == "pow"
               for node in ast.walk(trees["constructions.py"]))
    source = (PACKAGE / "gf2n.py").read_text()
    anchor = "    def pow_planes(self, a, e: int) -> tuple[int, ...]:\n"
    assert anchor in source
    trees["gf2n.py"] = ast.parse(source.replace(
        anchor, "    def pow(self, a: int, e: int) -> int:\n"
        "        return a\n\n" + anchor))
    assert unused_names(trees) == ["gf2n.Field.pow"]


def field_calls() -> list[str]:
    """'file:line' of each Field(...) call outside gf2n.make_field."""
    calls = []
    for filename, tree in _trees().items():
        inside = set()
        for qual, node, _ in _definitions(tree):
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
