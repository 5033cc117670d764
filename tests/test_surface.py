"""The public surface stays in use, and the modules import in one direction.

Every name in ``gapest.__all__``, every public module-level name of a
package module and every public method or property of a package class must
be used somewhere other than its own definition: by a ``Name``, an
``Attribute`` or an import in the package or in ``perfbench/``, or as a word
in README. A name kept with no such use goes in ``ALLOWED_UNUSED`` with its
reason. Every field of a package dataclass or ``NamedTuple`` must be read
outside its own class: by an attribute load in the package or in
``perfbench/``, or as a word in README. A class that ``asdict`` or
``astuple`` serialises counts as read, and a field kept with no read goes in
``ALLOWED_UNREAD`` with its reason. And the graph of the package's relative
imports, function-local ones included, has no cycle.
"""

import ast
import graphlib
import re
from pathlib import Path

import gapest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_FILES = sorted(Path(gapest.__file__).parent.glob("*.py"))

# Each public name kept with no use, and why it is kept.
ALLOWED_UNUSED = {
    "backward_alpha": "the paper's identity alpha * p0 / p1 = 1/t, which tests confirm and "
                      "README documents as the backward intensity",
}

# Each field of a package dataclass or NamedTuple kept with no read, and why it is kept.
ALLOWED_UNREAD = {
    "McReport.config": "the echoed McConfig, written into the bench compare JSON by to_json_dict",
    "McReport.true_cdf": "the true cdf on the grid, written into the bench compare JSON by "
                         "to_json_dict",
}


def definitions(source: str):
    """Name, first and last line of each module-level definition in ``source``
    and of each method or property of its classes."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item.lineno, item.end_lineno


def uses(source: str):
    """Name and line of each ``Name``, ``Attribute`` and imported name in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((alias.name.rpartition(".")[2], node.lineno) for alias in node.names)


def unused_names(package: dict[str, str], others: list[str], readme: str) -> set[str]:
    """The public names defined in ``package`` (file name -> source) that no
    other line of it, no source in ``others`` and no word of ``readme`` uses."""
    used = {}  # name -> [(file, line)]
    for file, source in package.items():
        for name, line in uses(source):
            used.setdefault(name, []).append((file, line))
    elsewhere = {name for source in others for name, _ in uses(source)}
    unused = set()
    for file, source in package.items():
        for name, first, last in definitions(source):
            if name.startswith("_") or name in elsewhere or re.search(rf"\b{name}\b", readme):
                continue
            if all(f == file and first <= line <= last for f, line in used.get(name, [])):
                unused.add(name)
    return unused


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text() for path in PACKAGE_FILES}


def test_the_scan_sees_each_kind_of_use():
    package = {"a.py": "def f():\n    return f()\n\n\nclass C:\n    def m(self):\n        pass\n",
               "b.py": "X = 1\n"}
    assert unused_names(package, [], "") == {"f", "C", "m", "X"}
    assert unused_names(package, ["f(C)", "o.m", "from a import X"], "") == set()
    assert unused_names(package, [], "calls f, then C.m; X") == set()
    assert unused_names({**package, "b.py": "X = f\n"}, [], "C m X") == set()


def test_every_exported_name_is_scanned():
    defined = {name for source in package_sources().values() for name, _, _ in definitions(source)}
    assert set(gapest.__all__) <= defined


def test_every_public_name_is_used_or_allowed():
    others = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    unused = unused_names(package_sources(), others, (ROOT / "README.md").read_text())
    assert sorted(unused) == sorted(ALLOWED_UNUSED)  # an allowed name that gains a use leaves


def record_classes(source: str):
    """Each dataclass or ``NamedTuple`` class in ``source``, with its field names."""
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
            isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases
        ):
            yield node, [item.target.id for item in node.body
                         if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                         and "ClassVar" not in ast.unparse(item.annotation)]


def serialised(classes: dict[str, ast.ClassDef]) -> set[str]:
    """The classes that call ``asdict`` or ``astuple`` on ``self``, and the record
    classes their field annotations name, since both helpers recurse into them."""
    found = {name for name, node in classes.items() for call in ast.walk(node)
             if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
             and call.func.id in ("asdict", "astuple")
             and any(isinstance(a, ast.Name) and a.id == "self" for a in call.args)}
    todo = list(found)
    while todo:
        for item in classes[todo.pop()].body:
            if isinstance(item, ast.AnnAssign):
                named = {n.id for n in ast.walk(item.annotation) if isinstance(n, ast.Name)}
                todo += sorted((named & set(classes)) - found)
                found |= named & set(classes)
    return found


def reads(source: str):
    """Attribute name and line of each attribute load in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def unread_fields(package: dict[str, str], others: list[str], readme: str) -> set[str]:
    """``Class.field`` for each field of a package record class that no
    attribute load outside its class, no source in ``others`` and no word of
    ``readme`` reads, unless ``asdict``/``astuple`` serialise the class."""
    written = serialised({node.name: node for source in package.values()
                          for node, _ in record_classes(source)})
    loads = [(name, file, line) for file, source in package.items() for name, line in reads(source)]
    elsewhere = {name for source in others for name, _ in reads(source)}
    unread = set()
    for file, source in package.items():
        for node, names in record_classes(source):
            if node.name in written:
                continue
            for name in names:
                if name in elsewhere or re.search(rf"\b{name}\b", readme) or any(
                    n == name and not (f == file and node.lineno <= line <= node.end_lineno)
                    for n, f, line in loads
                ):
                    continue
                unread.add(f"{node.name}.{name}")
    return unread


def test_the_field_scan_sees_each_kind_of_read():
    record = ("from dataclasses import dataclass\n\n\n@dataclass(frozen=True)\nclass R:\n"
              "    a: int\n    b: float\n    K: ClassVar[int] = 0\n\n"
              "    def total(self):\n        return self.a + self.b\n")
    package = {"a.py": record, "b.py": "def f(r):\n    r.b = 1\n"}
    assert unread_fields(package, [], "") == {"R.a", "R.b"}  # a write or a read inside R is no read
    assert unread_fields({**package, "b.py": "def f(r):\n    return r.a\n"}, ["x.b"], "") == set()
    assert unread_fields(package, [], "the field a, then b") == set()
    named = {"a.py": record + "\n\nclass T(NamedTuple):\n    rows: list[R]\n\n"
                              "    def out(self):\n        return astuple(self)\n"}
    assert unread_fields(named, [], "") == set()  # astuple writes T and the R rows it holds


def test_every_record_field_is_read_or_allowed():
    others = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    unread = unread_fields(package_sources(), others, (ROOT / "README.md").read_text())
    assert sorted(unread) == sorted(ALLOWED_UNREAD)  # an allowed field that gains a read leaves


def imported_modules(source: str, modules) -> set[str]:
    """The package ``modules`` that ``source`` imports relatively, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            found.update(name.partition(".")[0] for name in names)
    return found & set(modules)


def test_the_import_scan_sees_function_local_imports():
    source = "from .a import x\n\n\ndef f():\n    from . import b, c\n    from .. import d\n"
    assert imported_modules(source, {"a", "b", "d"}) == {"a", "b"}


def test_the_modules_import_in_one_direction():
    modules = {Path(name).stem: source for name, source in package_sources().items()}
    graph = {name: imported_modules(source, modules) for name, source in modules.items()}
    assert graph["cli"] >= {"benchmark", "dataio", "npmle", "product_limit", "sampling"}
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as err:
        raise AssertionError(f"import cycle: {' -> '.join(err.args[1])}") from None
