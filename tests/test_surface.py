"""The public surface stays in use, and the modules import in one direction.

Every name in ``gapest.__all__``, every public module-level name of a
package module and every public method or property of a package class must
be used somewhere other than its own definition: by a ``Name``, an
``Attribute`` or an import in the package or in ``perfbench/``, or as a word
of README's code (an inline code span or a fenced block; prose does not
count). A name kept with no such use goes in ``ALLOWED_UNUSED`` with its
reason. Every field of a package dataclass or ``NamedTuple`` must be read
outside its own class: by an attribute load in the package or in
``perfbench/``, or as a word of README's code. A class that ``asdict`` or
``astuple`` serialises counts as read, and a field kept with no read goes in
``ALLOWED_UNREAD`` with its reason. Every parameter with a default, of a
public function or method of the package, must be passed by some call outside
the tests: in the package outside its own function, in ``perfbench/`` or in
README's python block, by keyword, by position, or through ``*``/``**``; calls
are matched by the called name. A parameter kept with no such call goes in
``ALLOWED_UNSET`` with its reason. And the graph of the package's relative
imports, function-local ones included, has no cycle.
"""

import ast
import graphlib
import re
from pathlib import Path

import gapest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_FILES = sorted(Path(gapest.__file__).parent.glob("*.py"))
README = (ROOT / "README.md").read_text()

# Each public name kept with no use, and why it is kept.
ALLOWED_UNUSED = {
    "backward_alpha": "the paper's identity alpha * p0 / p1 = 1/t, which tests confirm and "
                      "README documents as the backward intensity",
    "pdf": "the density of each family, which the size-biased sampler law test and the "
           "family tests integrate as their reference",
}

# Each field of a package dataclass or NamedTuple kept with no read, and why it is kept.
ALLOWED_UNREAD = {
    "McReport.config": "the echoed McConfig, written into the bench compare JSON by to_json_dict",
    "McReport.true_cdf": "the true cdf on the grid, written into the bench compare JSON by "
                         "to_json_dict",
}

# Each parameter with a default that no call outside the tests passes, and why it is kept.
ALLOWED_UNSET = {
    "laslett_em.max_iter": "the single-fit library call keeps the step bound that "
                           "estimate em --max-iter passes to laslett_em_many",
    "laslett_em.tol": "the single-fit library call keeps the stop rule that "
                      "estimate em --tol passes to laslett_em_many",
}


def code_of(readme: str) -> str:
    """README's code: each fenced block and each inline code span, one to a line."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.S | re.M)
    prose = re.sub(r"^```.*?^```", "", readme, flags=re.S | re.M)
    return "\n".join(blocks + re.findall(r"`([^`]+)`", prose))


def test_readme_counts_only_as_code():
    readme = "f, m and the field a in prose\n\nthen `C` and ``X``:\n\n```sh\nrun b\n```\n"
    assert code_of(readme).split() == ["run", "b", "C", "X"]
    package = {"a.py": "def f():\n    pass\n\n\nclass C:\n    def m(self):\n        pass\n",
               "b.py": "X = 1\n"}
    assert unused_names(package, [], code_of(readme)) == {"f", "m"}
    record = "@dataclass\nclass R:\n    a: int\n    b: float\n"
    assert unread_fields({"a.py": record}, [], code_of(readme)) == {"R.a"}


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
    other line of it, no source in ``others`` and no word of ``readme`` (README's
    code) uses."""
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
    unused = unused_names(package_sources(), others, code_of(README))
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
    ``readme`` (README's code) reads, unless ``asdict``/``astuple`` serialise the class."""
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
    unread = unread_fields(package_sources(), others, code_of(README))
    assert sorted(unread) == sorted(ALLOWED_UNREAD)  # an allowed field that gains a read leaves


def defaulted_parameters(source: str):
    """``name.parameter``, its positional index (None if keyword-only), and the first
    and last line of its function, for each parameter with a default of a public
    module-level function or public method of a public class in ``source``; ``name``
    is ``Class.method`` for a method, whose index leaves out ``self`` or ``cls``."""
    functions = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node, 0))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    functions.append((f"{node.name}.{item.name}", item, 0 if static else 1))
    for name, func, bound in functions:
        if func.name.startswith("_"):
            continue
        args = func.args
        positional = args.posonlyargs + args.args
        for index in range(len(positional) - len(args.defaults), len(positional)):
            yield f"{name}.{positional[index].arg}", index - bound, func.lineno, func.end_lineno
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{name}.{arg.arg}", None, func.lineno, func.end_lineno


def calls(source: str):
    """Called name, line, positional argument count, keyword names (None for ``**``)
    and whether a ``*`` argument is passed, for each call in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            yield (name, node.lineno, len(node.args) - starred, {k.arg for k in node.keywords},
                   starred)


def unset_parameters(package: dict[str, str], others: list[str]) -> set[str]:
    """``name.parameter`` for each defaulted parameter of ``defaulted_parameters``
    that no call outside its own function in ``package``, and no call in ``others``,
    passes: by keyword, by position at or past its index, or through ``*``/``**``.
    Calls are matched by the called name alone."""
    found = [(file, *call) for file, source in package.items() for call in calls(source)]
    found += [(None, *call) for source in others for call in calls(source)]
    unset = set()
    for file, source in package.items():
        for qualified, index, first, last in defaulted_parameters(source):
            *_, function, parameter = qualified.split(".")
            if not any(
                name == function and not (f == file and first <= line <= last)
                and (parameter in keywords or None in keywords
                     or index is not None and (starred or count > index))
                for f, name, line, count, keywords, starred in found
            ):
                unset.add(qualified)
    return unset


def test_the_parameter_scan_sees_each_kind_of_pass():
    source = ("def f(a, b=1, *, c=2):\n    return f(a, 2, c=3)\n\n\nclass C:\n"
              "    def m(self, x=0):\n        pass\n\n    @staticmethod\n"
              "    def s(y=0):\n        pass\n\n    def _hidden(self, z=0):\n        pass\n")
    package = {"a.py": source}
    assert unset_parameters(package, []) == {"f.b", "f.c", "C.m.x", "C.s.y"}  # a call inside f
    assert unset_parameters(package, ["f(1, 2, c=3)", "o.m(1)", "C.s(1)"]) == set()
    assert unset_parameters(package, ["f(1, b=2)", "o.m()", "C.s(y=1)"]) == {"f.c", "C.m.x"}
    assert unset_parameters(package, ["f(*xs)", "o.m(**kw)"]) == {"f.c", "C.s.y"}
    assert unset_parameters({**package, "b.py": "f(0, 1, **kw)\nC().m(1)\nC.s(2)\n"},
                            []) == set()


def test_every_defaulted_parameter_is_passed_or_allowed():
    others = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    others += re.findall(r"```python\n(.*?)```", README, flags=re.S)
    unset = unset_parameters(package_sources(), others)
    assert sorted(unset) == sorted(ALLOWED_UNSET)  # an allowed parameter that gains a call leaves


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
