"""Every public module-level function and class of the package, and every
public method and property of a public class, has a caller in the package or
the benchmark, so no API exists only for the tests; and every private
module-level function has a caller there, so none is dead.  Every defaulted
parameter is passed by some call there, so no option is set only by tests.
No check in the package is an ``assert`` statement, which ``python -O``
strips, no module reads the environment, and no module imports a name it
never reads.  The complexes and their homology load no other package module
than ``graphs``, the base layer that rejects input.  The one exception class
the package defines is ``CrossCheckError``: rejected input is a plain
``ValueError``, so no subclass of it tells one rejection from another.

The scan matches names, not objects: a member counts as called when any
object's attribute of that name is used outside its own body, and a bare name
(a variable or parameter) does not count for a member.  A string does not
count either: ``bench/spans.py`` names the functions it traces as
"module.function", and tracing a function is not a use of it.  So it still misses a
member whose name another object's attribute also uses (a ``faces`` method
next to a ``faces`` attribute elsewhere), and such members need a look by
hand."""

import ast
import builtins
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "rindep").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "bench").glob("*.py"))


def _references(tree: ast.AST, bare: bool = True) -> Counter:
    """Attribute names used in ``tree``, and bare names unless ``bare`` is
    false: a class member is reached only through an attribute."""
    names = Counter()
    for node in ast.walk(tree):
        if bare and isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def _public(body: list, kinds: tuple) -> list:
    return [node for node in body if isinstance(node, kinds) and not node.name.startswith("_")]


def _views(body: list) -> list:
    """The public class attributes of ``body`` assigned a ``cached_property``:
    views that are members as much as a ``def`` is."""
    return [
        node
        for node in body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", None) == "cached_property"
        and not node.targets[0].id.startswith("_")
    ]


def _orphans(definitions: list, bare: bool = True) -> list[str]:
    """The qualified names of the ``(qualified name, node)`` definitions that
    only their own body uses in the package and the benchmark, bare names
    counted as for ``_references``."""
    used = sum((_references(ast.parse(path.read_text()), bare) for path in CALLERS), Counter())
    return [
        name
        for name, node in definitions
        if used[name.rpartition(".")[2]] == _references(node, bare)[name.rpartition(".")[2]]
    ]


def _module_bodies() -> list:
    return [(path.stem, ast.parse(path.read_text()).body) for path in PACKAGE]


def test_every_public_definition_has_a_caller_outside_tests():
    definitions, members = [], []
    for module, body in _module_bodies():
        for node in _public(body, (ast.FunctionDef, ast.ClassDef)):
            definitions.append((f"{module}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                for member in _public(node.body, (ast.FunctionDef,)):
                    members.append((f"{module}.{node.name}.{member.name}", member))
                for view in _views(node.body):
                    members.append((f"{module}.{node.name}.{view.targets[0].id}", view))
    assert _orphans(definitions) + _orphans(members, bare=False) == []


def test_every_private_module_function_has_a_caller():
    definitions = [
        (f"{module}.{node.name}", node)
        for module, body in _module_bodies()
        for node in body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    ]
    assert _orphans(definitions) == []


def test_no_assert_statement_in_the_package():
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in PACKAGE
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_no_module_reads_the_environment():
    """Every value a call uses comes from its command line and its input
    files, so no module reads ``os.environ`` or calls ``os.getenv``."""
    reads = [
        f"{path.name}:{node.lineno}"
        for path in PACKAGE
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
        or isinstance(node, ast.alias) and node.name in ("environ", "getenv")
    ]
    assert reads == []


def test_the_only_exception_class_is_cross_check_error():
    """A class is an exception class when one of its bases names a builtin
    exception class or, by name, an exception class of the package."""
    bases = {
        node.name: {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}
        for path in PACKAGE
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }
    exceptions = {
        name for name, kind in vars(builtins).items() if isinstance(kind, type) and issubclass(kind, BaseException)
    }
    while more := {name for name, names in bases.items() if names & exceptions} - exceptions:
        exceptions |= more
    assert sorted(exceptions & bases.keys()) == ["CrossCheckError"]


def test_only_the_cli_decodes_json():
    """Input files are read and decoded in ``cli`` alone; the layers below
    take decoded data (``graph_from_json_dict``, ``complex_from_json_dict``,
    ``from_json_dict``) and write JSON-ready dicts."""
    importers = [
        path.stem
        for path in PACKAGE
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(alias.name.partition(".")[0] == "json" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "json"
    ]
    assert importers == ["cli"]


def test_no_handler_catches_key_error_or_type_error():
    """Rejected input is a ``ValueError``, so no ``except`` needs to name
    ``KeyError`` or ``TypeError``; one that did would read an internal fault
    as rejected input."""
    handlers = [
        f"{path.name}:{node.lineno}"
        for path in PACKAGE
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)} & {"KeyError", "TypeError"}
    ]
    assert handlers == []


def test_every_import_is_used():
    """Each name a module imports is read somewhere in that module, as a
    bare name or as the head of an attribute chain; ``__future__`` imports
    set compiler flags and are not names."""
    unused = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def _defaulted(func: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """``(name, position)`` of each parameter of ``func`` that has a default:
    position is the index among a call's positional arguments, after the
    ``self`` that a method's call passes implicitly, and ``None`` for a
    keyword-only parameter."""
    positional = func.args.posonlyargs + func.args.args
    first = len(positional) - len(func.args.defaults)
    out = [(arg.arg, i - method) for i, arg in enumerate(positional) if i >= first]
    keyword_only = zip(func.args.kwonlyargs, func.args.kw_defaults)
    out += [(arg.arg, None) for arg, default in keyword_only if default is not None]
    return out


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` sets the parameter ``name`` at ``position``; a
    ``*args`` or ``**kwargs`` argument counts as setting every one."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(keyword.arg in (None, name) for keyword in call.keywords):
        return True
    return position is not None and position < len(call.args)


def test_every_default_is_overridden_by_some_caller():
    """An option only tests set should be a constant: for each defaulted
    parameter of a package function, some call in the package or the
    benchmark passes it, by position or by keyword.  Calls match by name, as
    in ``_references``; a method's call is ``obj.name(...)``."""
    calls: dict[str, list[ast.Call]] = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                calls.setdefault(callee, []).append(node)
    unset = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text())
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for name, position in _defaulted(func, id(func) in methods):
                    if not any(_passes(call, name, position) for call in calls.get(func.name, [])):
                        unset.append(f"{path.name}:{func.lineno} {func.name}({name}=...)")
    assert unset == []


# the functions that may turn masks into labelled sets (``sets_of``) or
# labelled input into masks (``parse_family``): the labelled views and the
# parsers of graphs, complexes, ideals, faces, certificates and shelling
# orders; a search or replay that called either would bring back a round
# trip through labels
LABEL_BOUNDARY = {
    "complexes.SimplicialComplex.facets",
    "hypergraphs.Hypergraph.edges",
    "ideals.MonomialIdeal.generators",
    "graphs.Graph.from_edges",
    "complexes.complex_from_json_dict",
    "complexes.link",
    "ideals.MonomialIdeal.from_supports",
    "decompose.CertificateNode.from_json_dict",
    "decompose.CertificateNode.root_over",
    "decompose.verify_shelling_certificate",
}


def _functions(body: list, prefix: str):
    """``(qualified name, node)`` of each function and method in ``body``,
    and of each class attribute assigned there (a cached view)."""
    for node in body:
        if isinstance(node, ast.FunctionDef):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.Assign) and prefix.count(".") > 1:
            yield prefix + ast.unparse(node.targets[0]), node


def test_labels_meet_masks_only_at_the_boundary():
    """Only the functions of ``LABEL_BOUNDARY`` call ``sets_of`` or
    ``parse_family``, and each of them exists."""
    callers, defined = set(), set()
    for module, body in _module_bodies():
        for name, func in _functions(body, f"{module}."):
            defined.add(name)
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                    if callee in ("sets_of", "parse_family"):
                        callers.add(name)
    assert callers - LABEL_BOUNDARY == set()
    assert LABEL_BOUNDARY <= defined


@pytest.mark.parametrize(
    "module, loaded",
    [
        ("rindep.complexes", ["rindep.complexes", "rindep.graphs"]),
        ("rindep.homology", ["rindep.complexes", "rindep.graphs", "rindep.homology"]),
    ],
)
def test_complexes_and_homology_load_only_the_base_layer(module, loaded):
    """``graphs`` holds the records, the family and guard checks and
    ``CrossCheckError``, so the layers above it need no sibling they do not use."""
    probe = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('rindep.')))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == f"{loaded}\n"
