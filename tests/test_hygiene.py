import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dclimba"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {(a.asname or a.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for elt in node.value.elts}
    assert imported - used - exported == set()


THREAD_MAKERS = {"Thread", "Timer", "ThreadPoolExecutor", "ProcessPoolExecutor", "Pool"}


def _import_time_calls(node):
    """Calls that run when the module is imported: everything outside
    function bodies, decorators and default values included."""
    if isinstance(node, ast.Lambda):
        yield from _import_time_calls(node.args)
        return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        for part in [*node.decorator_list, node.args, node.returns]:
            if part is not None:
                yield from _import_time_calls(part)
        return
    if isinstance(node, ast.Call):
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _import_time_calls(child)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_thread_or_executor_at_import(path):
    # pools are scoped to one call, so that no thread outlives a command
    tree = ast.parse(path.read_text())
    made = [ast.unparse(call) for call in _import_time_calls(tree)
            if getattr(call.func, "id", getattr(call.func, "attr", None)) in THREAD_MAKERS]
    assert made == []


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "_kernels.py"],
                         ids=lambda p: p.name)
def test_threads_made_only_by_the_kernels_helper(path):
    # _kernels.run_shared is the package's one thread helper
    tree = ast.parse(path.read_text())
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
    names |= {a.name for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    assert names & THREAD_MAKERS == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_rebinds_a_module_global(path):
    # process-wide state lives in objects callers pass, or in a cached call
    # such as _kernels._openblas_thread_calls
    tree = ast.parse(path.read_text())
    assert [node.names for node in ast.walk(tree) if isinstance(node, ast.Global)] == []


def test_autodiff_all_names_exactly_its_public_definitions():
    from dclimba import autodiff
    tree = ast.parse((SRC / "autodiff.py").read_text())
    public = {node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    assert len(autodiff.__all__) == len(set(autodiff.__all__))
    assert set(autodiff.__all__) == public


FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(node):
    """Every Name id and attribute name in node."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _unreached_public_names():
    """Public top-level functions and classes of the package, and public
    methods of its public classes, whose names no walk reaches. The walk
    starts from the CLI, the acceptance criteria and the package's
    module-level statements, and takes every Name and attribute name of each
    definition it reaches; a reached class brings its fields, bases,
    decorators and dunder methods."""
    defs, public, todo = {}, set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (*FUNCS, ast.ClassDef)):
                todo.extend(_names(node))
                continue
            members = [m for m in node.body if isinstance(m, FUNCS)] \
                if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                defs.setdefault(d.name, []).append(d)
            if not node.name.startswith("_"):
                public |= {d.name for d in [node, *members] if not d.name.startswith("_")}
    for start in (SRC / "cli.py", SRC.parents[1] / "tests" / "test_acceptance.py"):
        todo.extend(_names(ast.parse(start.read_text())))
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in defs.get(name, ()):
            parts = [node]
            if isinstance(node, ast.ClassDef):
                parts = [*node.decorator_list, *node.bases, *node.keywords,
                         *(p for p in node.body
                           if not isinstance(p, FUNCS) or p.name.startswith("__"))]
            for part in parts:
                todo.extend(_names(part))
    return public - seen


def test_every_public_name_is_reached():
    assert _unreached_public_names() == set()


SETTABLE_VALUES = 54


def test_settable_values_at_most():
    # dataclass fields with a default plus function and lambda parameters
    # with a default: a new option edits this bound in the same change
    count = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                             for s in node.body)
            if isinstance(node, (*FUNCS, ast.Lambda)):
                count += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
    assert count <= SETTABLE_VALUES
