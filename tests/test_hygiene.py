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


def test_autodiff_all_names_exactly_its_public_definitions():
    from dclimba import autodiff
    tree = ast.parse((SRC / "autodiff.py").read_text())
    public = {node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    assert len(autodiff.__all__) == len(set(autodiff.__all__))
    assert set(autodiff.__all__) == public
