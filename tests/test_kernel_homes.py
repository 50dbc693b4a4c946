"""Each dense kernel has one home: `src/` is parsed, not run, so no later change
can inline an SVD or a Hermitian eigensolve past the layer that owns it.

Every spectral norm comes from `dense_small.operator_norm`, and every
Hermitian eigensystem from `dense_small.support_function_grid`.
"""
import ast
from pathlib import Path

import pytest

import crouzeix_lab

SRC = Path(crouzeix_lab.__file__).resolve().parent

# linalg.<name> and the functions, as module.qualname, that may call it
HOMES = {
    "svd": {"dense_small.operator_norm"},
    "eigh": {"dense_small.support_function_grid"},
    "eigvalsh": {"dense_small.support_function_grid"},
}


def _sources() -> dict:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _linalg_calls(sources: dict) -> list:
    """(function, name, call) for every call of X.linalg.name or linalg.name in
    the modules' sources, function as module.qualname."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                owner = child.func.value
                if (isinstance(owner, ast.Attribute) and owner.attr == "linalg"
                        or isinstance(owner, ast.Name) and owner.id == "linalg"):
                    found.append((".".join([module] + scope), child.func.attr, child))
            visit(child, module, scope)

    for module, text in sources.items():
        visit(ast.parse(text, module), module, [])
    return found


def _spectral_order(call: ast.Call) -> bool:
    """Whether linalg.norm(x, ord) may take an SVD: ord 2, -2, "nuc" or anything not a literal."""
    given = call.args[1:2] + [k.value for k in call.keywords if k.arg == "ord"]
    return any(not isinstance(a, ast.Constant) or a.value in (2, "nuc") for a in given)


@pytest.mark.parametrize("name", sorted(HOMES))
def test_a_kernel_is_called_only_in_its_home(name):
    assert {where for where, called, _ in _linalg_calls(_sources()) if called == name} == HOMES[name]


def test_no_linalg_norm_is_a_spectral_norm():
    assert [where for where, name, call in _linalg_calls(_sources()) if name == "norm" and _spectral_order(call)] == []


def test_no_linalg_function_is_imported_by_name():
    # from numpy.linalg import svd would call it past the attribute check above
    for module, text in _sources().items():
        for node in ast.walk(ast.parse(text, module)):
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").endswith("linalg"), f"{module}: from {node.module} import ..."


def test_the_guard_sees_an_inlined_svd_and_a_spectral_norm():
    inlined = {"ratio_search": "class T:\n    def f(self, A):\n        return np.linalg.svd(A)[0]\n",
               "cli": "from numpy import linalg\ndef g(A):\n"
                      "    return linalg.norm(A, 2), linalg.norm(A), linalg.norm(A, ord=-2), linalg.norm(A, 'fro')\n"}
    calls = [(where, name, _spectral_order(call) if name == "norm" else None)
             for where, name, call in _linalg_calls(inlined)]
    assert calls == [("ratio_search.T.f", "svd", None), ("cli.g", "norm", True), ("cli.g", "norm", False),
                     ("cli.g", "norm", True), ("cli.g", "norm", False)]
