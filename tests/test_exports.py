"""Every exported name resolves: a deleted function or class cannot
leave behind an ``__all__`` entry or a package-level import of it. And
only ``linalg`` casts arrays to float64, so the admission policy for
array arguments has one home, only ``linalg`` calls ``np.clip``, so
soft thresholding has one home, and only ``decomp._iterate`` loops over
``max_iters``, so the iteration cap and the converged flag have one
home."""

import ast
import importlib
import os
import pkgutil

import pytest

import tenkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(tenkit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"tenkit.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def _package_imports():
    with open(tenkit.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


def test_package_imports_resolve_to_public_names():
    imports = list(_package_imports())
    assert imports
    for module_name, name, bound in imports:
        module = importlib.import_module(f"tenkit.{module_name}")
        assert getattr(tenkit, bound) is getattr(module, name)
        assert name in module.__all__, f"tenkit.{module_name}.{name} is not in __all__"


def _is_float64(node) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in ("float64", "double")
    if isinstance(node, ast.Name):
        return node.id in ("float", "float64")
    return isinstance(node, ast.Constant) and node.value in (
        "float", "float64", "double", "d", "f8", "<f8", "=f8", ">f8"
    )


def _float64_casts(source):
    """(line, dtype) of every np.asarray, np.array, np.ascontiguousarray
    or .astype call given a float64 dtype."""
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if func.attr == "astype":
            dtypes = node.args[:1]
        elif func.attr in ("asarray", "array", "ascontiguousarray") and (
            isinstance(func.value, ast.Name) and func.value.id == "np"
        ):
            dtypes = node.args[1:2]
        else:
            continue
        dtypes += [k.value for k in node.keywords if k.arg == "dtype"]
        yield from ((node.lineno, ast.unparse(d)) for d in dtypes if _is_float64(d))


def test_float64_casts_only_in_linalg():
    # every other module admits arrays through linalg._as_float64; io's
    # little-endian "<f8" is the TNSR file's byte order, not an admission
    found = []
    for name in MODULES:
        if name == "linalg":
            continue
        with open(os.path.join(tenkit.__path__[0], f"{name}.py"), encoding="utf-8") as fh:
            casts = _float64_casts(fh.read())
            found += [f"{name}.py:{line} {dtype}" for line, dtype in casts if (name, dtype) != ("io", "'<f8'")]
    assert found == []
    assert list(_float64_casts("np.asarray(x, dtype=np.float64); y.astype(float)")) == [
        (1, "np.float64"), (1, "float"),
    ]


def _clip_calls(source):
    """Line of every ``np.clip`` or ``numpy.clip`` call."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr == "clip" and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy"):
                yield node.lineno


def test_clip_only_in_linalg():
    # linalg.soft_threshold is x - clip(x, -tau, tau); an inline copy of it
    # elsewhere would be a second implementation
    found = []
    for name in MODULES:
        if name == "linalg":
            continue
        with open(os.path.join(tenkit.__path__[0], f"{name}.py"), encoding="utf-8") as fh:
            found += [f"{name}.py:{line}" for line in _clip_calls(fh.read())]
    assert found == []
    assert list(_clip_calls("y = np.clip(x, -1, 1)\nnp.clip(x, 0, None, out=x)")) == [1, 2]


def _max_iters_loops(source):
    """(line, innermost enclosing function) of every ``for`` or ``while``
    header, comprehensions included, that mentions ``max_iters``."""

    def mentions(header):
        return any(
            isinstance(n, ast.Name) and n.id == "max_iters"
            or isinstance(n, ast.Attribute) and n.attr == "max_iters"
            for h in header
            for n in ast.walk(h)
        )

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.While):
                header = [child.test]
            elif isinstance(child, (ast.For, ast.AsyncFor, ast.comprehension)):
                header = [child.target, child.iter]
            else:
                header = []
            if mentions(header):
                yield getattr(child, "lineno", None) or node.lineno, func
            yield from visit(child, func)

    return list(visit(ast.parse(source), None))


def test_max_iters_loops_only_in_iterate():
    # decomp._iterate counts the iterations, applies the cap and decides
    # converged for every iterative solver; another loop over max_iters
    # would be a second copy of that policy
    found = []
    for name in MODULES:
        with open(os.path.join(tenkit.__path__[0], f"{name}.py"), encoding="utf-8") as fh:
            found += [(name, func) for _, func in _max_iters_loops(fh.read())]
    assert ("decomp", "_iterate") in found
    assert [f for f in found if f != ("decomp", "_iterate")] == []
    source = (
        "def f(opts):\n"
        "    for i in range(1, opts.max_iters + 1): pass\n"
        "    while k < max_iters: pass\n"
        "    return [g(i) for i in range(max_iters)]\n"
        "for x in y: pass\n"
    )
    assert _max_iters_loops(source) == [(2, "f"), (3, "f"), (4, "f")]
