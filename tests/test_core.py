import ast
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import reference
from reference import finite_diff_grad, relative_error

import tlonbof
from tlonbof import config, glorot_uniform
from tlonbof.errors import NumericError


# the package seeds every stream as Generator(PCG64(seed)) and derives
# independent children with spawn
def test_rng_reproducible():
    a = np.random.Generator(np.random.PCG64(42)).normal(size=10)
    b = np.random.Generator(np.random.PCG64(42)).normal(size=10)
    assert np.array_equal(a, b)


def test_rng_split_streams_differ_and_are_stable():
    r1, r2 = np.random.Generator(np.random.PCG64(7)).spawn(2)
    a, b = r1.normal(size=5), r2.normal(size=5)
    assert not np.array_equal(a, b)
    r1b, r2b = np.random.Generator(np.random.PCG64(7)).spawn(2)
    assert np.array_equal(a, r1b.normal(size=5))
    assert np.array_equal(b, r2b.normal(size=5))


def test_rng_split_independent_of_consumption_order():
    # drawing from one child must not disturb the other
    r1, r2 = np.random.Generator(np.random.PCG64(3)).spawn(2)
    r1.normal(size=100)
    fresh = np.random.Generator(np.random.PCG64(3)).spawn(2)[1]
    assert np.array_equal(r2.normal(size=5), fresh.normal(size=5))


def test_glorot_bound_and_coverage():
    w = glorot_uniform((200, 300), fan_in=200, fan_out=300, rng=np.random.default_rng(0))
    bound = np.sqrt(6.0 / 500.0)
    assert np.all(np.abs(w) <= bound)
    # fills a decent part of the interval, not collapsed near zero
    assert np.max(w) > 0.8 * bound and np.min(w) < -0.8 * bound


def test_init_params_allocates_each_weight_once():
    # rng.uniform already returns float64: a copy of each weight would peak at 1.6x
    cfg = tlonbof.ModelConfig()  # the paper geometry
    tlonbof.init_params(cfg, np.random.default_rng(0))
    tracemalloc.start()
    try:
        params = tlonbof.init_params(cfg, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * sum(v.nbytes for v in params.values())


def test_glorot_rejects_bad_fans():
    with pytest.raises(ValueError):
        glorot_uniform((2, 2), fan_in=0, fan_out=2, rng=np.random.default_rng(0))


def test_finite_diff_on_quadratic():
    # f(x) = x^T A x has exact gradient (A + A^T) x
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4))
    x = rng.normal(size=4)
    fd = finite_diff_grad(lambda v: float(v @ a @ v), x.copy())
    assert relative_error(fd, (a + a.T) @ x) < 1e-8


def test_finite_diff_restores_input():
    x = np.array([1.0, 2.0, 3.0])
    finite_diff_grad(lambda v: float(np.sum(v**2)), x)
    assert np.array_equal(x, [1.0, 2.0, 3.0])


def test_finite_diff_rejects_nonfinite():
    with pytest.raises(NumericError):
        finite_diff_grad(lambda v: float("nan"), np.ones(2))


def test_relative_error_floor():
    assert relative_error(np.zeros(3), np.zeros(3)) == 0.0
    assert relative_error(np.ones(3), np.ones(3)) == 0.0


# the only package modules the oracles may import: data types, constants, exceptions
ORACLE_ALLOWED = {"tlonbof.data", "tlonbof.errors"}
MOVED_TO_REFERENCE = ("finite_diff_grad", "gaussian_kernel", "label_sample", "logistic_kernel",
                      "relative_error", "windowize")


def test_reference_imports_nothing_it_checks():
    tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported.add(node.module)  # ``from tlonbof import network`` is "tlonbof"
    assert imported, "no imports found"
    for name in imported:
        top = name.split(".")[0]
        assert top in sys.stdlib_module_names or top == "numpy" or name in ORACLE_ALLOWED, name


def test_public_names_resolve():
    assert len(tlonbof.__all__) == len(set(tlonbof.__all__)) == 34
    for name in tlonbof.__all__:
        assert getattr(tlonbof, name) is not None, name
    for name in MOVED_TO_REFERENCE:
        assert name not in tlonbof.__all__ and callable(getattr(reference, name))


def _docstrings(tree) -> set[int]:
    """ids of the docstring nodes of a module and of its classes and functions."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, owners) and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def test_each_choice_is_spelled_once():
    # config.py's choice tuples spell every choice value; the other modules import the names
    values = {v for choices in config.CHOICES.values() for v in choices}
    spelled, strays = [], []
    for path in sorted(Path(tlonbof.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owned = _docstrings(tree)
        for node in ast.walk(tree):
            if (path.name == "config.py" and isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", "").endswith("_CHOICES")):
                owned.update(id(elt) for elt in node.value.elts)
                spelled += [elt.value for elt in node.value.elts]
            elif isinstance(node, ast.keyword) and node.arg == "prog":  # argparse's program name
                owned.add(id(node.value))
        strays += [f"{path.name}:{node.lineno} {node.value!r}" for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and node.value in values
                   and id(node) not in owned]
    assert sorted(spelled) == sorted(values)  # each value once
    assert strays == []
