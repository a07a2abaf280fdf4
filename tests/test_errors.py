"""Every exception the library raises belongs to one of the two families."""

import ast
from pathlib import Path

import numpy as np
import pytest

import scatzip
from scatzip import ensembles, errors, measures, weyl

SRC = Path(scatzip.__file__).parent
FAMILY_CLASSES = {name for name, obj in vars(errors).items()
                  if isinstance(obj, type) and issubclass(obj, errors.ScatZipError)}
ROOTS = {"ScatZipError", "ValidationError", "NumericalBreakdownError"}


def _raised_name(exc: ast.expr):
    """The name a ``raise`` statement raises or calls, or None for any other expression."""
    if isinstance(exc, ast.Call):
        exc = exc.func
    return exc.id if isinstance(exc, ast.Name) else None


def test_every_raise_names_an_error_class():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        caught = {h.name for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler) and h.name}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue  # a bare raise re-raises
            name = _raised_name(node.exc)
            if isinstance(node.exc, ast.Name) and name in caught:
                continue  # re-raise of a caught exception
            if name not in FAMILY_CLASSES:
                offenders.append(f"{path.name}:{node.lineno} raises {ast.unparse(node.exc)}")
    assert not offenders, offenders


def _caught_names(tree) -> set:
    """The class names the ``except`` handlers of a module catch by type."""
    names = set()
    for h in ast.walk(tree):
        if isinstance(h, ast.ExceptHandler) and h.type is not None:
            for t in h.type.elts if isinstance(h.type, ast.Tuple) else [h.type]:
                names.add(t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", None))
    return names


def test_the_roots_are_the_base_and_its_two_families():
    base = errors.ScatZipError
    roots = {name for name in FAMILY_CLASSES
             if getattr(errors, name) is base or base in getattr(errors, name).__bases__}
    assert roots == ROOTS
    assert not issubclass(errors.NumericalBreakdownError, errors.ValidationError)


def test_every_other_error_class_is_caught_by_type():
    caught = set().union(*(_caught_names(ast.parse(path.read_text(), filename=str(path)))
                           for path in SRC.glob("*.py")))
    others = FAMILY_CLASSES - ROOTS
    assert others <= caught, sorted(others - caught)


POINT_ONLY = {
    "caratheodory": lambda z: measures.caratheodory(measures.uniform_grid_measure(1, 8), z),
    "limit_f": lambda z: weyl.limit_f(ensembles.semi_infinite_zipper(0, 1), z, 0.1),
    "e_matrix_closed": lambda z: weyl.e_matrix_closed(ensembles.finite_zipper(0, 1, 4), z),
    "log_radius_norm": lambda z: weyl.log_radius_norm(ensembles.finite_zipper(0, 1, 4), z, 4),
}


@pytest.mark.parametrize("entry", sorted(POINT_ONLY))
def test_point_only_entries_refuse_arrays_by_shape(entry):
    with pytest.raises(errors.ValidationError, match=r"one point, got an array of shape \(2,\)"):
        POINT_ONLY[entry](np.array([0.1, 0.2]))
