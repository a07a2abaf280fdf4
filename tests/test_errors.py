"""Every exception the library raises belongs to one of the two families."""

import ast
from pathlib import Path

import scatzip
from scatzip import errors

SRC = Path(scatzip.__file__).parent
FAMILY_CLASSES = {name for name, obj in vars(errors).items()
                  if isinstance(obj, type) and issubclass(obj, errors.ScatZipError)}


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


def test_two_families_and_one_caught_subclass():
    assert FAMILY_CLASSES == {"ScatZipError", "ValidationError", "NumericalBreakdownError", "NotPSDError"}
    assert issubclass(errors.NotPSDError, errors.ValidationError)
    assert not issubclass(errors.NumericalBreakdownError, errors.ValidationError)
