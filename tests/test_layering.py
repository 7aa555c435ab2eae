"""Import layering of the package: a module uses only the public names of
its sibling modules; tests may still reach private names."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "parityflux"


def _private_imports(source):
    """(module, name) of every underscore-prefixed, non-dunder name that
    ``source`` imports from the package or one of its modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "parityflux":
            continue
        found += [(module, alias.name) for alias in node.names
                  if alias.name.startswith("_")
                  and not alias.name.endswith("__")]
    return found


def test_layering_check_sees_private_imports():
    assert _private_imports("from .rates import PhotonDrive, _bare_film\n"
                            "from . import __version__\n"
                            "from parityflux.fitting import _FIT_RTOL\n"
                            "from numpy import _pytesttester\n") == [
        ("rates", "_bare_film"), ("parityflux.fitting", "_FIT_RTOL")]


def test_no_module_imports_a_private_sibling_name():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) >= 10
    offenders = {path.name: _private_imports(path.read_text())
                 for path in paths}
    assert {k: v for k, v in offenders.items() if v} == {}
