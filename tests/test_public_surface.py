"""Every public name of the package has a caller outside the tests."""

import ast
import pathlib

import beatnote

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLERS = ("src/beatnote/*.py", "demos/*.py", "perfbench/*.py")

# Public only so that tests can check the package against them.
ORACLES = {
    "rabi_probability": "closed-form Rabi line, the ion scans' noiseless mean",
    "expected_excitation": "exact ion shot mean the Monte-Carlo scans are held to",
    "voigt_grid": "the grid criterion 4 compares the Voigt width solvers on",
}


def _defined(node):
    """Names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    return set()


def _references(path):
    """Names a file reads, imports or reaches as attributes, leaving out
    what each top-level definition says of its own name."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module.split(".")[-1])
        found |= names - _defined(top)
    return found


def test_every_public_name_has_a_caller():
    files = [p for pattern in CALLERS for p in ROOT.glob(pattern)
             if p.name != "__init__.py"]
    used = set().union(*map(_references, files))
    assert set(ORACLES) <= set(beatnote.__all__)
    assert sorted(set(beatnote.__all__) - used - set(ORACLES)) == []
