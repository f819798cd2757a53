"""No module of the package reads a global name it never binds.

A stand-in for a linter's undefined-name check, built on the standard
library's `symtable`: a name that some scope of a module resolves as global
must be bound at module level (assigned, imported, a def or a class), be
assigned under a `global` statement, or be a builtin.
"""

import builtins
import pathlib
import symtable

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "beatnote"

# Names Python binds in every module namespace without a statement.
MODULE_NAMES = {"__file__", "__name__", "__doc__", "__spec__", "__loader__",
                "__package__", "__builtins__", "__path__", "__cached__"}


def _scopes(table):
    yield table
    for child in table.get_children():
        yield from _scopes(child)


def undefined_globals(source, filename="<module>"):
    """Sorted global names that `source` reads but never binds."""
    top = symtable.symtable(source, filename, "exec")
    # A def or class statement counts as an assignment of its name.
    bound = {s.get_name() for s in top.get_symbols()
             if s.is_assigned() or s.is_imported()}
    read = set()
    for scope in _scopes(top):
        for sym in scope.get_symbols():
            if scope is not top and not sym.is_global():
                continue
            if sym.is_assigned() and sym.is_declared_global():
                bound.add(sym.get_name())
            if sym.is_referenced():
                read.add(sym.get_name())
    return sorted(read - bound - set(dir(builtins)) - MODULE_NAMES)


def test_check_flags_a_missing_import():
    source = ("from .errors import ParseError\n"
              "def f(x):\n"
              "    if x:\n"
              "        raise DomainError(len(x))\n"
              "    raise ParseError('x')\n")
    assert undefined_globals(source) == ["DomainError"]


def test_check_accepts_what_a_module_binds():
    source = ("import math as m\n"
              "class C:\n"
              "    k = m.pi\n"
              "    def g(self):\n"
              "        global counter\n"
              "        counter = C.k + helper() + __name__.count('.')\n"
              "def helper():\n"
              "    return [v for v in range(3) if counter]\n")
    assert undefined_globals(source) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_no_undefined_global(path):
    assert undefined_globals(path.read_text(), str(path)) == []
