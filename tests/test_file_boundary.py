"""Only `beatnote.io` opens files.

`io` owns the file boundary: its private reader and writer turn a
filesystem failure into a TraceIOError and a non-ASCII byte into a
ParseError.  A module that opened a file itself would skip both, so this
check, built on the standard library's `ast`, finds every call of `open`
(the builtin, or an `.open` method such as `os.open` or `Path.open`) and of
pathlib's whole-file helpers outside `io.py`.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "beatnote"

FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def file_calls(source, filename="<module>"):
    """(line, name) of each call in `source` that opens a file."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name in FILE_CALLS:
            found.append((node.lineno, name))
    return sorted(found)


def test_check_finds_every_spelling():
    source = ("import io, os, pathlib\n"
              "def f(path):\n"
              "    with open(path) as fh:\n"
              "        fh.read()\n"
              "    io.open(path)\n"
              "    os.open(path, os.O_RDONLY)\n"
              "    return pathlib.Path(path).read_text()\n")
    assert file_calls(source) == [(3, "open"), (5, "open"), (6, "open"),
                                  (7, "read_text")]


def test_check_passes_reads_of_an_open_file():
    source = ("from .io import _read_text\n"
              "def f(fh, path):\n"
              "    opened = fh.read() + _read_text(path, 'trace')\n"
              "    return opened.split()\n")
    assert file_calls(source) == []


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "io.py"),
                         ids=lambda p: p.name)
def test_module_opens_no_file(path):
    assert file_calls(path.read_text(), str(path)) == []
