"""Reachability census: which definitions in src/carleson/ never run.

    PYTHONPATH=src python tests/census.py [extra pytest arguments]

runs tests/test_acceptance.py and tests/test_golden.py in this process
under sys.setprofile (and threading.setprofile, for the worker pools),
records the code object of every Python call, then prints each `def` of
the package, in file order, whose code never started.  Extra arguments
go to pytest, for example

    --deselect tests/test_acceptance.py::test_criterion_04_approximation_sweep

The census records calls, not verdicts: a failing or timing-tripped test
neither stops the run nor changes the list, and the exit code is 0
either way (2 when pytest could not run the files at all).  pytest does
not collect this file: its name has no test_ prefix.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

import carleson

TESTS = Path(__file__).resolve().parent
PACKAGE = Path(carleson.__file__).resolve().parent


def definitions(path: Path) -> dict[int, str]:
    """First line of each def's code object (its first decorator, if
    any) -> its qualified name, for every def in the file, nested ones
    included."""
    out = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [dec.lineno for dec in child.decorator_list])
                out[first] = prefix + child.name
                walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def main(extra: list[str]) -> int:
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            str(TESTS / "test_acceptance.py"),
                            str(TESTS / "test_golden.py"), *extra])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        print(f"census: pytest stopped with {code!r}; no list is printed")
        return 2
    ran = {(Path(co.co_filename).resolve(), co.co_firstlineno)
           for co in seen}
    total = 0
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        defs = definitions(path)
        total += len(defs)
        missing += [f"{path.name}:{line}  {name}"
                    for line, name in sorted(defs.items())
                    if (path, line) not in ran]
    print(f"\n{len(missing)} of {total} definitions in {PACKAGE} never ran:")
    for row in missing:
        print(f"  {row}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
