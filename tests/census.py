"""Reachability census: which definitions in src/carleson/ never run,
and which of their parameters only ever take their default.

    PYTHONPATH=src python tests/census.py [extra pytest arguments]

runs tests/test_acceptance.py and tests/test_golden.py in this process
under sys.setprofile (and threading.setprofile, for the worker pools),
records the code object of every Python call, then prints each `def` of
the package, in file order, whose code never started.  The same hook
compares, at each call, every parameter that has a default with that
default, and a second list names the parameters of module functions and
methods that never received another value.  Dataclass constructors are
left out (their fields are configuration keys or spec fields that
command-line flags set), and so are generator functions, whose resumed
frames no longer hold the arguments.  Extra arguments go to pytest, for
example

    --deselect tests/test_acceptance.py::test_criterion_04_approximation_sweep

The census records calls, not verdicts: a failing or timing-tripped test
neither stops the run nor changes the list, and the exit code is 0
either way (2 when pytest could not run the files at all).  pytest does
not collect this file: its name has no test_ prefix.
"""

import ast
import importlib
import inspect
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


def defaulted_parameters(path: Path) -> dict:
    """Code object -> (line, qualified name, {parameter: default}) for
    each function and method written in the file that has a parameter
    with a default; lru_cache wrappers are looked through."""
    module = importlib.import_module(f"{carleson.__name__}.{path.stem}")
    out = {}
    for obj in vars(module).values():
        for f in vars(obj).values() if inspect.isclass(obj) else (obj,):
            f = inspect.unwrap(getattr(f, "__func__", f))
            if (not inspect.isfunction(f)
                    or Path(f.__code__.co_filename).resolve() != path
                    or inspect.isgeneratorfunction(f)):
                continue
            defaults = {name: p.default
                        for name, p in inspect.signature(f).parameters.items()
                        if p.default is not p.empty}
            if defaults:
                out[f.__code__] = (f.__code__.co_firstlineno,
                                   f.__qualname__, defaults)
    return out


def _is_default(value, default) -> bool:
    """Defaults are scalars or None, so == is a plain comparison once
    the types match."""
    return value is default or (type(value) is type(default)
                                and value == default)


def main(extra: list[str]) -> int:
    seen = set()
    params = {}
    for path in sorted(PACKAGE.glob("*.py")):
        params.update(defaulted_parameters(path))
    moved = {code: set() for code in params}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add(code)
            if code in params:
                args = frame.f_locals
                for name, default in params[code][2].items():
                    if not _is_default(args[name], default):
                        moved[code].add(name)

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
    fixed = sorted(
        (Path(code.co_filename).name, line, f"{qualname}({name})")
        for code, (line, qualname, defaults) in params.items()
        for name in defaults if name not in moved[code]
    )
    count = sum(map(len, (d for _, _, d in params.values())))
    print(f"\n{len(fixed)} of {count} defaulted parameters only ever took "
          f"their default:")
    for file, line, label in fixed:
        print(f"  {file}:{line}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
