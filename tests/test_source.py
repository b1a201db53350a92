"""Checks on the library source itself."""

import ast
import contextlib
import importlib
import inspect
import io
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import kbonacci
from kbonacci.cli import FORMATS, main
from test_cli import GOLDEN_REQUESTS

SRC = Path(kbonacci.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements and sets __debug__ to False, so
    # neither may guard a verdict; with both absent, -O cannot change what
    # the package does, and one tier-1 run under -O covers every version
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert found == []


def test_polyref_imports_nothing_from_kbonacci():
    # the reference arithmetic must not share code with what it checks
    path = Path(__file__).with_name("polyref.py")
    imported = [
        (f"{path.name}:{node.lineno}", name)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom)
            else []
        )
    ]
    assert [(at, name) for at, name in imported if name.split(".")[0] == "kbonacci"] == []


def annotated_callables():
    """(qualified name, function) for every function and method defined in
    src/kbonacci, properties included.  Importing each module, __main__
    too, must not run the CLI."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"kbonacci.{path.stem}")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                yield f"{module.__name__}.{name}", value
            elif inspect.isclass(value):
                for attr, member in vars(value).items():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_every_annotation_resolves():
    # annotations are strings under `from __future__ import annotations`;
    # each name they use must be importable from its module
    checked, unresolved = 0, []
    for qualname, fn in annotated_callables():
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            unresolved.append(f"{qualname}: {exc}")
        checked += 1
    assert unresolved == []
    assert checked > 50


def modules_added_by_cli_request(*interpreter_flags: str) -> set[str]:
    """Modules that importing kbonacci.cli and running `prove --k 2` add to
    those the interpreter had loaded before kbonacci."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import kbonacci.cli\n"
        "kbonacci.cli.main(['prove', '--k', '2'])\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, *interpreter_flags, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.splitlines()[-1].split())
    assert "kbonacci.cli" in added
    return added


def test_cli_request_imports_no_slow_modules():
    # every CLI call is a fresh interpreter that pays for these imports; the
    # baseline is what the interpreter had loaded before kbonacci, so a host
    # whose site already imports one of them does not fail
    added = modules_added_by_cli_request()
    assert added & {"argparse", "gettext", "locale", "dataclasses", "inspect"} == set()


def test_cli_request_without_site_imports_no_typing_or_json():
    # python -S skips site, which on many hosts has already loaded typing,
    # json and collections; annotations are strings whose names come from
    # _collections_abc, and JSON is written by hand, so the library needs none
    added = modules_added_by_cli_request("-S")
    assert added & {"typing", "json", "collections"} == set()


# Defined in src/kbonacci but reached by no CLI request, each kept for the
# reason given
UNREACHED: dict[str, str] = {}


def test_cli_reaches_every_callable():
    # the library is what the CLI runs: every function and method is reached
    # by some request, or named above with the reason it stays
    requests = [argv + ["--format", fmt] for argv in GOLDEN_REQUESTS.values() for fmt in FORMATS]
    requests += [["triangle", kind, "--rows", "6"] for kind in ("p", "q")]
    requests += [["triangle", "p", "--rows", "6", "--format", fmt] for fmt in ("json", "tsv")]
    requests += [
        ["verify", "--k", "4", "--n-from", "50", "--n-to", "51"],  # fewer than k indices
        ["--help"],
        ["prove", "--help"],
        ["prove", "--k", "1"],
    ]
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(profile)
        try:
            for argv in requests:
                try:
                    main(argv)
                except SystemExit:
                    pass
        finally:
            sys.setprofile(None)
    unreached = {name for name, fn in annotated_callables() if fn.__code__ not in reached}
    assert sorted(unreached) == sorted(UNREACHED)


@pytest.mark.parametrize(
    "argv, code",
    [(["prove", "--k", "3"], 0), (["prove", "--k", "1"], 2), (["--help"], 0)],
)
def test_console_script_target(argv, code):
    # the [project.scripts] target, called as an installed console script
    # calls it: sys.exit(target()), with sys.argv[1:] the command line; and
    # __main__.py, run as python -O -m kbonacci in a fresh interpreter
    text = (SRC.parents[1] / "pyproject.toml").read_text()
    found = re.search(r'^\[project\.scripts\]\nkbonacci = "([\w.]+):(\w+)"$', text, re.M)
    assert found is not None
    module, name = found.groups()
    script = f"import sys\nfrom {module} import {name}\nsys.exit({name}())\n"
    for launcher in ([sys.executable, "-c", script], [sys.executable, "-O", "-m", "kbonacci"]):
        proc = subprocess.run(
            [*launcher, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        )
        assert proc.returncode == code, (launcher, proc.stderr)
        if code == 2:
            assert proc.stdout == ""
            assert proc.stderr.splitlines() == ["kbonacci: error: order 1 is below 2"]
        else:
            assert proc.stderr == ""
            assert proc.stdout.startswith("usage: kbonacci" if argv == ["--help"] else "# ")
