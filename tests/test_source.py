"""Checks on the library source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import kbonacci

SRC = Path(kbonacci.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so none may guard a verdict
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


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
    # python -S skips site, which on many hosts has already loaded typing
    # and json; annotations are strings and JSON is written by hand, so the
    # library needs neither
    added = modules_added_by_cli_request("-S")
    assert added & {"typing", "json"} == set()
