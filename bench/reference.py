"""Stdlib-only reference checks for kbonacci CLI output.

Nothing here imports kbonacci: the triangles are rebuilt by their defining
recursion and polynomials are handled as ascending coefficient lists, so a
bug in the program cannot hide behind the same bug in the checker.

check(argv, code, output) returns None when the exit code and the output
are right for the request, and otherwise a one-line reason.
"""

from __future__ import annotations

import json
import re

# --- arithmetic --------------------------------------------------------------


def coeff_triangle(n: int) -> list[list[int]]:
    """Rows 0..n of C: C[0][0] = -1, column 0 fixed at -1,
    C[i][j] = 2*C[i-1][j] - C[i-1][j-1], zero right of the diagonal."""
    rows = [[-1]]
    for i in range(1, n + 1):
        prev = rows[-1] + [0]
        rows.append([-1] + [2 * prev[j] - prev[j - 1] for j in range(1, i + 1)])
    return rows


def diff_triangle(n: int) -> list[list[int]]:
    """Rows 0..n of D[i][j] = C[i][j] - C[i-1][j], row 0 being [0]."""
    c = coeff_triangle(n)
    return [[0]] + [
        [v - (c[i - 1][j] if j < i else 0) for j, v in enumerate(c[i])]
        for i in range(1, n + 1)
    ]


def _trim(p: list[int]) -> list[int]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def poly_rem_monic(num: list[int], den: list[int]) -> list[int]:
    """Remainder of num by a monic den (ascending coefficients)."""
    num, d = list(num), len(den) - 1
    for shift in range(len(num) - 1 - d, -1, -1):
        head = num[shift + d]
        if head:
            for i, c in enumerate(den):
                num[shift + i] -= head * c
    return _trim(num)


def compose_power(p: list[int], s: int) -> list[int]:
    """p(X**s)."""
    out = [0] * ((len(p) - 1) * s + 1)
    for i, c in enumerate(p):
        out[i * s] = c
    return out


def stride_poly(k: int) -> list[int]:
    """Ascending coefficients of X**k - sum_i C[k][i] X**(k-i)."""
    row = coeff_triangle(k)[k]
    return [-row[k - i] for i in range(k)] + [1]


# --- requests ----------------------------------------------------------------


def parse_argv(argv: list[str]) -> tuple[str, list[str], dict[str, str]]:
    """(command, positionals, options); a flag without a value maps to ''."""
    command, rest = argv[0], argv[1:]
    positionals, options = [], {}
    i = 0
    while i < len(rest):
        token = rest[i]
        if not token.startswith("--"):
            positionals.append(token)
        elif "=" in token:
            key, _, value = token[2:].partition("=")
            options[key] = value
        elif i + 1 < len(rest) and not rest[i + 1].startswith("--"):
            options[token[2:]] = rest[i + 1]
            i += 1
        else:
            options[token[2:]] = ""
        i += 1
    return command, positionals, options


class Mismatch(Exception):
    """The output disagrees with the reference."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _check_prove(opts: dict[str, str], output: str) -> None:
    k = int(opts["k"])
    doc = json.loads(output)
    stride = stride_poly(k)
    base = [-1] * k + [1]
    _expect(doc["k"] == k, "order")
    _expect(doc["base_ascending"] == base, "base polynomial")
    _expect(doc["stride_ascending"] == stride, "stride polynomial differs from row k")
    target = [-c for c in compose_power(stride, k)]
    product = poly_mul([-c for c in base], doc["quotient_ascending"])
    _expect(product == target, "(-base)*quotient differs from -stride(X^k)")
    _expect(doc["remainder_ascending"] == [], "nonzero remainder")
    _expect(
        doc["division_matches"] and doc["product_matches"] and doc["matrix_verified"],
        "a certificate flag is false",
    )
    _expect(all(c["failed"] == 0 for c in doc["cases"].values()), "a case failed")
    _expect(
        sum(c["passed"] for c in doc["cases"].values()) == k * k + 1, "columns checked"
    )
    _expect(doc["verdict"] == "PASS", "verdict")
    _expect(("matrix" in doc) == ("show-matrix" in opts), "matrix presence")
    if "matrix" in doc:
        matrix = doc["matrix"]
        rows = matrix["rows"]
        _expect(len(rows) == k + 1, "matrix row count")
        _expect(all(len(r) == k * k + 1 for r in rows), "matrix width")
        sums = [sum(col) for col in zip(*rows)]
        _expect(matrix["column_sums"] == sums, "column sums differ from the rows")
        _expect(sums == target + [0] * (len(sums) - len(target)), "column sums")


_SWEEP_ROW = re.compile(r"^\| (\d+) \| (\w+) \| (\w+) \| (\w+) \| (\w+) \|$")


def _check_sweep(opts: dict[str, str], output: str) -> None:
    lines = output.splitlines()
    rows = [m.groups() for m in map(_SWEEP_ROW.match, lines) if m]
    orders = [int(r[0]) for r in rows]
    wanted = list(range(int(opts["k-min"]), int(opts["k-max"]) + 1))
    _expect(orders == wanted, "orders listed differ from the requested range")
    _expect(all(flag == "PASS" for r in rows for flag in r[1:]), "a flag is not PASS")
    _expect(lines[-1] == "verdict: PASS", "verdict")


def _check_decimate(opts: dict[str, str], output: str) -> None:
    p = list(reversed([int(c) for c in opts["charpoly"].split(",")]))
    s = int(opts["stride"])
    doc = json.loads(output)
    q = doc["decimated_ascending"]
    _expect(doc["stride"] == s, "stride")
    _expect(doc["input_ascending"] == _trim(p), "input polynomial")
    _expect(q[-1] == 1, "decimated polynomial is not monic")
    _expect(len(q) == len(p), "decimated degree differs from the input degree")
    _expect(poly_rem_monic(compose_power(q, s), p) == [], "p does not divide q(X^s)")
    n = len(q) - 1
    _expect(doc["recurrence"] == [-q[n - i] for i in range(1, n + 1)], "recurrence")


def _check_verify(opts: dict[str, str], output: str) -> None:
    k, lo, hi = int(opts["k"]), int(opts["n-from"]), int(opts["n-to"])
    doc = json.loads(output)
    _expect(doc["k"] == k and doc["stride"] == k, "order")
    _expect(doc["seed"] == int(opts["seed"]), "seed")
    _expect((doc["n_from"], doc["n_to"]) == (lo, hi), "window")
    _expect(doc["coefficients"] == coeff_triangle(k)[k][1:], "identity coefficients")
    _expect(doc["checked"] == hi - lo + 1, "checked differs from the window width")
    residues = {
        str(r): {"checked": (hi - r) // k - (lo - 1 - r) // k, "failed": 0}
        for r in range(k)
    }
    _expect(doc["residues"] == residues, "residue tallies")
    _expect(doc["failures"] == [], "failures reported")
    _expect(doc["verdict"] == "PASS", "verdict")


def _check_triangle(kind: str, opts: dict[str, str], output: str) -> None:
    n = int(opts["rows"])
    want = coeff_triangle(n) if kind == "p" else diff_triangle(n)
    fmt = opts.get("format", "markdown")
    if fmt == "json":
        got = json.loads(output)
    elif fmt == "tsv":
        got = [[int(v) for v in line.split("\t")] for line in output.splitlines()]
    else:
        lines = output.splitlines()
        header = [c.strip() for c in lines[0].strip("|").split("|")]
        _expect(header == ["row/col"] + [str(j) for j in range(n + 1)], "header")
        cells = [[c.strip() for c in line.strip("|").split("|")] for line in lines[2:]]
        _expect([c[0] for c in cells] == [str(i) for i in range(n + 1)], "row labels")
        got = [[int(v) for v in c[1:]] for c in cells]
        want = [row + [0] * (n + 1 - len(row)) for row in want]
    _expect(got == want, "triangle rows differ from the recursion")


def check(argv: list[str], code: int, output: str) -> str | None:
    """None if the request's exit code and output are right, else why not."""
    if code != 0:
        return f"exit code {code}"
    command, positionals, opts = parse_argv(argv)
    try:
        if command == "prove":
            _check_prove(opts, output)
        elif command == "sweep":
            _check_sweep(opts, output)
        elif command == "decimate":
            _check_decimate(opts, output)
        elif command == "verify":
            _check_verify(opts, output)
        elif command == "triangle":
            _check_triangle(positionals[0], opts, output)
        else:
            return f"no reference for command {command!r}"
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc!r}"
    return None


def corrupt(output: str) -> str:
    """The output with its last integer increased by one."""
    matches = list(re.finditer(r"-?\d+", output))
    _expect(bool(matches), "output holds no integer to corrupt")
    m = matches[-1]
    return output[: m.start()] + str(int(m.group()) + 1) + output[m.end() :]
