"""Command-line front end: triangles, certificates, numeric checks, decimation.

Subcommands: triangle, prove, verify, decimate, sweep.  Every command
takes --format {tsv|markdown|json} (default markdown).  Markdown mirrors
the human-readable tables (triangles padded with zeros to a rectangle,
matrix cells blank where structurally zero); tsv emits bare data rows;
json emits stable, sorted-key documents with polynomials as ascending
coefficient arrays.  Their text comes from jsontext.dumps, a small writer
that gives the bytes of json.dumps(obj, indent=2, sort_keys=True), so a
request does not import json.  A document is dicts with str keys, lists,
ints, bools, None and strings of printable ASCII with no quote or
backslash; dumps raises ValueError for a string that would need an escape
and TypeError for any other type, and no command writes either.

Every table (triangle rows, the product matrix, the tsv fields and the
verdict tables) is written by one writer, _write_table: each line is one %
of a line format built once per table, from the text of its format that
_framing gives (the cell separator, what opens and closes a row, and the
JSON brackets, indented by jsontext.newline as dumps indents), so JSON rows
stream in the bytes jsontext.dumps gives them.

Exit codes: 0 when every requested check passed, 1 on a verification
failure, 2 on usage errors.

The command line is read from one table, _COMMANDS, which gives each
command's handler, positional argument and flags; the help text is made
from the same table.  A flag is given as `--flag value` or `--flag=value`,
spelled out in full (no abbreviations); a value may be a negative integer.
A repeated flag keeps its last value.  `-h`/`--help`, at the top level or
after a command, prints usage to stdout and exits 0.  Every usage error is
the single stderr line `kbonacci: error: <message>` and exit code 2.  The
CLI refuses a value that does not parse and two flags that contradict each
other (--n-from > --n-to, --k-min > --k-max); every bound on one value is
the refusal of the library function that uses it, printed as it is, e.g.
`kbonacci: error: stride must be >= 1, got 0`.
"""

from __future__ import annotations

import sys
from _collections_abc import Callable, Iterable, Sequence
from itertools import chain
from types import SimpleNamespace

from .decimation import decimated_charpoly, recurrence_coefficients
from .errors import BadStride, NegativeRow, NotMonic, OrderTooSmall
from .jsontext import dumps, newline
from .prover import Certificate, certify_divisibility, kstep_identity
from .sequences import check_identity, kbonacci, random_kbonacci
from .triangles import coeff_rows, diff_rows

FORMATS = ("tsv", "markdown", "json")


def _framing(fmt: str, depth: int = 0) -> tuple[str, str, str, str, str, str]:
    """The text of a table in fmt, standing at JSON nesting depth `depth`:
    what comes before the first row, what opens a row, the cell separator,
    what closes a row that another row follows, what closes the last row,
    and the cell of a markdown header's rule."""
    if fmt == "json":
        outer, row, cell = map(newline, (depth, depth + 1, depth + 2))
        return "[", row + "[" + cell, "," + cell, row + "],", row + "]" + outer + "]", ""
    if fmt == "tsv":
        return "", "", "\t", "\n", "\n", ""
    return "", "| ", " | ", " |\n", " |\n", "---"


def _headed(header: tuple, rows: Iterable[tuple]) -> Iterable[tuple]:
    """rows under a markdown header and its rule, all ordinary rows."""
    rule = (_framing("markdown")[5],) * len(header)
    return chain([header, rule], rows)


def _write_table(
    fmt: str, rows: Iterable[tuple], width: int, depth: int = 0, pad: str = ""
) -> None:
    """Write rows of cells in fmt, each row as soon as it is made; for json
    the bytes jsontext.dumps gives the list of rows standing at nesting depth
    `depth`.  Each line is one % of a line format of `width` cells, built
    once: a row of m cells takes the prefix with m cells, and each line
    begins by closing the row before it, with `pad` for each cell that row
    lacked, so no text is added after a %.  Cells are formatted by %s.  The
    rows must be nonempty tuples of at most `width` cells."""
    head, opener, sep, close, end, _ = _framing(fmt, depth)
    line = pad * width + close + opener + "%s" + (sep + "%s") * (width - 1)
    step, skip = len(sep) + 2, len(pad)
    stop = len(line) - step * width
    begin = skip * width + len(close)  # the first row closes no row
    write = sys.stdout.write
    write(head)
    cells = width
    for row in rows:
        cells = len(row)
        write(line[begin : stop + step * cells] % row)
        begin = skip * cells
    write(pad * (width - cells) + end)


def _poly_text(coeffs: Sequence[int]) -> str:
    """A polynomial's ascending coefficients in descending powers with
    explicit signs, e.g. 'X^4-3X^2+1'; the zero polynomial () is '0'."""
    parts: list[str] = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if e == 0:
            term = str(mag)
        else:
            term = "X" if e == 1 else f"X^{e}"
            if mag != 1:
                term = f"{mag}{term}"
        parts.append(sign + term)
    return "".join(parts) or "0"


def _identity_text(coefficients: list[int], stride: int) -> str:
    terms = " ".join(
        f"{'-' if c < 0 else '+'} {abs(c)}*F(n-{stride * i})"
        for i, c in enumerate(coefficients, start=1)
    )
    return "F(n) = " + terms.lstrip("+ ")


# --- triangle ---------------------------------------------------------------


def _cmd_triangle(args: SimpleNamespace) -> int:
    """Write rows 0..n of the p or q triangle as they are made, each by one
    % of the table writer.  In markdown the header and its rule are rows of
    the table, each row's index is its first cell, and the writer pads each
    row with zero cells to the n + 1 columns."""
    rows = coeff_rows(args.rows) if args.kind == "p" else diff_rows(args.rows)
    width = args.rows + 1
    if args.format != "markdown":
        _write_table(args.format, map(tuple, rows), width)
        if args.format == "json":
            sys.stdout.write("\n")
        return 0
    header = ("row/col", *range(width))
    indexed = ((i, *row) for i, row in enumerate(rows))
    zero = _framing("markdown")[2] + "0"
    _write_table("markdown", _headed(header, indexed), width + 1, pad=zero)
    return 0


# --- prove ------------------------------------------------------------------


def _row_labels(k: int) -> list[str]:
    """The product matrix's row labels: X^0 .. X^(k-1), then -X^k."""
    return [f"X^{r}" for r in range(k)] + [f"-X^{k}"]


def _write_matrix(fmt: str, cert: Certificate) -> None:
    """Write the product matrix of cert in fmt through the table writer: for
    json its rows of ints, standing at depth 2; for tsv and markdown the case
    row, the labelled rows (blank where zero) and the SUM row.

    Row r is r zero cells, the quotient's cells (negated in row k) and zero
    cells to the width k*k + 1.  The quotient's cells are joined by the
    writer's cell separator once, so each row reaches the writer as one cell
    of text, after its label in tsv and markdown.
    """
    zero = "0" if fmt == "json" else ""
    sep = _framing(fmt, depth=2)[2]
    k, quotient = cert.identity.k, cert.quotient
    n, width = len(quotient), k * k + 1
    signed = (quotient, tuple(-v for v in quotient))
    body, negated = (sep.join([str(v) if v else zero for v in q]) for q in signed)
    rows = (
        (zero + sep) * r + text + (sep + zero) * (width - r - n)
        for r, text in enumerate([body] * k + [negated])
    )
    if fmt == "json":
        _write_table("json", ((row,) for row in rows), 1, depth=2)
        return
    labelled = zip(_row_labels(k), rows)
    sums = ("SUM", *cert.column_sums)
    cases = ("case", *cert.column_cases)
    if fmt == "tsv":
        table = chain([cases], labelled, [sums])
    else:
        columns = ("col", *(f"X^{c}" for c in range(width)))
        table = _headed(cases, chain([columns], labelled, [sums]))
    _write_table(fmt, table, width + 1)


def _certificate_fields(
    cert: Certificate, cases: dict[str, dict[str, int]]
) -> list[tuple[str, object]]:
    tallies = ", ".join(
        f"{label} {c['passed']}/{c['passed'] + c['failed']}" for label, c in cases.items()
    )
    identity = cert.identity
    # charpoly(X**stride): the coefficient of X**i moves to X**(stride*i)
    composed = [0] * ((len(identity.charpoly) - 1) * identity.stride + 1)
    composed[:: identity.stride] = identity.charpoly
    verdict = "PASS" if cert.ok else "FAIL"
    return [
        ("order", identity.k),
        ("recurrence polynomial", _poly_text(identity.base)),
        ("subsequence polynomial", _poly_text(identity.charpoly)),
        ("identity polynomial", _poly_text(composed)),
        ("explicit quotient", _poly_text(cert.quotient)),
        ("division remainder", _poly_text(cert.remainder)),
        ("division quotient matches", "yes" if cert.division_matches else "NO"),
        ("re-multiplication matches", "yes" if cert.product_matches else "NO"),
        ("matrix column sums verified", "yes" if cert.matrix_verified else "NO"),
        ("case checks (passed/total)", tallies),
        ("certified identity", _identity_text(identity.coefficients, identity.stride)),
        ("verdict", verdict),
    ]


def _cmd_prove(args: SimpleNamespace) -> int:
    cert = certify_divisibility(args.k)
    cases = {
        label: {
            "passed": cert.column_cases.count(label) - len(failed),
            "failed": len(failed),
        }
        for label, failed in cert.failed_columns.items()
    }
    write = sys.stdout.write
    if args.format == "json":
        doc = {
            "k": args.k,
            "base_ascending": list(cert.identity.base),
            "stride_ascending": list(cert.identity.charpoly),
            "quotient_ascending": list(cert.quotient),
            "remainder_ascending": list(cert.remainder),
            "division_matches": cert.division_matches,
            "product_matches": cert.product_matches,
            "matrix_verified": cert.matrix_verified,
            "cases": cases,
            "verdict": "PASS" if cert.ok else "FAIL",
        }
        if not args.show_matrix:
            print(dumps(doc))
        else:
            doc["matrix"] = {
                "k": args.k,
                "case_row": list(cert.column_cases),
                "row_labels": _row_labels(args.k),
                "rows": [],
                "column_sums": list(cert.column_sums),
            }
            # the rows, made one at a time, go where the empty list stands
            head, _, tail = dumps(doc).partition('"rows": []')
            write(head + '"rows": ')
            _write_matrix("json", cert)
            write(tail + "\n")
    elif args.format == "tsv":
        _write_table("tsv", _certificate_fields(cert, cases), 2)
        if args.show_matrix:
            _write_matrix("tsv", cert)
    else:
        print(f"# Divisibility certificate, order {args.k}")
        print()
        for key, value in _certificate_fields(cert, cases):
            print(f"- {key}: {value}")
        if args.show_matrix:
            print()
            _write_matrix("markdown", cert)
    return 0 if cert.ok else 1


# --- verify -----------------------------------------------------------------


def _cmd_verify(args: SimpleNamespace) -> int:
    k = args.k
    if args.n_from > args.n_to:
        raise _UsageError("--n-from must not exceed --n-to")
    rec = kbonacci(k) if args.seed is None else random_kbonacci(k, args.seed)
    identity = kstep_identity(k)
    coefficients, stride = identity.coefficients, identity.stride
    report = check_identity(rec, coefficients, stride, args.n_from, args.n_to)
    tallies = report.residue_tallies(stride)
    verdict = "PASS" if report.ok else "FAIL"
    rows = ((r, c, f) for r, (c, f) in tallies.items())
    if args.format == "json":
        doc = {
            "k": k,
            "seed": args.seed,
            "initial": list(rec.initial),
            "coefficients": coefficients,
            "stride": stride,
            "n_from": args.n_from,
            "n_to": args.n_to,
            "checked": report.checked,
            "failures": [list(f) for f in report.failures],
            "holds_for_all_n": report.holds_for_all_n,
            "residues": {
                str(r): {"checked": c, "failed": f} for r, (c, f) in tallies.items()
            },
            "verdict": verdict,
        }
        print(dumps(doc))
    elif args.format == "tsv":
        total = ("total", report.checked, len(report.failures))
        _write_table("tsv", chain(rows, [total, ("verdict", verdict, "")]), 3)
    else:
        seeds = ", ".join(str(v) for v in rec.initial)
        source = (
            f"{k}-step sequence, seeds {seeds}"
            if args.seed is None
            else f"{k}-step sequence, random seeds from seed {args.seed}: {seeds}"
        )
        print(f"# Identity check, order {k}")
        print()
        print(f"- sequence: {source}")
        print(f"- identity: {_identity_text(coefficients, stride)}")
        print(f"- range: n in [{args.n_from}, {args.n_to}], {report.checked} indices")
        print()
        header = (f"residue mod {stride}", "checked", "failed")
        _write_table("markdown", _headed(header, rows), 3)
        print()
        if report.first_counterexample is not None:
            n, actual, predicted = report.first_counterexample
            print(f"- first counterexample: n={n}, value {actual}, identity gives {predicted}")
        print(f"verdict: {verdict}")
    return 0 if report.ok else 1


# --- decimate ---------------------------------------------------------------


def _parse_charpoly(text: str) -> tuple[int, ...]:
    """The value of --charpoly, comma-separated descending coefficients, as
    ascending ones; decimated_charpoly refuses one not monic of degree >= 1."""
    try:
        descending = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"--charpoly must be comma-separated integers: {exc}")
    return tuple(reversed(descending))


def _cmd_decimate(args: SimpleNamespace) -> int:
    poly = args.charpoly
    decimated = decimated_charpoly(poly, args.stride)
    coefficients = recurrence_coefficients(decimated)
    if args.format == "json":
        doc = {
            "stride": args.stride,
            "input_ascending": list(poly),
            "decimated_ascending": list(decimated),
            "recurrence": coefficients,
        }
        print(dumps(doc))
    elif args.format == "tsv":
        recurrence = ",".join(map(str, coefficients))
        rows = [("decimated", _poly_text(decimated)), ("recurrence", recurrence)]
        _write_table("tsv", rows, 2)
    else:
        print(f"- input: {_poly_text(poly)} (stride {args.stride})")
        print(f"- decimated characteristic polynomial: {_poly_text(decimated)}")
        print(
            "- recurrence coefficients: "
            + ", ".join(str(c) for c in coefficients)
        )
    return 0


# --- sweep ------------------------------------------------------------------


def _sweep_row(k: int) -> dict:
    cert = certify_divisibility(k)
    identity, stride = cert.identity, cert.identity.stride
    oracle_ok = decimated_charpoly(identity.base, stride) == identity.charpoly
    # zero residuals at the seeds make a pass hold for every n (holds_for_all_n)
    numeric = check_identity(kbonacci(k), identity.coefficients, stride, -20, 60)
    return {
        "k": k,
        "divisibility": cert.division_matches and cert.product_matches,
        "cases": cert.matrix_verified,
        "oracle": oracle_ok,
        "numeric": numeric.ok,
    }


def _cmd_sweep(args: SimpleNamespace) -> int:
    if args.k_min > args.k_max:
        raise _UsageError("--k-min must not exceed --k-max")
    results = [_sweep_row(k) for k in range(args.k_min, args.k_max + 1)]
    columns = ("divisibility", "cases", "oracle", "numeric")
    all_ok = all(row[c] for row in results for c in columns)
    verdict = "PASS" if all_ok else "FAIL"
    rows = (
        (row["k"], *("PASS" if row[c] else "FAIL" for c in columns)) for row in results
    )
    if args.format == "json":
        print(dumps({"results": results, "verdict": verdict}))
    elif args.format == "tsv":
        _write_table("tsv", chain(rows, [("verdict", verdict, "", "", "")]), 5)
    else:
        _write_table("markdown", _headed(("k", *columns), rows), 5)
        print()
        print(f"verdict: {verdict}")
    return 0 if all_ok else 1


# --- command table ----------------------------------------------------------


class _UsageError(Exception):
    """Bad command line, found by the parser or a handler (exit code 2)."""


_REQUIRED = object()  # default of a flag that must be given
_HELP = ("-h", "--help")
_FORMAT = {"--format": (FORMATS, "markdown", "output format (default: markdown)")}

# name: (handler, help, positional, flags).  The positional is None or
# (attribute, choices).  Each flag maps to (type, default, help), where type
# is int, bool (a switch, which takes no value), a tuple of choices, or a
# function that reads the text and raises _UsageError on bad input; every
# value is read here, before the handler lifts the int-to-str digit limit.
# The handler reads flag --n-from as args.n_from.
_COMMANDS = {
    "triangle": (
        _cmd_triangle,
        "print rows of the coefficient (p) or difference (q) triangle",
        ("kind", ("p", "q")),
        {"--rows": (int, _REQUIRED, "last row to print"), **_FORMAT},
    ),
    "prove": (
        _cmd_prove,
        "certify the stride-k identity by exact polynomial division",
        None,
        {
            "--k": (int, _REQUIRED, "recurrence order, >= 2"),
            "--show-matrix": (
                bool,
                False,
                "also print the product matrix with case header and SUM row",
            ),
            **_FORMAT,
        },
    ),
    "verify": (
        _cmd_verify,
        "check the stride-k identity numerically over an index range",
        None,
        {
            "--k": (int, _REQUIRED, "recurrence order, >= 2"),
            "--n-from": (int, _REQUIRED, "first index checked"),
            "--n-to": (int, _REQUIRED, "last index checked"),
            "--seed": (
                int,
                None,
                "use random seed values drawn from this seed instead of 0,..,0,1",
            ),
            **_FORMAT,
        },
    ),
    "decimate": (
        _cmd_decimate,
        "characteristic polynomial of a stride-s subsequence",
        None,
        {
            "--charpoly": (
                _parse_charpoly,
                _REQUIRED,
                "comma-separated descending coefficients, leading 1 first",
            ),
            "--stride": (int, _REQUIRED, "stride s, >= 1"),
            **_FORMAT,
        },
    ),
    "sweep": (
        _cmd_sweep,
        "run certificate, oracle and numeric checks over a range of k",
        None,
        {
            "--k-min": (int, _REQUIRED, "first order, >= 2"),
            "--k-max": (int, _REQUIRED, "last order"),
            **_FORMAT,
        },
    ),
}


def _flag_text(flag: str, kind: object) -> str:
    if kind is bool:
        return flag
    if kind is int:
        return f"{flag} INT"
    return f"{flag} " + ("TEXT" if callable(kind) else "{" + ",".join(kind) + "}")


def _synopsis(name: str) -> str:
    """The command and its arguments, optional ones in brackets."""
    _, _, positional, flags = _COMMANDS[name]
    parts = [name] if positional is None else [name, "{" + ",".join(positional[1]) + "}"]
    for flag, (kind, default, _) in flags.items():
        text = _flag_text(flag, kind)
        parts.append(text if default is _REQUIRED else f"[{text}]")
    return " ".join(parts)


def _help(name: str | None) -> str:
    """Usage of one command with its flags, or of every command."""
    if name is None:
        lines = [
            "usage: kbonacci COMMAND [ARGUMENTS]",
            "",
            "Exact-arithmetic toolkit for the stride self-similarity identities",
            "of k-step Fibonacci sequences.",
            "",
            "commands:",
        ]
        for command, (_, text, _, _) in _COMMANDS.items():
            lines += [f"  {_synopsis(command)}", f"      {text}"]
        lines += [
            "",
            "Flags take '--flag value' or '--flag=value', spelled out in full.",
            "'kbonacci COMMAND --help' describes a command's flags.",
        ]
        return "\n".join(lines)
    _, text, _, flags = _COMMANDS[name]
    rows = [(_flag_text(flag, kind), about) for flag, (kind, _, about) in flags.items()]
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(left) for left, _ in rows)
    lines = [f"usage: kbonacci {_synopsis(name)}", "", text, ""]
    lines += [f"  {left.ljust(width)}  {right}" for left, right in rows]
    return "\n".join(lines)


def _value(flag: str, kind: object, text: str) -> object:
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise _UsageError(f"{flag}: invalid int value: {text!r}") from None
    if callable(kind):
        return kind(text)
    if text not in kind:
        choices = ", ".join(kind)
        raise _UsageError(f"{flag}: invalid choice: {text!r} (choose from {choices})")
    return text


def _parse(argv: Sequence[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace]:
    """The handler of argv's command and its arguments, read from _COMMANDS.

    Raises _UsageError on a bad command line, and SystemExit(0) once help
    is printed.  A flag given twice keeps its last value.
    """
    commands = ", ".join(_COMMANDS)
    if not argv:
        raise _UsageError(f"a command is required (choose from {commands})")
    name, *rest = argv
    if name in _HELP:
        print(_help(None))
        raise SystemExit(0)
    if name not in _COMMANDS:
        raise _UsageError(f"unknown command {name!r} (choose from {commands})")
    handler, _, positional, flags = _COMMANDS[name]
    given: dict[str, object] = {}
    words = []
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP:
            print(_help(name))
            raise SystemExit(0)
        if not token.startswith("-"):
            words.append(token)
            continue
        flag, equals, text = token.partition("=")
        if flag not in flags:
            raise _UsageError(f"unknown flag {flag!r} for {name}")
        kind = flags[flag][0]
        if kind is bool:
            if equals:
                raise _UsageError(f"{flag} takes no value")
            given[flag] = True
            continue
        if not equals:
            text = next(tokens, None)
            if text is None:
                raise _UsageError(f"{flag} needs a value")
        given[flag] = _value(flag, kind, text)
    args = SimpleNamespace()
    missing = []
    if positional is not None:
        attribute, choices = positional
        if words:
            setattr(args, attribute, _value(attribute, choices, words.pop(0)))
        else:
            missing.append(attribute)
    if words:
        raise _UsageError(f"unexpected argument {words[0]!r}")
    for flag, (_, default, _) in flags.items():
        if flag not in given and default is _REQUIRED:
            missing.append(flag)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    if missing:
        raise _UsageError("the following arguments are required: " + ", ".join(missing))
    return handler, args


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command (argv defaults to sys.argv[1:]); returns the exit code,
    0 when every check passed and 1 on a verification failure.  Help exits
    through SystemExit(0); a usage error writes the one stderr line
    "kbonacci: error: <message>" and exits through SystemExit(2).  Integers
    on the command line are read under Python's int-to-str digit limit; the
    handler runs with the limit lifted, so output of any size is written,
    and the caller's limit is restored when it returns."""
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        # argv was read under the caller's limit; exact output has none
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return handler(args)
        finally:
            sys.set_int_max_str_digits(limit)
    except (_UsageError, BadStride, NegativeRow, NotMonic, OrderTooSmall) as exc:
        sys.stderr.write(f"kbonacci: error: {exc}\n")
        raise SystemExit(2) from None
