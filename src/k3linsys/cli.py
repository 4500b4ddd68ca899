"""Command-line front end: classify systems, run verifiers, batch files.

Commands: dim, classify, intersect, enumerate, verify, hunt, batch.  Each
builds records, which one output layer writes to stdout in text, JSON or
CSV: _writer renders a record dict (reports, intersect, enumerate, batch's
error records), _record_writer a classification record by a fast path of
its own.  Diagnostics go to stderr.  Exit codes: 0 success or verification
pass, 1 verification violation, 2 usage or parse error, 141 (128 + SIGPIPE)
stdout closed by the reader.  Classification records carry a fixed field
order (n, d, mults, v, e, dim, special, h1, h1_lower_bound, member_kind,
fixed_part, free_part, conjectural) in every format; h1 is null when only
the lower bound is known.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import MAX_INTEGER_DIGITS

RECORD_FIELDS = (
    "n",
    "d",
    "mults",
    "v",
    "e",
    "dim",
    "special",
    "h1",
    "h1_lower_bound",
    "member_kind",
    "fixed_part",
    "free_part",
    "conjectural",
)


# stdout is written in blocks of at least this many characters: a pipe
# write per record costs more than a record's classification.
BLOCK_CHARS = 1 << 16
# Batch files are read in pieces of this many characters: small pieces keep
# the reader's memory flat.
READ_CHARS = 1 << 13
# A batch line longer than this is an error record; the reader keeps at most
# this plus one piece of any line, however long the line is.
MAX_LINE_CHARS = 1 << 20
# _batch_lines' result when a line that is not UTF-8 ended the run.
_STOPPED = 3
# The characters str.splitlines() breaks lines at.
_LINE_BREAKS = frozenset("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")
# The characters the surrogateescape handler decodes bytes that are not
# UTF-8 to; UTF-8 text never decodes to them.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")

# The names this module takes from the package's modules; json and csv are
# bound under their own names.  They are bound into this module's globals
# when a command that runs them is dispatched (see _COMMANDS), not at
# import: without a bytecode cache a process compiles every module it
# imports, so `--help` loads no math module and each command only its own.
_LAZY = {
    "classify": ("decompose", "format_multiplicities"),
    "lattice": ("intersect",),
    "literals": ("LiteralSyntaxError", "parse_literal", "parse_spec"),
    "verify": (
        "class_record",
        "enumerate_v0_classes",
        "hunt_counterexamples",
        "verify_lemma_table",
        "verify_pair_inequality",
    ),
    "batch": ("run_parts",),
    "json": None,
    "csv": None,
}


def _bind(*modules: str) -> None:
    """Bind the names of `modules` (keys of _LAZY) into this module's
    globals, keeping any name already bound (as by monkeypatch.setattr)."""
    space = globals()
    for module in modules:
        names = _LAZY[module]
        if names is None:
            space.setdefault(module, __import__(module))
            continue
        source = __import__(module, space, None, names, 1)
        for name in names:
            space.setdefault(name, getattr(source, name))


def __getattr__(name: str):
    """Resolve a lazily bound name read from outside before its command ran."""
    for module, names in _LAZY.items():
        if name in (names or (module,)):
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Output:
    """Block-buffered stdout sink honoring --quiet; `main` flushes it last.

    stderr diagnostics always pass through, unbuffered.
    """

    def __init__(self, quiet: bool):
        self.quiet = quiet
        self._parts: list[str] = []
        self._size = 0

    def write(self, text: str) -> None:
        if self.quiet:
            return
        self._parts.append(text)
        self._size += len(text)
        if self._size >= BLOCK_CHARS:
            self.flush()

    def line(self, text: str = "") -> None:
        self.write(text + "\n")

    def flush(self) -> None:
        text = "".join(self._parts)
        self._parts.clear()
        self._size = 0
        if text:
            sys.stdout.write(text)

    @staticmethod
    def error(text: str) -> None:
        print(text, file=sys.stderr)


def record_values(dec: Decomposition) -> tuple:
    """The values of dec's record, in RECORD_FIELDS order.

    mults is the spec's tuple and fixed_part a list of "mult*literal"
    strings; special, h1 and free_part are None when absent.  Enum members are read
    through _value_ and _name_, not the value/name descriptors.
    """
    spec, v, family, fixed, free = dec.spec, dec.v, dec.special, dec.fixed_part, dec.free_part
    return (
        spec.surface.n,
        spec.d,
        spec.mults,
        v,
        max(v, -1),
        dec.dimension,
        family._value_ if family else None,
        dec.h1,
        dec.h1_lower_bound,
        dec.member_kind._name_,
        [f"{mult}*{comp.literal()}" for mult, comp in fixed] if fixed else [],
        free.literal() if free else None,
        dec.conjectural,
    )


def json_record(dec: Decomposition) -> str:
    """json.dumps of dec's record dict (RECORD_FIELDS order, mults a list), by one template.

    Every string in a record is a canonical literal, a family value or a
    member-kind name, none with a character JSON escapes, so quoting it
    is its JSON form.  The spec's fields are ints, as the parser builds them,
    so str() of the list of multiplicities is its JSON form.
    """
    n, d, mults, v, e, dim, special, h1, lower, kind, fixed, free, conjectural = record_values(dec)
    special = f'"{special}"' if special else "null"
    fixed = '"' + '", "'.join(fixed) + '"' if fixed else ""
    free = f'"{free}"' if free else "null"
    return (
        f'{{"n": {n}, "d": {d}, "mults": {list(mults)}, "v": {v}, "e": {e}, "dim": {dim}, '
        f'"special": {special}, "h1": {"null" if h1 is None else h1}, "h1_lower_bound": {lower}, '
        f'"member_kind": "{kind}", "fixed_part": [{fixed}], "free_part": {free}, '
        f'"conjectural": {"true" if conjectural else "false"}}}'
    )


def _csv_cell(key: str, value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if key == "mults":
        return format_multiplicities(tuple(value))
    if key == "fixed_part":
        return "+".join(value)
    return str(value)


def _writer(fmt: str, out: _Output, fields, text, header: bool = True):
    """write(record) for a record dict: json.dumps(record) on one line in
    json; in csv a row of its `fields` (blank where it has none), after a
    header row of them if `header`; text(record) in text."""
    if fmt == "json":
        return lambda record: out.line(json.dumps(record))
    if fmt == "csv":
        rows = csv.writer(out, lineterminator="\n")
        if header:
            rows.writerow(fields)
        return lambda record: rows.writerow([_csv_cell(key, record.get(key)) for key in fields])
    return lambda record: out.line(text(record))


def _h1_text(h1: int | None, lower: int) -> str:
    return f"h1 >= {lower}" if h1 is None else f"h1 = {h1}"


def _batch_text(dec: Decomposition) -> str:
    _, _, _, v, e, dim, special, h1, lower, kind, fixed, free, _ = record_values(dec)
    return (
        f"{dec.spec.literal()}: dim={dim} v={v} e={e} special={special or '-'} "
        f"{_h1_text(h1, lower).replace(' ', '')} "
        f"kind={kind} fixed={'+'.join(fixed) or '-'} free={free or '-'}"
    )


def _dim_text(dec: Decomposition) -> str:
    _, _, _, v, _, dim, special, h1, lower, *_ = record_values(dec)
    if special:
        return f"{dim} (special; v = {v}, h1 = {h1})"
    return f"-1 (empty; v = {v}, {_h1_text(h1, lower)})" if dim == -1 else str(dim)


def _classify_text(dec: Decomposition) -> str:
    _, _, _, v, e, dim, special, h1, lower, kind, fixed, free, conjectural = record_values(dec)
    return (
        f"{dec.spec.literal()}\n  v = {v}, e = {e}\n"
        f"  dim = {dim}{' (conjectural)' if conjectural else ''}\n"
        f"  special: {special or 'no'}\n  {_h1_text(h1, lower)}\n  member kind: {kind}\n"
        f"  fixed part: {'+'.join(fixed) or '-'}\n  free part: {free or '-'}"
    )


def _error_text(record: dict) -> str:
    error = record["error"]
    return f"{error['source']}: error: {error['message']} (byte {error['position']})"


def _record_writer(fmt: str, out: _Output, text, header: bool = True):
    """The renderers (record, error) of classification records: record(spec)
    writes a spec's record by json_record's template in json, from
    record_values in csv and by the template text(decomposition) in text;
    error(err) writes a line's error record {"error": err}, blank cells in
    csv.  A csv writer writes the header row first if `header`."""
    error = _writer(fmt, out, RECORD_FIELDS, _error_text, header)
    if fmt == "json":
        write = out.write
        record = lambda spec: write(json_record(decompose(spec)) + "\n")
    elif fmt == "csv":
        row = csv.writer(out, lineterminator="\n").writerow
        record = lambda spec: row(map(_csv_cell, RECORD_FIELDS, record_values(decompose(spec))))
    else:
        record = lambda spec: out.line(text(decompose(spec)))
    return record, lambda err: error({"error": err})


def _file_lines(handle):
    """The lines of handle.read().splitlines(), read in pieces of READ_CHARS
    characters.

    A line longer than MAX_LINE_CHARS comes out as a prefix still longer
    than MAX_LINE_CHARS, of at most MAX_LINE_CHARS plus one piece, and
    U+DCFF after it when a dropped piece holds a byte that is not UTF-8
    (see _NOT_UTF8).  Text mode turns every CR and CR LF into LF, so each
    line break is one character and no break spans two pieces.
    """
    head = ""  # the start of the line the previous piece left unfinished
    while piece := handle.read(READ_CHARS):
        lines = piece.splitlines()
        if len(head) <= MAX_LINE_CHARS:
            head += lines[0]
        elif head[-1] != "\udcff" and not lines[0].isascii() and _NOT_UTF8.search(lines[0]):
            head += "\udcff"
        lines[0] = head
        head = "" if piece[-1] in _LINE_BREAKS else lines.pop()
        yield from lines
    if head:
        yield head


def _cmd_system(args, out: _Output) -> int:
    """dim and classify: one system's record, in text by the command's template."""
    spec = parse_spec(args.system)  # before the writer, which may write a csv header
    text = _dim_text if args.command == "dim" else _classify_text
    _record_writer(args.format, out, text)[0](spec)
    return 0


def _cmd_intersect(args, out: _Output) -> int:
    a = parse_literal(args.system_a)
    b = parse_literal(args.system_b)
    value = intersect(a.divisor_class(), b.divisor_class())
    record = {"a": a.source.strip(), "b": b.source.strip(), "intersection": value}
    _writer(args.format, out, tuple(record), lambda r: str(r["intersection"]))(record)
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    """--self-int's A..B, each end read by _bound's rule; no error echoes the value."""
    ends = text.strip().split("..")
    if len(ends) != 2 or not all(e.removeprefix("-").isdigit() and e.isascii() for e in ends):
        raise argparse.ArgumentTypeError("expected A..B integer range")
    return _bound(ends[0]), _bound(ends[1])


def _bound(text: str) -> int:
    """A bound option's int: an optional '-' and at most MAX_INTEGER_DIGITS
    ASCII digits.  argparse names the option in the error, which does not
    echo the value."""
    digits = text.removeprefix("-")
    if digits.isdigit() and digits.isascii() and len(digits) <= MAX_INTEGER_DIGITS:
        return int(text)
    raise argparse.ArgumentTypeError(f"expected an integer of at most {MAX_INTEGER_DIGITS} digits")


def _cmd_enumerate(args, out: _Output) -> int:
    classes = enumerate_v0_classes(args.self_int)
    text = lambda c: f"{c['literal']}  (C^2 = {c['c2']})"
    write = _writer(args.format, out, ("c2", "n", "t", "mults", "v", "literal"), text)
    for c in map(class_record, classes):  # each rendered as it is made
        write(c)
    if args.format == "text":
        out.line(f"total: {len(classes)}")
    return 0


def _report_text(report: dict) -> str:
    lines = [
        f"{report['name']}: {'PASS' if report['passed'] else 'FAIL'}  checked={report['checked_count']} "
        f"violations={len(report['violations'])} exceptions={len(report['expected_exceptions_found'])} "
        f"elapsed={report['elapsed']:.3f}s",
        *(f"  class: {c['literal']}  (C^2 = {c['c2']})" for c in report["details"].get("classes", ())),
        *(f"  note: {note}" for note in report["notes"]),
        *(f"  exception: {cert['message']}" for cert in report["expected_exceptions_found"]),
        *(f"  VIOLATION: {cert['message']}" for cert in report["violations"]),
    ]
    return "\n".join(lines)


def _cmd_report(args, out: _Output) -> int:
    """verify and hunt: the report's dict, one record in json and text; in
    csv a summary row, then a row per violation and per exception."""
    if args.command == "hunt":
        report = hunt_counterexamples(
            max_n=args.max_n,
            max_degree=args.max_degree,
            mass_bound=args.mass_bound,
            max_points=args.max_points,
        )
    elif args.check == "pairs":
        report = verify_pair_inequality(
            mass_bound=args.mass_bound, max_points=args.max_points, max_n=args.max_n
        )
    else:
        report = verify_lemma_table()
    record = report.to_dict()
    write = _writer(args.format, out, ("section", "kind", "message", "data"), _report_text)
    if args.format == "csv":
        status = "PASS" if report.passed else "FAIL"
        summary = {"checked_count": report.checked_count, "bounds": report.bounds}
        rows = [("summary", {"kind": report.name, "message": status, "data": summary})]
        rows += (("violation", cert) for cert in record["violations"])
        rows += (("exception", cert) for cert in record["expected_exceptions_found"])
        for section, cert in rows:
            write({**cert, "section": section, "data": json.dumps(cert["data"], sort_keys=True)})
    else:
        write(record)
    return 0 if report.passed else 1


def _open_batch(path: str):
    # utf-8-sig drops a byte-order mark at the start of the file only; bytes
    # that are not UTF-8 are read, then end the run at their line.
    return open(path, encoding="utf-8-sig", errors="surrogateescape")


def _batch_lines(args, numbered, emit, emit_error) -> int:
    """Write the records of the (line number, line) pairs `numbered` with
    the renderers emit and emit_error of _record_writer.

    Returns 0 if every line gave a record or none, 2 if some line gave an
    error record, _STOPPED if a line that is not UTF-8 ended the run.
    """
    failed = False
    for lineno, raw in numbered:
        if not raw.isascii() and _NOT_UTF8.search(raw):
            _Output.error(f"{args.file}: not UTF-8 at line {lineno}")
            return _STOPPED
        try:
            if len(raw) > MAX_LINE_CHARS:
                # name the line by its start, not by a megabyte of it
                text = raw[:40].strip() + "..."
                message = f"line longer than {MAX_LINE_CHARS} characters"
                raise LiteralSyntaxError.at(message, raw, MAX_LINE_CHARS)
            text = raw.partition("#")[0].strip()
            if not text:
                continue
            spec = parse_spec(text)
        except LiteralSyntaxError as exc:
            failed = True
            _Output.error(f"{args.file}:{lineno}: {exc}")
            error = {"line": lineno, "position": exc.position, "message": exc.message, "source": text}
            emit_error(error)
            continue
        emit(spec)
    return 2 if failed else 0


def _cmd_batch(args, out: _Output) -> int:
    """Classify the lines of args.file in one pass, or in parts, one process
    per usable CPU, with the same output (see k3linsys.batch)."""
    try:
        handle = _open_batch(args.file)
    except OSError as exc:
        _Output.error(f"cannot read batch file: {exc}")
        return 2
    with handle:
        return run_parts(args, out, handle)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose subparsers are _Parsers.  Given check names,
    as verify's parser is, it names a pairs bound put before them, spelled
    in full or abbreviated as argparse allows; argparse would read the
    bound's value as the check name."""

    check_names: tuple[str, ...] = ()

    def parse_known_args(self, args=None, namespace=None):
        for arg in args if self.check_names else ():
            if arg in self.check_names:
                break
            given = arg.partition("=")[0]
            names = [name for name in ("--mass-bound", "--max-points", "--max-n") if name.startswith(given)]
            if len(given) > 2 and names:  # past "--"; an ambiguous prefix, as --max, is named as given
                name = names[0] if len(names) == 1 else given
                self.error(f"{name} is an option of 'verify pairs' and goes after 'pairs'")
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default=argparse.SUPPRESS,
        help="output format (default text)",
    )
    common.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS, help="suppress stdout"
    )

    parser = _Parser(
        prog="k3linsys",
        description=(
            "Exact invariants, conjectural classification, and bounded verification "
            "for fat-point linear systems on generic K3 surfaces."
        ),
    )
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--quiet", action="store_true", default=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", parents=[common], help="conjectural dimension of a system")
    p.add_argument("system", help='system literal, e.g. "L2(3;2^4,1)"')

    p = sub.add_parser("classify", parents=[common], help="full classification record")
    p.add_argument("system")

    p = sub.add_parser(
        "intersect", parents=[common], help="intersection number (positional alignment, zero-padded)"
    )
    p.add_argument("system_a")
    p.add_argument("system_b")

    p = sub.add_parser("enumerate", parents=[common], help="enumerate v = 0 classes")
    p.add_argument("what", choices=("v0",))
    p.add_argument("--self-int", type=_parse_range, required=True, metavar="A..B")

    p = sub.add_parser("verify", parents=[common], help="run a verification check")
    p.check_names = ("lemma-table", "pairs")
    checks = p.add_subparsers(dest="check", required=True)
    checks.add_parser("lemma-table", parents=[common], help="the five v = 0 classes with C^2 <= 1")
    p = checks.add_parser("pairs", parents=[common], help="v(C + C') >= 0 on pairs of v = 0 classes")
    p.add_argument("--mass-bound", type=_bound, default=200)
    p.add_argument("--max-points", type=_bound, default=6)
    p.add_argument("--max-n", type=_bound, default=40)

    p = sub.add_parser("hunt", parents=[common], help="coherence scan: any certificate is a bug")
    p.add_argument("--max-n", type=_bound, default=10)
    p.add_argument("--max-degree", type=_bound, default=6)
    p.add_argument("--mass-bound", type=_bound, default=60)
    p.add_argument("--max-points", type=_bound, default=None)

    p = sub.add_parser("batch", parents=[common], help="classify literals from a file")
    p.add_argument("file")
    return parser


# command: (handler, the _LAZY modules it runs, the formats it renders with
# the module of that name)
_COMMANDS = {
    "dim": (_cmd_system, ("literals", "classify"), ("csv",)),
    "classify": (_cmd_system, ("literals", "classify"), ("csv",)),
    "intersect": (_cmd_intersect, ("literals", "lattice"), ("json", "csv")),
    "enumerate": (_cmd_enumerate, ("verify", "classify", "json"), ("csv",)),
    "verify": (_cmd_report, ("verify", "json"), ("csv",)),
    "hunt": (_cmd_report, ("verify", "json"), ("csv",)),
    "batch": (_cmd_batch, ("literals", "classify", "batch"), ("json", "csv")),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    handler, modules, renderers = _COMMANDS[args.command]
    _bind(*modules, *(fmt for fmt in renderers if fmt == args.format))
    out = _Output(args.quiet)
    try:
        return handler(args, out)
    except ValueError as exc:
        # Literal, normalization and surface-mismatch errors are ValueErrors;
        # only commands that read literals can raise a LiteralSyntaxError.
        kind = "parse error" if "literals" in modules and isinstance(exc, LiteralSyntaxError) else "error"
        _Output.error(f"{kind}: {exc}")
        return 2
    finally:
        out.flush()


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (`| head`); devnull absorbs the final flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    except KeyboardInterrupt:
        # Ctrl-C: one line, no traceback, and the shell's status for SIGINT
        _Output.error("interrupted")
        code = 130
    raise SystemExit(code)
