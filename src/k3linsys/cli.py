"""Command-line front end: classify systems, run verifiers, batch files.

Commands: dim, classify, intersect, enumerate, verify, hunt, batch.  Output
goes to stdout in text, JSON, or CSV; diagnostics go to stderr.  Exit codes:
0 success or verification pass, 1 verification violation, 2 usage or parse
error, 141 (128 + SIGPIPE) stdout closed by the reader.  Classification
records carry a fixed field order (n, d, mults, v, e, dim, special, h1,
h1_lower_bound, member_kind, fixed_part, free_part, conjectural) in every
format; h1 is null when only the lower bound is known.
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
    "parts": ("run_parts",),
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


def _write_csv(out: _Output, header, rows) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _h1_text(h1: int | None, lower: int) -> str:
    return f"h1 >= {lower}" if h1 is None else f"h1 = {h1}"


def _record_line(dec: Decomposition, source: str) -> str:
    _, _, _, v, e, dim, special, h1, lower, kind, fixed, free, _ = record_values(dec)
    return (
        f"{source}: dim={dim} v={v} e={e} special={special or '-'} "
        f"{_h1_text(h1, lower).replace(' ', '')} "
        f"kind={kind} fixed={'+'.join(fixed) or '-'} free={free or '-'}"
    )


def _record_writer(fmt: str, out: _Output, header: bool = True):
    """Record renderers (record, error) of batch, and of dim and classify in
    json and csv: record(spec) writes a spec's record, error(err, text) the
    error record of the stripped line `text`.  A csv writer writes the
    header row first if `header`."""
    if fmt == "json":
        write = out.write
        return (
            lambda spec: write(json_record(decompose(spec)) + "\n"),
            lambda err, text: out.line(json.dumps({"error": err})),
        )
    if fmt == "csv":
        rows = csv.writer(out, lineterminator="\n")
        if header:
            rows.writerow(RECORD_FIELDS)
        blank = [""] * len(RECORD_FIELDS)
        return (
            lambda spec: rows.writerow(map(_csv_cell, RECORD_FIELDS, record_values(decompose(spec)))),
            lambda err, text: rows.writerow(blank),
        )
    return (
        lambda spec: out.line(_record_line(decompose(spec), spec.literal())),
        lambda err, text: out.line(f"{text}: error: {err['message']} (byte {err['position']})"),
    )


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


def _cmd_dim(args, out: _Output) -> int:
    spec = parse_spec(args.system)
    if args.format != "text":
        _record_writer(args.format, out)[0](spec)
        return 0
    _, _, _, v, _, dim, special, h1, lower, *_ = record_values(decompose(spec))
    if special:
        out.line(f"{dim} (special; v = {v}, h1 = {h1})")
    elif dim == -1:
        out.line(f"-1 (empty; v = {v}, {_h1_text(h1, lower)})")
    else:
        out.line(str(dim))
    return 0


def _cmd_classify(args, out: _Output) -> int:
    spec = parse_spec(args.system)
    if args.format != "text":
        _record_writer(args.format, out)[0](spec)
        return 0
    _, _, _, v, e, dim, special, h1, lower, kind, fixed, free, conjectural = record_values(decompose(spec))
    out.line(spec.literal())
    out.line(f"  v = {v}, e = {e}")
    out.line(f"  dim = {dim}{' (conjectural)' if conjectural else ''}")
    out.line(f"  special: {special or 'no'}")
    out.line(f"  {_h1_text(h1, lower)}")
    out.line(f"  member kind: {kind}")
    out.line(f"  fixed part: {'+'.join(fixed) or '-'}")
    out.line(f"  free part: {free or '-'}")
    return 0


def _cmd_intersect(args, out: _Output) -> int:
    a = parse_literal(args.system_a)
    b = parse_literal(args.system_b)
    value = intersect(a.divisor_class(), b.divisor_class())
    if args.format == "text":
        out.line(str(value))
    elif args.format == "json":
        out.line(json.dumps({"a": a.source.strip(), "b": b.source.strip(), "intersection": value}))
    else:
        _write_csv(out, ["a", "b", "intersection"], [[a.source.strip(), b.source.strip(), str(value)]])
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    """--self-int's A..B, each end read by _bound's rule; no error echoes the value."""
    ends = text.strip().split("..")
    if len(ends) != 2 or not all(e.removeprefix("-").isdigit() and e.isascii() for e in ends):
        raise argparse.ArgumentTypeError("expected A..B integer range")
    return _bound(ends[0]), _bound(ends[1])


def _bound(text: str) -> int:
    """A bound option's int, of at most MAX_INTEGER_DIGITS digits and a sign:
    argparse names the option in the error, which does not echo the value."""
    try:
        if len(text) <= MAX_INTEGER_DIGITS + 1 and abs(value := int(text)) < 10**MAX_INTEGER_DIGITS:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer of at most {MAX_INTEGER_DIGITS} digits")


def _cmd_enumerate(args, out: _Output) -> int:
    classes = [class_record(c) for c in enumerate_v0_classes(args.self_int)]
    if args.format == "text":
        for c in classes:
            out.line(f"{c['literal']}  (C^2 = {c['c2']})")
        out.line(f"total: {len(classes)}")
    elif args.format == "json":
        for c in classes:
            out.line(json.dumps(c))
    else:
        header = ["c2", "n", "t", "mults", "v", "literal"]
        rows = [
            [c["c2"], c["n"], c["t"], format_multiplicities(c["mults"]), c["v"], c["literal"]]
            for c in classes
        ]
        _write_csv(out, header, rows)
    return 0


def _render_report(report: VerificationReport, fmt: str, out: _Output) -> int:
    if fmt == "json":
        out.line(json.dumps(report.to_dict()))
    elif fmt == "csv":
        header = ["section", "kind", "message", "data"]
        rows = [
            [
                "summary",
                report.name,
                "PASS" if report.passed else "FAIL",
                json.dumps(
                    {"checked_count": report.checked_count, "bounds": report.bounds},
                    sort_keys=True,
                ),
            ]
        ]
        for cert in report.violations:
            rows.append(["violation", cert.kind, cert.message, json.dumps(cert.data, sort_keys=True)])
        for cert in report.expected_exceptions_found:
            rows.append(["exception", cert.kind, cert.message, json.dumps(cert.data, sort_keys=True)])
        _write_csv(out, header, rows)
    else:
        status = "PASS" if report.passed else "FAIL"
        out.line(
            f"{report.name}: {status}  checked={report.checked_count} "
            f"violations={len(report.violations)} "
            f"exceptions={len(report.expected_exceptions_found)} "
            f"elapsed={report.elapsed:.3f}s"
        )
        for cls in report.details.get("classes", ()):
            out.line(f"  class: {cls['literal']}  (C^2 = {cls['c2']})")
        for note in report.notes:
            out.line(f"  note: {note}")
        for cert in report.expected_exceptions_found:
            out.line(f"  exception: {cert.message}")
        for cert in report.violations:
            out.line(f"  VIOLATION: {cert.message}")
    return 0 if report.passed else 1


def _cmd_verify(args, out: _Output) -> int:
    if args.check == "pairs":
        report = verify_pair_inequality(
            mass_bound=args.mass_bound, max_points=args.max_points, max_n=args.max_n
        )
    else:
        report = verify_lemma_table()
    return _render_report(report, args.format, out)


def _cmd_hunt(args, out: _Output) -> int:
    report = hunt_counterexamples(
        max_n=args.max_n,
        max_degree=args.max_degree,
        mass_bound=args.mass_bound,
        max_points=args.max_points,
    )
    return _render_report(report, args.format, out)


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
            emit_error(error, text)
            continue
        emit(spec)
    return 2 if failed else 0


def _cmd_batch(args, out: _Output) -> int:
    """Classify the lines of args.file in one pass, or in parts, one process
    per usable CPU, with the same output (see k3linsys.parts)."""
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
    "dim": (_cmd_dim, ("literals", "classify"), ("csv",)),
    "classify": (_cmd_classify, ("literals", "classify"), ("csv",)),
    "intersect": (_cmd_intersect, ("literals", "lattice"), ("json", "csv")),
    "enumerate": (_cmd_enumerate, ("verify", "classify", "json"), ("csv",)),
    "verify": (_cmd_verify, ("verify", "json"), ("csv",)),
    "hunt": (_cmd_hunt, ("verify", "json"), ("csv",)),
    "batch": (_cmd_batch, ("literals", "classify", "parts"), ("json", "csv")),
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
