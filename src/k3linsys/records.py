"""Classification records: the dim, classify and batch commands.

A classification record carries a fixed field order (RECORD_FIELDS) in
every format; _record_writer renders it by a fast path of its own, and
batch's reader turns a file into records and error records.  The
command-line module binds _cmd_system and _cmd_batch for dim, classify and
batch only: no other command compiles this module.  parse_spec, decompose,
csv, run_parts and the output layer are read through the names the
command-line module binds (cli.parse_spec, cli.decompose, ...), so a name
patched there, as by a test or a tracer, is the one called here.
"""

from __future__ import annotations

import re

from . import cli
from .literals import LiteralSyntaxError

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


def _record_writer(fmt: str, out: cli._Output, text, header: bool = True):
    """The renderers (record, error) of classification records: record(spec)
    writes a spec's record by json_record's template in json, from
    record_values in csv and by the template text(decomposition) in text;
    error(err) writes a line's error record {"error": err}, blank cells in
    csv.  A csv writer writes the header row first if `header`."""
    error = cli._writer(fmt, out, RECORD_FIELDS, _error_text, header)
    if fmt == "json":
        write = out.write
        record = lambda spec: write(json_record(cli.decompose(spec)) + "\n")
    elif fmt == "csv":
        row = cli.csv.writer(out, lineterminator="\n").writerow
        record = lambda spec: row(map(cli._csv_cell, RECORD_FIELDS, record_values(cli.decompose(spec))))
    else:
        record = lambda spec: out.line(text(cli.decompose(spec)))
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


def _cmd_system(args, out: cli._Output) -> int:
    """dim and classify: one system's record, in text by the command's template."""
    spec = cli.parse_spec(args.system)  # before the writer, which may write a csv header
    text = _dim_text if args.command == "dim" else _classify_text
    _record_writer(args.format, out, text)[0](spec)
    return 0


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
            cli._Output.error(f"{args.file}: not UTF-8 at line {lineno}")
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
            spec = cli.parse_spec(text)
        except LiteralSyntaxError as exc:
            failed = True
            cli._Output.error(f"{args.file}:{lineno}: {exc}")
            error = {"line": lineno, "position": exc.position, "message": exc.message, "source": text}
            emit_error(error)
            continue
        emit(spec)
    return 2 if failed else 0


def _cmd_batch(args, out: cli._Output) -> int:
    """Classify the lines of args.file in one pass, or in parts, one process
    per usable CPU, with the same output (see k3linsys.batch)."""
    try:
        handle = _open_batch(args.file)
    except OSError as exc:
        cli._Output.error(f"cannot read batch file: {exc}")
        return 2
    with handle:
        return cli.run_parts(args, out, handle)
