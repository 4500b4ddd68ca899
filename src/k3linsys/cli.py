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
import csv
import io
import json
import os
import re
import sys

from .classify import (
    LinearSystemSpec,
    NormalizationError,
    decompose,
    format_multiplicities,
)
from .lattice import SurfaceMismatchError, intersect
from .literals import LiteralSyntaxError, parse_literal
from .verify import (
    SearchBounds,
    VerificationReport,
    enumerate_v0_classes,
    hunt_counterexamples,
    verify_addition_identity,
    verify_lemma_table,
    verify_pair_inequality,
)

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
# write per record costs more than a record's classification.  Batch files
# are read in pieces of at most this size.
BLOCK_CHARS = 1 << 16
# A batch line longer than this is an error record; the reader keeps at most
# this plus one block of any line, however long the line is.
MAX_LINE_CHARS = 1 << 20
# The characters str.splitlines() breaks lines at.
_LINE_BREAKS = frozenset("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


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

    def block(self, text: str) -> None:
        if text:
            self.write(text if text.endswith("\n") else text + "\n")

    def flush(self) -> None:
        text = "".join(self._parts)
        self._parts.clear()
        self._size = 0
        if text:
            sys.stdout.write(text)

    @staticmethod
    def error(text: str) -> None:
        print(text, file=sys.stderr)


def classification_record(spec: LinearSystemSpec) -> dict:
    dec = decompose(spec)
    return {
        "n": spec.n,
        "d": spec.d,
        "mults": list(spec.mults),
        "v": dec.v,
        "e": max(dec.v, -1),
        "dim": dec.dimension,
        "special": dec.special.value if dec.special else None,
        "h1": dec.h1,
        "h1_lower_bound": dec.h1_lower_bound,
        "member_kind": dec.member_kind.name,
        "fixed_part": [f"{mult}*{comp.literal()}" for mult, comp in dec.fixed_part],
        "free_part": dec.free_part.literal() if dec.free_part else None,
        "conjectural": dec.conjectural,
    }


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


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _record_row(record: dict) -> list[str]:
    return [_csv_cell(key, record[key]) for key in RECORD_FIELDS]


def _h1_text(record: dict) -> str:
    if record["h1"] is None:
        return f"h1 >= {record['h1_lower_bound']}"
    return f"h1 = {record['h1']}"


def _record_line(record: dict, source: str) -> str:
    fixed = "+".join(record["fixed_part"]) or "-"
    free = record["free_part"] or "-"
    special = record["special"] or "-"
    return (
        f"{source}: dim={record['dim']} v={record['v']} e={record['e']} "
        f"special={special} {_h1_text(record).replace(' ', '')} "
        f"kind={record['member_kind']} fixed={fixed} free={free}"
    )


def _record_writer(fmt: str, out: _Output):
    """Batch renderer: emit(record, source) writes one record or error placeholder.

    `source` is the record's spec, or the stripped line of an error record.
    """
    if fmt == "json":
        return lambda record, source: out.line(json.dumps(record))
    if fmt == "csv":
        rows = csv.writer(out, lineterminator="\n")
        rows.writerow(RECORD_FIELDS)
        blank = [""] * len(RECORD_FIELDS)
        return lambda record, source: rows.writerow(blank if "error" in record else _record_row(record))

    def text_line(record: dict, source) -> None:
        if "error" in record:
            err = record["error"]
            out.line(f"{source}: error: {err['message']} (byte {err['position']})")
        else:
            out.line(_record_line(record, source.literal()))

    return text_line


def _file_lines(handle):
    """The lines of handle.read().splitlines(), read one file line or
    BLOCK_CHARS characters at a time, whichever is shorter.

    A line longer than MAX_LINE_CHARS comes out as a prefix still longer
    than MAX_LINE_CHARS, of at most MAX_LINE_CHARS + BLOCK_CHARS
    characters.  Text mode turns every CR and CR LF into LF, so each line
    break is one character and no break spans two pieces.
    """
    head = ""  # the start of the line the previous piece left unfinished
    while piece := handle.readline(BLOCK_CHARS):
        lines = piece.splitlines()
        if len(head) <= MAX_LINE_CHARS:
            head += lines[0]
        lines[0] = head
        head = "" if piece[-1] in _LINE_BREAKS else lines.pop()
        yield from lines
    if head:
        yield head


def _cmd_dim(args, out: _Output) -> int:
    spec = parse_literal(args.system).to_spec()
    record = classification_record(spec)
    if args.format == "text":
        dim, v = record["dim"], record["v"]
        if record["special"]:
            out.line(f"{dim} (special; v = {v}, h1 = {record['h1']})")
        elif dim == -1:
            out.line(f"-1 (empty; v = {v}, {_h1_text(record)})")
        else:
            out.line(str(dim))
    elif args.format == "json":
        out.line(json.dumps(record))
    else:
        out.block(_csv_text(RECORD_FIELDS, [_record_row(record)]))
    return 0


def _cmd_classify(args, out: _Output) -> int:
    spec = parse_literal(args.system).to_spec()
    record = classification_record(spec)
    if args.format == "text":
        out.line(spec.literal())
        out.line(f"  v = {record['v']}, e = {record['e']}")
        out.line(f"  dim = {record['dim']} (conjectural)")
        out.line(f"  special: {record['special'] if record['special'] else 'no'}")
        out.line(f"  {_h1_text(record)}")
        out.line(f"  member kind: {record['member_kind']}")
        out.line(f"  fixed part: {'+'.join(record['fixed_part']) or '-'}")
        out.line(f"  free part: {record['free_part'] or '-'}")
    elif args.format == "json":
        out.line(json.dumps(record))
    else:
        out.block(_csv_text(RECORD_FIELDS, [_record_row(record)]))
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
        out.block(_csv_text(["a", "b", "intersection"], [[a.source.strip(), b.source.strip(), str(value)]]))
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(-?[0-9]+)\.\.(-?[0-9]+)", text.strip())
    if not match:
        raise argparse.ArgumentTypeError(f"expected A..B integer range, got {text!r}")
    return int(match.group(1)), int(match.group(2))


def _cmd_enumerate(args, out: _Output) -> int:
    classes = enumerate_v0_classes(args.self_int)
    if args.format == "text":
        for c in classes:
            out.line(f"{c.literal()}  (C^2 = {c.c2})")
        out.line(f"total: {len(classes)}")
    elif args.format == "json":
        for c in classes:
            out.line(json.dumps(c.to_dict()))
    else:
        header = ["c2", "n", "t", "mults", "v", "literal"]
        rows = [
            [str(c.c2), str(c.n), str(c.t), format_multiplicities(c.mults), str(c.v), c.literal()]
            for c in classes
        ]
        out.block(_csv_text(header, rows))
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
        out.block(_csv_text(header, rows))
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
    if args.check == "lemma-table":
        report = verify_lemma_table()
    elif args.check == "pairs":
        report = verify_pair_inequality(
            mass_bound=args.mass_bound, max_points=args.max_points, max_n=args.max_n
        )
    else:
        report = verify_addition_identity(samples=args.samples, seed=args.seed)
    return _render_report(report, args.format, out)


def _cmd_hunt(args, out: _Output) -> int:
    report = hunt_counterexamples(
        max_n=args.max_n,
        max_degree=args.max_degree,
        mass_bound=args.mass_bound,
        max_points=args.max_points,
    )
    return _render_report(report, args.format, out)


def _cmd_batch(args, out: _Output) -> int:
    try:
        handle = open(args.file, encoding="utf-8")
    except OSError as exc:
        _Output.error(f"cannot read batch file: {exc}")
        return 2
    emit = _record_writer(args.format, out)
    failed = False
    lineno = 0
    with handle:
        try:
            for lineno, raw in enumerate(_file_lines(handle), start=1):
                try:
                    if len(raw) > MAX_LINE_CHARS:
                        # name the line by its start, not by a megabyte of it
                        text = raw[:40].strip() + "..."
                        raise LiteralSyntaxError(
                            f"line longer than {MAX_LINE_CHARS} characters", MAX_LINE_CHARS
                        )
                    text = raw.split("#", 1)[0].strip()
                    if not text:
                        continue
                    spec = parse_literal(text).to_spec()
                except LiteralSyntaxError as exc:
                    failed = True
                    _Output.error(f"{args.file}:{lineno}: {exc.message} (byte {exc.position})")
                    error = {"line": lineno, "position": exc.position, "message": exc.message, "source": text}
                    emit({"error": error}, text)
                    continue
                emit(classification_record(spec), spec)
        except UnicodeDecodeError as exc:
            _Output.error(f"{args.file}: not UTF-8 after line {lineno}: {exc.reason}")
            return 2
    return 2 if failed else 0


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

    parser = argparse.ArgumentParser(
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
    p.add_argument("check", choices=("lemma-table", "pairs", "identity"))
    p.add_argument("--mass-bound", type=int, default=200)
    p.add_argument("--max-points", type=int, default=6)
    p.add_argument("--max-n", type=int, default=40)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=1729)

    p = sub.add_parser("hunt", parents=[common], help="scan for conjecture counterexamples")
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--mass-bound", type=int, default=60)
    p.add_argument("--max-points", type=int, default=None)

    p = sub.add_parser("batch", parents=[common], help="classify literals from a file")
    p.add_argument("file")
    return parser


_HANDLERS = {
    "dim": _cmd_dim,
    "classify": _cmd_classify,
    "intersect": _cmd_intersect,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "hunt": _cmd_hunt,
    "batch": _cmd_batch,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    out = _Output(args.quiet)
    try:
        return _HANDLERS[args.command](args, out)
    except LiteralSyntaxError as exc:
        _Output.error(f"parse error: {exc.message} (byte {exc.position})")
        return 2
    except (NormalizationError, SurfaceMismatchError, ValueError) as exc:
        _Output.error(f"error: {exc}")
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
    raise SystemExit(code)
