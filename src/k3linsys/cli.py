"""Command-line front end: classify systems, run verifiers, batch files.

Commands: dim, classify, intersect, enumerate, verify, hunt, batch.  One
table, _COMMANDS, holds the command tree: each command's (and verify
check's) handler, positionals and options with their defaults and
readers.  main reads a valid command line by it (_read) and loads
argparse only to print help or a usage error, with a parser built from
the same table.  dim and classify run in records.py, batch in batch.py,
the others here.  A command loads the modules whose names it reads, and
no other (see _LAZY).  Each builds records, which one output layer writes
to stdout in text, JSON or CSV: _writer renders a record dict (reports,
intersect, enumerate, batch's error records), records._record_writer a
classification record by a fast path of its own.  Diagnostics go to
stderr.  Exit codes: 0 success or verification pass, 1 verification
violation, 2 usage or parse error, 141 (128 + SIGPIPE) stdout closed by
the reader.  Classification records carry a fixed field order (n, d,
mults, v, e, dim, special, h1, h1_lower_bound, member_kind, fixed_part,
free_part, conjectural) in every format; h1 is null when only the lower
bound is known.
"""

from __future__ import annotations

import os
import sys

from . import MAX_INTEGER_DIGITS

# stdout is written in blocks of at least this many characters: a pipe
# write per record costs more than a record's classification.
BLOCK_CHARS = 1 << 16
# The names this module takes from the package's modules; json and csv are
# bound under their own names.  A name is bound the first time it is read,
# with every other name of its module, by the module __getattr__ below, not
# at import: without a bytecode cache a process compiles every module it
# imports, so a command loads only the modules whose names it reads and
# `--help` loads no math module.  This module's own code reads them as
# attributes of _cli, as records.py and batch.py read cli.parse_spec.
_LAZY = {
    "classify": ("decompose", "format_multiplicities"),
    "lattice": ("intersect",),
    "literals": ("LiteralSyntaxError", "parse_literal", "parse_spec"),
    "records": ("_cmd_system",),
    "verify": ("verify_pair_inequality",),
    "v0": ("class_record", "enumerate_v0_classes", "verify_lemma_table"),
    "hunt": ("hunt_counterexamples",),
    "batch": ("_cmd_batch",),
    "json": None,
    "csv": None,
}
_cli = sys.modules[__name__]


def __getattr__(name: str):
    """Bind a lazily bound name on its first read, with the other names of
    its _LAZY module, keeping any name already bound (as by
    monkeypatch.setattr)."""
    for module, names in _LAZY.items():
        if name in (names or (module,)):
            space = globals()
            if names is None:
                return space.setdefault(module, __import__(module))
            source = __import__(module, space, None, names, 1)
            for each in names:
                space.setdefault(each, getattr(source, each))
            return space[name]
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


def _csv_cell(key: str, value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if key == "mults":
        return _cli.format_multiplicities(tuple(value))
    if key == "fixed_part":
        return "+".join(value)
    return str(value)


def _writer(fmt: str, out: _Output, fields, text, header: bool = True):
    """write(record) for a record dict: json.dumps(record) on one line in
    json; in csv a row of its `fields` (blank where it has none), after a
    header row of them if `header`; text(record) in text."""
    if fmt == "json":
        return lambda record: out.line(_cli.json.dumps(record))
    if fmt == "csv":
        rows = _cli.csv.writer(out, lineterminator="\n")
        if header:
            rows.writerow(fields)
        return lambda record: rows.writerow([_csv_cell(key, record.get(key)) for key in fields])
    return lambda record: out.line(text(record))


def _cmd_intersect(args, out: _Output) -> int:
    a = _cli.parse_literal(args.system_a)
    b = _cli.parse_literal(args.system_b)
    value = _cli.intersect(a.divisor_class(), b.divisor_class())
    record = {"a": a.source.strip(), "b": b.source.strip(), "intersection": value}
    _writer(args.format, out, tuple(record), lambda r: str(r["intersection"]))(record)
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    """--self-int's A..B, each end read by _bound's rule; no error echoes the value."""
    ends = text.strip().split("..")
    if len(ends) != 2 or not all(e.removeprefix("-").isdigit() and e.isascii() for e in ends):
        raise ValueError("expected A..B integer range")
    return _bound(ends[0]), _bound(ends[1])


def _bound(text: str) -> int:
    """A bound option's int: an optional '-' and at most MAX_INTEGER_DIGITS
    ASCII digits.  The ValueError's message is argparse's usage error, which
    names the option and does not echo the value."""
    digits = text.removeprefix("-")
    if digits.isdigit() and digits.isascii() and len(digits) <= MAX_INTEGER_DIGITS:
        return int(text)
    raise ValueError(f"expected an integer of at most {MAX_INTEGER_DIGITS} digits")


def _cmd_enumerate(args, out: _Output) -> int:
    classes = _cli.enumerate_v0_classes(args.self_int)
    text = lambda c: f"{c['literal']}  (C^2 = {c['c2']})"
    write = _writer(args.format, out, ("c2", "n", "t", "mults", "v", "literal"), text)
    for c in map(_cli.class_record, classes):  # each rendered as it is made
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
        report = _cli.hunt_counterexamples(
            max_n=args.max_n,
            max_degree=args.max_degree,
            mass_bound=args.mass_bound,
            max_points=args.max_points,
        )
    elif args.check == "pairs":
        report = _cli.verify_pair_inequality(
            mass_bound=args.mass_bound, max_points=args.max_points, max_n=args.max_n
        )
    else:
        report = _cli.verify_lemma_table()
    record = report.to_dict()
    write = _writer(args.format, out, ("section", "kind", "message", "data"), _report_text)
    if args.format == "csv":
        status = "PASS" if report.passed else "FAIL"
        summary = {"checked_count": report.checked_count, "bounds": report.bounds}
        rows = [("summary", {"kind": report.name, "message": status, "data": summary})]
        rows += (("violation", cert) for cert in record["violations"])
        rows += (("exception", cert) for cert in record["expected_exceptions_found"])
        for section, cert in rows:
            write({**cert, "section": section, "data": _cli.json.dumps(cert["data"], sort_keys=True)})
    else:
        write(record)
    return 0 if report.passed else 1


# The options of every level, with the top level's defaults (where they
# show no help): below the top an option left out keeps the value given
# above it, and the last value given wins.
_COMMON = {
    "--format": {
        "choices": ("text", "json", "csv"),
        "default": "text",
        "help": "output format (default text)",
    },
    "--quiet": {"action": "store_true", "default": False, "help": "suppress stdout"},
}
# The command tree.  A command, or a check of verify, is (help, handler,
# arguments): add_argument's keywords under each argument's name, where an
# option's "default" is taken when it is not given and "type" reads a value,
# raising ValueError to reject it.  verify is (help, checks).
_COMMANDS = {
    "dim": (
        "conjectural dimension of a system",
        "_cmd_system",
        {"system": {"help": 'system literal, e.g. "L2(3;2^4,1)"'}},
    ),
    "classify": ("full classification record", "_cmd_system", {"system": {}}),
    "intersect": (
        "intersection number (positional alignment, zero-padded)",
        "_cmd_intersect",
        {"system_a": {}, "system_b": {}},
    ),
    "enumerate": (
        "enumerate v = 0 classes",
        "_cmd_enumerate",
        {
            "what": {"choices": ("v0",)},
            "--self-int": {"type": _parse_range, "required": True, "metavar": "A..B"},
        },
    ),
    "verify": (
        "run a verification check",
        {
            "lemma-table": ("the five v = 0 classes with C^2 <= 1", "_cmd_report", {}),
            "pairs": (
                "v(C + C') >= 0 on pairs of v = 0 classes",
                "_cmd_report",
                {
                    "--mass-bound": {"type": _bound, "default": 200},
                    "--max-points": {"type": _bound, "default": 6},
                    "--max-n": {"type": _bound, "default": 40},
                },
            ),
        },
    ),
    "hunt": (
        "coherence scan: any certificate is a bug",
        "_cmd_report",
        {
            "--max-n": {"type": _bound, "default": 10},
            "--max-degree": {"type": _bound, "default": 6},
            "--mass-bound": {"type": _bound, "default": 60},
            "--max-points": {"type": _bound, "default": None},
        },
    ),
    "batch": ("classify literals from a file", "_cmd_batch", {"file": {}}),
}


class _Args:
    """A command line's values by name, as argparse.Namespace holds them."""

    def __init__(self, values: dict):
        self.__dict__.update(values)


def _dest(name: str) -> str:
    return name.removeprefix("--").replace("-", "_")


def _read(argv) -> _Args | None:
    """The values build_parser().parse_args(argv) gives, read by the table;
    or None, and argparse reads argv.  It reads exact option names, with a
    value in the next word or after "=", and positionals.  It declines help,
    an abbreviation, "--", a next-word value or a positional that starts
    with "-", a value its reader rejects, and a missing or extra argument."""
    values = {_dest(name): keywords["default"] for name, keywords in _COMMON.items()}
    level, dest = _COMMANDS, "command"  # names the next positional may take; None after a handler
    arguments, positionals, required = {}, [], set()
    words = iter(argv)
    for word in words:
        if word.startswith("-"):
            name, equals, text = word.partition("=")
            keywords = _COMMON.get(name, arguments.get(name))
            if keywords is None or (equals and "action" in keywords):
                return None
            if "action" in keywords:  # store_true, which takes no value
                values[_dest(name)] = True
                continue
            if not equals and (text := next(words, "-")).startswith("-"):
                return None
            required.discard(name)
        elif level is not None:
            entry = level.get(word)
            if entry is None:
                return None
            values[dest] = word
            if isinstance(entry[1], dict):
                level, dest = entry[1], "check"
                continue
            _, values["handler"], arguments = entry
            level = None
            positionals = [name for name in arguments if not name.startswith("-")]
            required = {name for name, keywords in arguments.items() if keywords.get("required")}
            for name, keywords in arguments.items():
                if name.startswith("-"):
                    values[_dest(name)] = keywords.get("default")
            continue
        elif positionals:
            name, text = positionals.pop(0), word
            keywords = arguments[name]
        else:
            return None
        try:
            value = keywords.get("type", str)(text)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        values[_dest(name)] = value
    return None if level is not None or positionals or required else _Args(values)


def build_parser():
    """argparse's parser of the command tree, which main builds only for
    help and usage errors, where _read declines argv."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An ArgumentParser whose subparsers are _Parsers.  Given check
        names, as verify's parser is, it names a pairs bound put before
        them, spelled in full or abbreviated as argparse allows; argparse
        would read the bound's value as the check name."""

        check_names: tuple[str, ...] = ()

        def parse_known_args(self, args=None, namespace=None):
            for arg in args if self.check_names else ():
                if arg in self.check_names:
                    break
                given = arg.partition("=")[0]
                names = [name for name in pair_bounds if name.startswith(given)]
                if len(given) > 2 and names:  # past "--"; an ambiguous prefix, as --max, is named as given
                    name = names[0] if len(names) == 1 else given
                    self.error(f"{name} is an option of 'verify pairs' and goes after 'pairs'")
            return super().parse_known_args(args, namespace)

    def usage_type(read):
        """read as argparse's type: the message of its ValueError is the usage error."""

        def convert(text):
            try:
                return read(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        return convert

    def add_commands(parser, dest, commands):
        sub = parser.add_subparsers(dest=dest, required=True)
        for name, (summary, *entry) in commands.items():
            p = sub.add_parser(name, parents=[common], help=summary)
            if isinstance(entry[0], dict):  # verify's checks
                p.check_names = tuple(entry[0])
                add_commands(p, "check", entry[0])
                continue
            handler, arguments = entry
            for argument, keywords in arguments.items():
                if "type" in keywords:
                    keywords = {**keywords, "type": usage_type(keywords["type"])}
                p.add_argument(argument, **keywords)
            p.set_defaults(handler=handler)

    pair_bounds = tuple(_COMMANDS["verify"][1]["pairs"][2])
    common = argparse.ArgumentParser(add_help=False)
    parser = _Parser(
        prog="k3linsys",
        description=(
            "Exact invariants, conjectural classification, and bounded verification "
            "for fat-point linear systems on generic K3 surfaces."
        ),
    )
    for name, keywords in _COMMON.items():
        common.add_argument(name, **{**keywords, "default": argparse.SUPPRESS})
        parser.add_argument(name, **{**keywords, "help": None})
    add_commands(parser, "command", _COMMANDS)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
    out = _Output(args.quiet)
    try:
        return getattr(_cli, args.handler)(args, out)
    except ValueError as exc:
        # Literal, normalization and surface-mismatch errors are ValueErrors;
        # only a command that read a literal has bound LiteralSyntaxError.
        kind = "parse error" if isinstance(exc, globals().get("LiteralSyntaxError", ())) else "error"
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
