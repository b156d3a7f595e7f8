"""Command-line front end.

    cdga run <file> [--report <path>]   execute tasks, print the report
    cdga check <file>                   parse and static checks only
    cdga dump <file> <name>             print a bound element canonically

Exit codes: 0 success, 1 task failure, 2 parse/static error or I/O error
(an unreadable or non-UTF-8 session file, an unwritable report), 3 internal
invariant violated (an engine fault, reported on stderr).
"""

from __future__ import annotations

import argparse
import sys

from . import dsl
from .algebra import format_element


def _load(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _io_error(path: str, e: OSError | UnicodeDecodeError):
    print(f"{path}: {getattr(e, 'strerror', None) or e}", file=sys.stderr)


def _parse_or_exit(path: str) -> "dsl.Session | None":
    try:
        text = _load(path)
    except (OSError, UnicodeDecodeError) as e:
        _io_error(path, e)
        return None
    try:
        return dsl.parse(text)
    except dsl.DslError as e:
        d = e.diagnostic
        print(f"{path}:{d.line}:{d.col}: {d.message}", file=sys.stderr)
        return None


def cmd_run(args) -> int:
    session = _parse_or_exit(args.file)
    if session is None:
        return 2
    try:
        report = dsl.run(session)
    except AssertionError as e:
        print(f"{args.file}: internal invariant violated: {e}", file=sys.stderr)
        return 3
    sys.stdout.write(report.human_text())
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(report.machine_text())
        except OSError as e:
            _io_error(args.report, e)
            return 2
    return 0 if report.ok else 1


def cmd_check(args) -> int:
    session = _parse_or_exit(args.file)
    if session is None:
        return 2
    print(f"{args.file}: ok ({len(session.tasks)} task(s))")
    return 0


def cmd_dump(args) -> int:
    session = _parse_or_exit(args.file)
    if session is None:
        return 2
    element = session.lookup_element(args.name)
    if element is None:
        print(f"{args.file}: no element bound to {args.name!r}", file=sys.stderr)
        return 2
    print(format_element(element))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdga",
        description="Exact CDGA cohomology engine over cyclotomic fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a session and print its report")
    p_run.add_argument("file")
    p_run.add_argument("--report", metavar="PATH",
                       help="write the machine-readable report to PATH")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="parse and static checks only")
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)

    p_dump = sub.add_parser("dump", help="print a bound element canonically")
    p_dump.add_argument("file")
    p_dump.add_argument("name")
    p_dump.set_defaults(func=cmd_dump)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
