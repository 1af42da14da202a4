"""Command-line entry points.

Exit codes: 0 ok, 1 usage, 2 parse/input/output error, 3 verification divergence,
4 referee cap exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import stat
import sys

from . import oracle
from .formats import ParseError, StatsWriter, StreamSource, save_snapshot, snapshot_lines
from .window import LANDMARK, SLIDING, StreamDriver, replay

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_DIVERGENCE = 3
EXIT_CAP = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; usage errors are exit 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="streamclose",
                description="Closed-itemset mining over transaction windows.")
    sub = p.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="replay a stream and emit results")
    mine.add_argument("--input", required=True, help="FIMI-style transaction file")
    mine.add_argument("--window", type=int, help="sliding window capacity")
    mine.add_argument("--mode", choices=(SLIDING, LANDMARK), default=SLIDING)
    mine.add_argument("--min-supp", type=int, default=1, dest="min_supp")
    mine.add_argument("--emit-snapshot", dest="emit_snapshot",
                      help="write the final snapshot here (default: stdout)")
    mine.add_argument("--format", choices=("tsv", "jsonl"), default="tsv")
    mine.add_argument("--stats", help="write per-transaction stats CSV here")
    mine.add_argument("--snapshot-every", type=int, default=0, dest="snapshot_every",
                      help="also write a snapshot every k transactions "
                           "(suffixes the --emit-snapshot path with the shift number)")

    verify = sub.add_parser("verify", help="replay while cross-checking every "
                                           "shift against the brute-force referee")
    verify.add_argument("--input", required=True)
    verify.add_argument("--window", type=int, required=True)
    verify.add_argument("--max-cis", type=int, default=oracle.DEFAULT_CI_CAP,
                        dest="max_cis")

    orc = sub.add_parser("oracle", help="print the closed itemsets of the whole file")
    orc.add_argument("--input", required=True)

    return p


class _InputError(Exception):
    """The input file could not be read; any other OSError is an output error."""


def _read(source):
    try:
        yield from source
    except OSError as e:
        raise _InputError(e) from None


def _cmd_mine(args) -> int:
    if args.mode == SLIDING and args.window is None:
        sys.stderr.write("streamclose mine: error: sliding mode needs --window\n")
        return EXIT_USAGE
    if args.snapshot_every < 0:
        sys.stderr.write("streamclose mine: error: --snapshot-every must be at least 0\n")
        return EXIT_USAGE
    if args.snapshot_every > 0 and not args.emit_snapshot:
        sys.stderr.write("streamclose mine: error: --snapshot-every needs --emit-snapshot\n")
        return EXIT_USAGE
    try:
        driver = StreamDriver(capacity=args.window, mode=args.mode)
    except ValueError as e:
        sys.stderr.write(f"streamclose mine: error: {e}\n")
        return EXIT_USAGE
    if args.min_supp < 1:
        sys.stderr.write("streamclose mine: error: min_supp must be at least 1\n")
        return EXIT_USAGE
    # An output opened over the input would truncate it before the replay
    # reads it, and of two outputs on one file only the last written stays.
    paths = [(flag, path) for flag, path in (("--input", args.input), ("--stats", args.stats),
                                             ("--emit-snapshot", args.emit_snapshot))
             if path is not None]
    for (flag_a, a), (flag_b, b) in itertools.combinations(paths, 2):
        if _same_file(a, b):
            sys.stderr.write(f"streamclose mine: error: {flag_a} and {flag_b} "
                             "name the same file\n")
            return EXIT_USAGE

    source = StreamSource(args.input, driver.dictionary)
    # Both output files are opened before the first transaction is read, so
    # a path that cannot be written stops the run before the replay.
    with contextlib.ExitStack() as outputs:
        stats = (outputs.enter_context(open(args.stats, "w", encoding="utf-8", newline=""))
                 if args.stats is not None else None)
        out = (outputs.enter_context(open(args.emit_snapshot, "w", encoding="utf-8",
                                          newline=""))
               if args.emit_snapshot is not None else sys.stdout)
        writer = StatsWriter(stats) if stats else None
        for rec in replay(_read(source), driver):
            if writer:
                writer.write(rec)
            if args.snapshot_every > 0 and rec.shift % args.snapshot_every == 0:
                # A periodic path is known only at its shift, so it is
                # checked against the other files just before it is opened.
                path = f"{args.emit_snapshot}.{rec.shift:08d}"
                for flag, other in paths:
                    if _same_file(path, other):
                        sys.stderr.write(f"streamclose mine: error: the periodic snapshot "
                                         f"{path} and {flag} name the same file\n")
                        return EXIT_USAGE
                save_snapshot(path, driver.snapshot(args.min_supp), args.format)
        out.writelines(snapshot_lines(driver.snapshot(args.min_supp), args.format))
    return EXIT_OK


def _same_file(a, b) -> bool:
    """Whether paths ``a`` and ``b`` name one regular file, through links too.

    A path that does not exist yet clashes only with one that resolves to
    the same name.  A device such as ``/dev/null`` never clashes: writing it
    truncates nothing.
    """
    try:
        sa, sb = os.stat(a), os.stat(b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)
    return stat.S_ISREG(sa.st_mode) and os.path.samestat(sa, sb)


def _diff_families(got: dict, want: dict, dictionary) -> str:
    def name(items):
        return " ".join(str(t) for t in dictionary.tokens_of(tuple(sorted(items))))

    lines = []
    for x in sorted(set(want) - set(got), key=sorted):
        lines.append(f"  missing: {name(x)} (support {want[x]})")
    for x in sorted(set(got) - set(want), key=sorted):
        lines.append(f"  extra:   {name(x)} (support {got[x]})")
    for x in sorted(set(got) & set(want), key=sorted):
        if got[x] != want[x]:
            lines.append(f"  support: {name(x)} miner={got[x]} referee={want[x]}")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    if args.max_cis < 1:
        sys.stderr.write("streamclose verify: error: --max-cis must be at least 1\n")
        return EXIT_USAGE
    try:
        driver = StreamDriver(capacity=args.window, mode=SLIDING)
    except ValueError as e:
        sys.stderr.write(f"streamclose verify: error: {e}\n")
        return EXIT_USAGE
    source = StreamSource(args.input, driver.dictionary)
    engine = driver.engine
    shift_no = 0

    def check(rep) -> str | None:
        nonlocal shift_no
        shift_no += 1
        db = {t: frozenset(x) for t, x in engine.window.items()}
        want = oracle.closed_itemsets(db, args.max_cis)
        got = {frozenset(x): s for x, s in engine.snapshot(1)}
        if got != want:
            return (f"divergence at shift {shift_no} ({rep.kind} tid {rep.tid}):\n"
                    f"{_diff_families(got, want, driver.dictionary)}\n")
        return None

    # evict first, so both halves of a push get checked; push_ids then finds
    # room in the window and only adds
    for items in _read(source):
        problem = None
        removed = driver.evict()
        if removed is not None:
            problem = check(removed)
        if problem is None:
            _, added = driver.push_ids(items)
            problem = check(added)
        if problem:
            sys.stderr.write(problem)
            return EXIT_DIVERGENCE
    sys.stdout.write(f"ok: {shift_no} shifts verified, "
                     f"{driver.live_cis} closed itemsets live\n")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    source = StreamSource(args.input)
    db = {i: frozenset(items) for i, items in enumerate(_read(source))}
    fam = oracle.closed_itemsets(db)
    tokens_of = source.dictionary.tokens_of
    rows = sorted((tuple(sorted(items)), supp) for items, supp in fam.items())
    out = [(tokens_of(items), supp) for items, supp in rows]
    sys.stdout.writelines(snapshot_lines(out, "tsv"))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    command = {"mine": _cmd_mine, "verify": _cmd_verify, "oracle": _cmd_oracle}
    try:
        code = command[args.command](args)
        # a buffered stdout would otherwise meet a full disk only at exit
        sys.stdout.flush()
        return code
    except ParseError as e:
        sys.stderr.write(f"streamclose: parse error: {e}\n")
        return EXIT_PARSE
    except _InputError as e:
        sys.stderr.write(f"streamclose: input error: {e}\n")
        return EXIT_PARSE
    except OSError as e:
        sys.stderr.write(f"streamclose: output error: {e}\n")
        return EXIT_PARSE
    except oracle.CapExceededError as e:
        sys.stderr.write(f"streamclose: {e}\n")
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
