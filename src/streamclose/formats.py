"""FIMI-style input parsing and snapshot/stats emission.

Input is line-oriented: one transaction per line, whitespace-separated item
tokens, blank lines meaning empty baskets.  Output formats are pinned so the
same replay always produces byte-identical files.
"""

from __future__ import annotations

import dataclasses
import io
import json
import re
from typing import Iterable, Iterator

from .store import ItemDictionary, normalize
from .window import StatsRecord

_CONTROL = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]")

STATS_COLUMNS = tuple(f.name for f in dataclasses.fields(StatsRecord))


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class StreamSource:
    """Line-oriented transaction reader with an item dictionary.

    ``source`` is a file path or the file's ``bytes``.  Iterating yields one
    deduplicated ascending itemset of interned item ids per input line;
    tokens are interned in first-seen order, and duplicate tokens within a
    line collapse.
    """

    def __init__(self, source, dictionary: ItemDictionary | None = None):
        self.source = source
        self.dictionary = dictionary if dictionary is not None else ItemDictionary()

    def __iter__(self) -> Iterator[tuple]:
        src = self.source
        intern = self.dictionary.intern
        with io.BytesIO(src) if isinstance(src, bytes) else open(src, "rb") as f:
            for line_no, raw in enumerate(f, start=1):
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as e:
                    raise ParseError(line_no, f"not valid UTF-8 ({e.reason})") from None
                line = line.rstrip("\r\n")
                if _CONTROL.search(line):
                    raise ParseError(line_no, "control character in item token")
                yield normalize(map(intern, line.split()))


def snapshot_lines(snapshot: Iterable[tuple[tuple, int]], fmt: str = "tsv") -> Iterator[str]:
    """Render a (itemset, support) sequence lazily, one text line per row.

    tsv: ``item item ...<TAB>support`` per row.  jsonl: one object per row
    with ``itemset`` and ``support`` keys.  Rows keep the order given.  An
    unknown ``fmt`` raises ValueError here, before any row is read.
    """
    if fmt == "tsv":
        return (" ".join(str(t) for t in items) + "\t" + str(supp) + "\n"
                for items, supp in snapshot)
    if fmt == "jsonl":
        return (json.dumps({"itemset": list(items), "support": supp}) + "\n"
                for items, supp in snapshot)
    raise ValueError(f"unknown snapshot format {fmt!r}")


def save_snapshot(path, snapshot: Iterable[tuple[tuple, int]], fmt: str = "tsv") -> None:
    """Write ``snapshot`` to ``path`` line by line, never holding the whole text."""
    lines = snapshot_lines(snapshot, fmt)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.writelines(lines)


class StatsWriter:
    """CSV emitter for replay records with a fixed header and column order."""

    def __init__(self, out):
        self.out = out
        out.write(",".join(STATS_COLUMNS) + "\n")

    def write(self, rec: StatsRecord) -> None:
        self.out.write(",".join(str(getattr(rec, c)) for c in STATS_COLUMNS) + "\n")
