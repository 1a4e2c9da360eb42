"""Corpus ingestion and per-domain bookkeeping.

Corpora arrive as TSV (header ``domain<TAB>utterance<TAB>semantic_parse`` with
an optional ``split`` column) or JSONL (one object per line, same keys). Rows
end at ``\n`` or ``\r\n`` only. Each row's frame is validated and
canonicalized eagerly, so corruption surfaces at load time with a line number;
a row keeps the canonical frame text and its labels, not a tree
(``frames.parse_frame`` builds one on demand). Row order is preserved because
sampling determinism depends on it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import CorpusError, FrameParseError, InputError, UnknownDomainError
from .frames import canonical_frame
from .jsonio import from_dict, loads

SPLITS = ("train", "eval", "test")


@dataclass(frozen=True, slots=True)
class CorpusRow:
    """One corpus row; raises CorpusError for a split not in SPLITS and
    FrameParseError if ``parse`` is not a valid frame.

    ``parse`` is stored as canonical frame text, so exact match against it is
    string equality. ``labels`` holds the frame's intent and slot labels in
    pre-order: ``labels[0]`` is the root intent. A corpus has few distinct
    domains, splits and labels but many rows, so rows share one string object
    for each: the interned domain and labels, and the SPLITS entry. Rows with
    the same bracket structure share one ``labels`` tuple.
    """

    domain: str
    utterance: str
    parse: str
    split: str = "train"
    labels: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if self.split not in SPLITS:
            raise CorpusError(f"unknown split {self.split!r} (expected one of {SPLITS})")
        parse, labels = canonical_frame(self.parse)
        object.__setattr__(self, "domain", sys.intern(self.domain))
        object.__setattr__(self, "split", SPLITS[SPLITS.index(self.split)])
        object.__setattr__(self, "parse", parse)
        object.__setattr__(self, "labels", labels)


class CorpusTable:
    """Immutable, order-preserving view of corpus rows indexed by domain and split."""

    def __init__(self, rows: list[CorpusRow]):
        self.rows: tuple[CorpusRow, ...] = tuple(rows)
        index: dict[str, dict[str, list[int]]] = {}
        for pos, row in enumerate(self.rows):
            per_split = index.get(row.domain)
            if per_split is None:
                per_split = index[row.domain] = {s: [] for s in SPLITS}
            per_split[row.split].append(pos)
        self._index = {
            domain: {split: tuple(ids) for split, ids in per_split.items()}
            for domain, per_split in index.items()
        }

    def __len__(self) -> int:
        return len(self.rows)

    def domains(self) -> tuple[str, ...]:
        return tuple(self._index)

    def row_ids(self, domain: str, split: str) -> tuple[int, ...]:
        """Positions of a domain's rows in one split, in file order."""
        if domain not in self._index:
            raise UnknownDomainError(
                f"domain {domain!r} not in corpus (have: {', '.join(sorted(self._index))})"
            )
        if split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
        return self._index[domain][split]


def _default_split(path: Path) -> str:
    stem = path.stem
    for split in SPLITS:
        if stem.endswith("_" + split):
            return split
    return "train"


@dataclass(frozen=True)
class _JsonlRow:
    domain: str
    utterance: str
    semantic_parse: str
    split: str | None = None


def _row(domain: str, utterance: str, parse: str, split: str, line: int) -> CorpusRow:
    try:
        return CorpusRow(domain, utterance, parse, split)
    except FrameParseError as exc:
        raise CorpusError(f"bad frame: {exc}", line) from exc
    except CorpusError as exc:  # an unknown split
        raise CorpusError(str(exc), line) from None


def split_lines(text: str) -> list[str]:
    """Lines ended by ``\n`` or ``\r\n``; other line breaks stay inside a line.

    ``str.splitlines`` would also split at U+2028, U+0085, ``\v``, ``\f`` and
    more, which may appear inside an utterance or a JSON string.
    """
    lines = text.replace("\r\n", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def load_corpus(path: str | Path, format: str | None = None) -> CorpusTable:
    """Load a TSV or JSONL corpus into a CorpusTable.

    format defaults from the extension (.tsv vs .jsonl/.json). Rows without a
    split column take the split implied by a ``_train``/``_eval``/``_test``
    filename suffix, else ``train``.
    """
    path = Path(path)
    if format is None:
        format = "jsonl" if path.suffix.lower() in (".jsonl", ".json") else "tsv"
    if format not in ("tsv", "jsonl"):
        raise ValueError(f"format must be 'tsv' or 'jsonl', got {format!r}")
    try:
        lines = split_lines(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc

    fallback_split = _default_split(path)
    rows: list[CorpusRow] = []
    if format == "tsv":
        if not lines:
            raise CorpusError("TSV corpus has no header row", 1)
        header = lines[0].rstrip("\n").split("\t")
        expected = ["domain", "utterance", "semantic_parse"]
        if header[:3] != expected or header not in (expected, expected + ["split"]):
            raise CorpusError(
                f"TSV header must be {expected} (optional trailing 'split'), got {header}", 1
            )
        has_split = len(header) == 4
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != len(header):
                raise CorpusError(
                    f"expected {len(header)} tab-separated fields, got {len(fields)}", lineno
                )
            domain, utterance, parse_text = fields[0], fields[1], fields[2]
            if not domain:
                raise CorpusError("empty domain", lineno)
            split = fields[3] if has_split else fallback_split
            rows.append(_row(domain, utterance, parse_text, split, lineno))
    else:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = from_dict(_JsonlRow, loads(line, "JSONL row"), "JSONL row")
            except InputError as exc:
                raise CorpusError(str(exc), lineno) from None
            if not obj.domain:
                raise CorpusError("empty domain", lineno)
            split = fallback_split if obj.split is None else obj.split
            rows.append(_row(obj.domain, obj.utterance, obj.semantic_parse, split, lineno))
    return CorpusTable(rows)


def save_corpus(table: CorpusTable, path: str | Path) -> None:
    """Write a table back out as TSV with an explicit split column."""
    path = Path(path)
    lines = ["domain\tutterance\tsemantic_parse\tsplit"]
    for row in table.rows:
        lines.append("\t".join([row.domain, row.utterance, row.parse, row.split]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
