"""Corpus ingestion and per-domain bookkeeping.

Corpora arrive as TSV (header ``domain<TAB>utterance<TAB>semantic_parse`` with
an optional ``split`` column) or JSONL (one object per line, same keys). The
file is read one line at a time, so neither its text nor its list of lines is
ever held whole. A leading UTF-8 byte-order mark is skipped. Rows end at
``\n`` or ``\r\n`` only. Each row's frame is validated and canonicalized
eagerly, so corruption surfaces at load time as a CorpusError reading
``PATH:LINE: message``.
A table keeps columns of canonical frame text and labels, not row objects or
trees. Row order is preserved because sampling determinism depends on it.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from .errors import CorpusError, FrameParseError, InputError, UnknownDomainError
from .frames import canonical_frame
from .jsonio import from_dict, loads, read_lines

SPLITS = ("train", "eval", "test")


class CorpusTable:
    """Immutable, order-preserving corpus columns indexed by domain and split.

    Built from ``(domain, utterance, parse, split)`` tuples, checked as
    ``load_corpus`` checks a file's rows. Row ``i`` is ``domain[i]``,
    ``utterance[i]``, ``parse[i]`` (canonical frame text, so exact match is
    string equality), ``split[i]`` (the ``SPLITS`` entry) and ``labels[i]`` (the
    frame's interned intent and slot labels in pre-order, root intent first).
    Rows share each distinct domain and split, and rows with the same bracket
    structure share one ``labels`` tuple.
    """

    def __init__(self, rows: Iterable[tuple[str, str, str, str]] = ()):
        self._fill((None, *row) for row in rows)

    def _fill(self, rows: Iterable[tuple], path: Path | None = None) -> None:
        """Check (line number, domain, utterance, frame, split) rows into the columns.

        Errors name ``path`` and the row's line number when the rows came from a file.
        """
        domain, utterance, parse, split, labels = [], [], [], [], []
        index: dict[str, tuple[str, dict[str, list[int]]]] = {}
        for lineno, name, text, frame, split_name in rows:
            if not name:
                raise CorpusError("empty domain", path, lineno)
            if split_name not in SPLITS:
                raise CorpusError(
                    f"unknown split {split_name!r} (expected one of {SPLITS})", path, lineno)
            split_name = SPLITS[SPLITS.index(split_name)]
            try:
                frame, frame_labels = canonical_frame(frame)
            except FrameParseError as exc:
                raise CorpusError(f"bad frame: {exc}", path, lineno) from exc
            entry = index.get(name)
            if entry is None:
                entry = index[name] = (sys.intern(name), {s: [] for s in SPLITS})
            entry[1][split_name].append(len(parse))
            domain.append(entry[0])
            utterance.append(text)
            parse.append(frame)
            split.append(split_name)
            labels.append(frame_labels)
        self.domain, self.utterance, self.parse, self.split, self.labels = map(
            tuple, (domain, utterance, parse, split, labels))
        self._index = {
            name: {s: tuple(ids) for s, ids in per_split.items()}
            for name, (_, per_split) in index.items()
        }

    def __len__(self) -> int:
        return len(self.parse)

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


def _tsv_fields(path: Path, fallback_split: str) -> Iterator[tuple]:
    lines = read_lines(path, CorpusError)
    first = next(lines, None)
    if first is None:
        raise CorpusError("TSV corpus has no header row", path, 1)
    header = first[1].split("\t")
    expected = ["domain", "utterance", "semantic_parse"]
    if header[:3] != expected or header not in (expected, expected + ["split"]):
        raise CorpusError(
            f"TSV header must be {expected} (optional trailing 'split'), got {header}", path, 1
        )
    for lineno, line in lines:
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != len(header):
            raise CorpusError(
                f"expected {len(header)} tab-separated fields, got {len(fields)}", path, lineno
            )
        yield lineno, fields[0], fields[1], fields[2], fields[3] if len(fields) == 4 else fallback_split


def _jsonl_fields(path: Path, fallback_split: str) -> Iterator[tuple]:
    for lineno, line in read_lines(path, CorpusError):
        if not line.strip():
            continue
        try:
            obj = from_dict(_JsonlRow, loads(line, "JSONL row"), "JSONL row")
        except InputError as exc:
            raise CorpusError(str(exc), path, lineno) from None
        split = fallback_split if obj.split is None else obj.split
        yield lineno, obj.domain, obj.utterance, obj.semantic_parse, split


def load_corpus(path: str | Path) -> CorpusTable:
    """Load a TSV or JSONL corpus into a CorpusTable, reading one line at a time.

    A ``.jsonl`` or ``.json`` extension means JSONL, any other TSV. A row without a
    split takes that of a ``_train``/``_eval``/``_test`` filename suffix, else ``train``.
    A malformed row raises CorpusError reading ``PATH:LINE: message``.
    """
    path = Path(path)
    fields = _jsonl_fields if path.suffix.lower() in (".jsonl", ".json") else _tsv_fields
    table = CorpusTable()
    try:
        table._fill(fields(path, _default_split(path)), path)
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc
    return table


def save_corpus(table: CorpusTable, path: str | Path) -> None:
    """Write a table back out as TSV with an explicit split column.

    A domain or utterance holding a tab or a newline raises CorpusError before
    anything is written: the TSV would not load back.
    """
    for i, (domain, utterance) in enumerate(zip(table.domain, table.utterance)):
        if any(c in domain or c in utterance for c in "\t\n"):
            raise CorpusError(f"row {i} ({domain!r}, {utterance!r}) holds a tab or newline; "
                              "a TSV corpus cannot carry it")
    lines = ["domain\tutterance\tsemantic_parse\tsplit"]
    lines += map("\t".join, zip(table.domain, table.utterance, table.parse, table.split))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
