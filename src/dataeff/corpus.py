"""Corpus ingestion and per-domain bookkeeping.

Corpora arrive as TSV (header ``domain<TAB>utterance<TAB>semantic_parse`` with
an optional ``split`` column) or JSONL (one object per line, same keys). The
file is read one line at a time, so neither its text nor its list of lines is
ever held whole. A leading UTF-8 byte-order mark is skipped. Rows end at
``\n`` or ``\r\n`` only. Each row's frame is validated and canonicalized
eagerly, so corruption surfaces at load time as a CorpusError reading
``PATH:LINE: message``.
A table keeps only what the pipeline reads: each row's canonical frame text
and labels, and the row positions of each (domain, split). Utterances are
checked (a JSONL utterance must be a string) but not kept, and there are no
row objects or trees. Row order is preserved because sampling determinism
depends on it.

A checked table is kept beside its corpus in ``.NAME.dataeff-cache`` (NAME is
the corpus file's name), so a later load of the same bytes skips the check.
A cache hit decodes the index and each test digest at once; the frame and
label columns stay CRC-checked marshal bytes until a command first reads them.
Its key is a SHA-256 digest of the bytes the check read, the reading rule (TSV
or JSONL, and the filename's fallback split) and the source of the modules
that check (``corpus``, ``frames``, ``jsonio``) under this Python.
The cache takes about as much disk as the corpus, and deleting it is safe. Only a
regular file owned by the current user is read as a cache. Any other cache
file, and one that is stale, truncated or corrupt, counts as a miss; one that
cannot be written is skipped. A corpus that is not a regular file, such as a
pipe, is read once and never cached.
"""

from __future__ import annotations

import marshal
import os
import stat
import sys
import zlib
from collections.abc import Iterable, Iterator
from contextlib import suppress
from dataclasses import dataclass
from hashlib import blake2b, sha256
from itertools import chain
from pathlib import Path
from threading import Lock

from . import frames, jsonio
from .errors import CorpusError, FrameParseError, InputError, UnknownDomainError
from .frames import canonical_frame
from .jsonio import from_dict, loads, read_lines

SPLITS = ("train", "eval", "test")


class CorpusTable:
    """Immutable, order-preserving corpus columns indexed by domain and split.

    Built from ``(domain, utterance, parse, split)`` tuples, checked as
    ``load_corpus`` checks a file's rows; the utterance is not kept. Row ``i``
    is ``parse[i]`` (canonical frame text, so exact match is string equality)
    and ``labels[i]`` (the frame's interned intent and slot labels in
    pre-order, root intent first). ``row_ids(domain, split)`` lists the rows of
    a domain's split, and ``test_digest(domain)`` fingerprints its test split.
    Rows with the same bracket structure share one ``labels`` tuple while it is
    among the 16,384 most recently checked structures. A table read from a
    cache decodes each column when it is first read.
    """

    def __init__(self, rows: Iterable[tuple[str, str, str, str]] = ()):
        self._fill((None, domain, parse, split) for domain, _, parse, split in rows)

    def _fill(self, rows: Iterable[tuple], path: Path | None = None) -> None:
        """Check (line number, domain, frame, split) rows into the columns and the index.

        Errors name ``path`` and the row's line number when the rows came from a file.
        """
        parse, labels = [], []
        index: dict[str, dict[str, list[int]]] = {}
        for lineno, name, frame, split in rows:
            if not name:
                raise CorpusError("empty domain", path, lineno)
            if split not in SPLITS:
                raise CorpusError(
                    f"unknown split {split!r} (expected one of {SPLITS})", path, lineno)
            try:
                frame, frame_labels = canonical_frame(frame)
            except FrameParseError as exc:
                raise CorpusError(f"bad frame: {exc}", path, lineno) from exc
            per_split = index.get(name)
            if per_split is None:
                per_split = index[name] = {s: [] for s in SPLITS}
            per_split[split].append(len(parse))
            parse.append(frame)
            labels.append(frame_labels)
        self.parse, self.labels = tuple(parse), tuple(labels)
        self._index = {
            name: {s: tuple(ids) for s, ids in per_split.items()}
            for name, per_split in index.items()
        }
        self._test_digests = {
            name: blake2b("\n".join(parse[row] for row in per_split["test"]).encode("utf-8"),
                          digest_size=16).hexdigest()
            for name, per_split in self._index.items()
        }

    def __getattr__(self, name: str):
        # Only a cached table lacks a column: _pending maps the column's name to its
        # CRC-checked marshal records. The lock makes runner threads that read a
        # column together decode it once.
        if name not in ("parse", "labels") or "_pending" not in self.__dict__:
            raise AttributeError(name)
        with self._decoding:
            if name not in self.__dict__:
                chunks = [marshal.loads(record) for record in self._pending.pop(name)]
                setattr(self, name, chunks[0] if len(chunks) == 1 else tuple(chain(*chunks)))
        return self.__dict__[name]

    def __len__(self) -> int:
        return sum(len(ids) for per_split in self._index.values() for ids in per_split.values())

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

    def test_digest(self, domain: str) -> str:
        """Hex blake2b (16 bytes) of the domain's test frames joined by ``\n``, in row order."""
        self.row_ids(domain, "test")  # the unknown-domain error
        return self._test_digests[domain]


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


def _tsv_fields(path: Path, fallback_split: str, digest) -> Iterator[tuple]:
    lines = read_lines(path, CorpusError, digest)
    first = next(lines, None)
    if first is None:
        raise CorpusError("TSV corpus has no header row", path, 1)
    header = first[1].split("\t")
    expected = ["domain", "utterance", "semantic_parse"]
    if header not in (expected, expected + ["split"]):
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
        yield lineno, fields[0], fields[2], fields[3] if len(fields) == 4 else fallback_split


def _jsonl_fields(path: Path, fallback_split: str, digest) -> Iterator[tuple]:
    for lineno, line in read_lines(path, CorpusError, digest):
        if not line.strip():
            continue
        try:
            obj = from_dict(_JsonlRow, loads(line, "JSONL row"), "JSONL row")
        except InputError as exc:
            raise CorpusError(str(exc), path, lineno) from None
        split = fallback_split if obj.split is None else obj.split
        yield lineno, obj.domain, obj.semantic_parse, split


def load_corpus(path: str | Path) -> CorpusTable:
    """Load a TSV or JSONL corpus into a CorpusTable, reading one line at a time.

    A ``.jsonl`` or ``.json`` extension means JSONL, any other TSV. A row without a
    split takes that of a ``_train``/``_eval``/``_test`` filename suffix, else ``train``.
    A malformed row raises CorpusError reading ``PATH:LINE: message``.
    A regular file's table is cached beside it in ``.NAME.dataeff-cache``, keyed
    by the digest of its bytes, its reading rule and the checking code; a load of
    the same bytes returns the cached table without checking it again. Only a
    regular cache file owned by the current user is read, a pipe is never cached,
    and deleting the cache is always safe.
    """
    path = Path(path)
    fields = _jsonl_fields if path.suffix.lower() in (".jsonl", ".json") else _tsv_fields
    fallback = _default_split(path)
    cache, digest = _cache_for(path, f"{fields.__name__} {fallback}")
    if cache is not None:
        table = _load_cached(path, cache, digest.copy())
        if table is not None:
            return table
    table = CorpusTable()
    try:
        table._fill(fields(path, fallback, digest), path)
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc
    if cache is not None:
        _save_cached(table, cache, digest.digest())
    return table


_CACHE_ROWS = 1024  # frames per cache record


def _cache_for(path: Path, rule: str):
    """(cache path, SHA-256 of the checking code and rule) for a regular file, else (None, None).

    The digest is to be fed the corpus bytes; the cache file starts with its value.
    """
    try:
        if not hasattr(os, "geteuid") or not stat.S_ISREG(os.stat(path).st_mode):
            return None, None
        code = b"".join(sha256(Path(source).read_bytes()).digest()
                        for source in (__file__, frames.__file__, jsonio.__file__))
    except OSError:
        return None, None
    return (path.with_name(f".{path.name}.dataeff-cache"),
            sha256(code + repr((sys.version, rule)).encode()))


def _load_cached(path: Path, cache: Path, digest) -> CorpusTable | None:
    """The table cached for the corpus's current bytes; None if there is none to trust."""
    try:
        # O_NONBLOCK: a pipe planted under the cache's name cannot block the open.
        with open(cache, "rb", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)
                  ) as handle:
            info = os.fstat(handle.fileno())
            if not stat.S_ISREG(info.st_mode) or info.st_uid != os.geteuid():
                return None
            with open(path, "rb") as corpus:
                while block := corpus.read(1 << 16):
                    digest.update(block)
            if handle.read(digest.digest_size) != digest.digest():
                return None
            return _read_table(_records(handle, info.st_size - digest.digest_size))
    except (OSError, EOFError, ValueError, StopIteration):  # unreadable, short or corrupt
        return None


def _records(handle, size: int) -> Iterator[bytes]:
    """The marshal bytes in size bytes of records: each a 4-byte length, a CRC-32 and that much."""
    while size > 0:
        head = handle.read(8)
        length = int.from_bytes(head[:4], "little")
        size -= len(head) + length
        if size < 0:
            raise EOFError("truncated cache")
        data = handle.read(length)
        if zlib.crc32(data) != int.from_bytes(head[4:], "little"):
            raise ValueError("corrupt cache record")
        yield data


def _record(value) -> bytes:
    data = marshal.dumps(value)
    return len(data).to_bytes(4, "little") + zlib.crc32(data).to_bytes(4, "little") + data


def _read_table(records: Iterator[bytes]) -> CorpusTable:
    table = CorpusTable.__new__(CorpusTable)
    table._index, table._test_digests = marshal.loads(next(records))
    labels, *frames = records
    if len(frames) != -(-len(table) // _CACHE_ROWS):
        raise EOFError("cache ends before its last row")
    # marshal interns a string that was interned when written, so labels come
    # back as the same objects that sys.intern holds.
    table._pending = {"labels": [labels], "parse": frames}
    table._decoding = Lock()
    return table


def _save_cached(table: CorpusTable, cache: Path, key: bytes) -> None:
    """Write the table to cache under key by jsonio.replace_file, so no reader sees half.

    The file is the key, then one record of the index and the test digests, one of
    the labels column, then one of frames per _CACHE_ROWS rows, each made as it is
    written, so a write never holds the whole frame column's marshal bytes. A read
    holds them, CRC-checked, until the column is first read."""
    # marshal stores an object that rows share once and refers back to it,
    # so shared labels come back shared.
    records = chain([(table._index, table._test_digests), table.labels],
                    (table.parse[i:i + _CACHE_ROWS] for i in range(0, len(table), _CACHE_ROWS)))
    with suppress(OSError):  # an unwritable cache costs only the next load its check
        jsonio.replace_file(cache, chain([key], map(_record, records)), 0o600)
