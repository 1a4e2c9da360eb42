"""Bracketed semantic frames: check, canonicalize, compare.

A frame is written as ``[IN:GET_WEATHER what s the [SL:LOCATION boston ] forecast ]``:
intent and slot nodes over an utterance. Intent labels start with ``IN:``,
slot labels with ``SL:``; everything else is an utterance token. Intents may
contain tokens and slots; slots may contain tokens and nested intents.

A checked frame is a pair, its canonical text and its labels in pre-order, and
no tree is built. The canonical text is the frame's tokens joined by single
spaces; the first label is the root intent. exact_match is the one hit rule: a
prediction matches when its tokens, so joined, are the canonical reference.

A token is "[" with its label glued to it, "]", or a word: a maximal run of
characters that are neither whitespace nor brackets. One stack check over the
tokens defines the grammar; it runs once per distinct skeleton (a frame's
bracket tokens), and frames with the same skeleton share one tuple of interned
labels.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from collections.abc import Sequence
from itertools import islice

from .errors import FrameParseError, InputError

INTENT_PREFIX = "IN:"
SLOT_PREFIX = "SL:"


# The tokens as a regex, kept to find an error's offset. ``\s`` matches exactly
# the characters for which str.isspace() is true, where str.split() splits.
_TOKEN = re.compile(r"\[[^\s\[\]]*|\]|[^\s\[\]]+")
_LABEL = re.compile(r"(?:IN|SL):[A-Z_:]+")


def _tokens(text: str) -> list[str]:
    """_TOKEN.findall(text), faster: "[" and "]" end a word, as whitespace does."""
    return text.replace("[", " [").replace("]", " ] ").split()


def _offset(text: str, index: int) -> int:
    """Position in text of token number index."""
    return next(islice(_TOKEN.finditer(text), index, None)).start()


def _label_error(text: str, index: int, label: str, root: bool) -> FrameParseError:
    at = _offset(text, index) + 1
    if not label.startswith((INTENT_PREFIX, SLOT_PREFIX)):
        if root and label:
            return FrameParseError(f"root label {label!r} is not an intent", at)
        return FrameParseError(
            f"label must start with {INTENT_PREFIX!r} or {SLOT_PREFIX!r}", at
        )
    if not _LABEL.fullmatch(label):
        return FrameParseError(f"empty or malformed label {label!r}", at)
    return FrameParseError(f"root label {label!r} is not an intent", at)


def _checked_labels(text: str, tokens: Sequence[str]) -> list[str]:
    """The pre-order labels of the frame whose tokens are tokens.

    One pass over the tokens with a stack of the open nodes. Raises
    FrameParseError on the first fault met reading left to right: a nesting
    fault is reported when the inner node closes, at the outer node's '['.
    An error's offset finds the faulting token by its index among text's
    tokens, so it is exact only when tokens is the whole of _tokens(text).
    """
    if not tokens:
        raise FrameParseError("empty input", len(text))
    if tokens[0][0] != "[":
        raise FrameParseError("frame must start with '['", _offset(text, 0))
    labels: list[str] = []
    open_nodes: list[tuple[str, int]] = []  # (label's first letter, token index)
    last = len(tokens) - 1
    for index, token in enumerate(tokens):
        head = token[0]
        if head == "[":
            label = token[1:]
            if not _LABEL.fullmatch(label) or not (open_nodes or label[0] == "I"):
                raise _label_error(text, index, label, not open_nodes)
            labels.append(label)
            open_nodes.append((label[0], index))
        elif head == "]":
            kind = open_nodes.pop()[0]
            if open_nodes:
                outer, outer_index = open_nodes[-1]
                if outer == kind:
                    raise FrameParseError(
                        "intent nodes may only nest slots" if kind == "I"
                        else "slot nodes may only nest intents",
                        _offset(text, outer_index),
                    )
            elif index < last:
                at = _offset(text, index + 1)
                raise FrameParseError(
                    f"trailing garbage after frame: {text[at:][:20]!r}", at
                )
    if open_nodes:
        raise FrameParseError("unbalanced brackets: missing ']'",
                              _offset(text, open_nodes[-1][1]))
    return labels


# Interned labels of each checked skeleton: the tuple of a frame's "[LABEL"
# and "]" tokens. Emptied when full, so it stays near this size; threads that
# race on it can at worst check a skeleton again.
_SKELETON_MEMO_SIZE = 1 << 14
_skeletons: dict[tuple[str, ...], tuple[str, ...]] = {}


def _checked(text: str) -> tuple[list[str], tuple[str, ...]]:
    """The tokens and the interned pre-order labels of a well-formed frame.

    Once the first token is '[' and the last is ']', the words in between
    cannot make a frame invalid, so a frame is well formed exactly when its
    skeleton is, and each distinct skeleton is checked only once. Any other
    text, and a frame whose skeleton fails, is checked whole, which raises
    FrameParseError with the fault's offset in text.
    """
    tokens = _tokens(text)
    if tokens and tokens[0][0] == "[" and tokens[-1] == "]":
        skeleton = tuple([token for token in tokens if token[0] in "[]"])
        labels = _skeletons.get(skeleton)
        if labels is not None:
            return tokens, labels
        try:
            labels = tuple(map(sys.intern, _checked_labels(text, skeleton)))
        except FrameParseError:
            pass
        else:
            if len(_skeletons) >= _SKELETON_MEMO_SIZE:
                _skeletons.clear()
            _skeletons[skeleton] = labels
            return tokens, labels
    return tokens, tuple(map(sys.intern, _checked_labels(text, tokens)))


def canonical_frame(text: str) -> tuple[str, tuple[str, ...]]:
    """Check frame text; return its canonical text and its labels in pre-order.

    The canonical text is the frame's tokens joined by single spaces, and the
    first label is the root intent. The labels are interned, and frames with
    the same skeleton share one labels tuple. Raises FrameParseError (with
    character offset) on unbalanced brackets, a non-intent root, empty or
    malformed labels, an intent nested directly in an intent or a slot in a
    slot, or trailing garbage.
    """
    tokens, labels = _checked(text)
    return " ".join(tokens), labels


def exact_match(system: list[str], reference: list[str]) -> float:
    """Percent of positions where the system frame is its canonical reference.

    A system frame matches when it, or its tokens joined by single spaces, is its
    reference: as a frame's validity depends only on its tokens, that decides
    canonical_frame(s)[0] == r without a parse, and a frame that does not parse
    never matches. Both lists must be non-empty and the same length.
    """
    if not system or not reference:
        raise InputError("exact_match requires non-empty frame lists")
    if len(system) != len(reference):
        raise InputError(
            f"length mismatch: {len(system)} system vs {len(reference)} reference frames"
        )
    hits = sum(s == r or " ".join(_tokens(s)) == r for s, r in zip(system, reference))
    return 100.0 * hits / len(system)


# Benchmark seam: bench/tracer.py and bench/test_bench.py look these three names up
# here. Delete them once the package records its own spans.
parse_frame = canonical_frame


def serialize_frame(frame: tuple[str, tuple[str, ...]]) -> str:
    return frame[0]


def ontology_labels(frame: tuple[str, tuple[str, ...]]) -> Counter:
    return Counter(frame[1])
