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
characters that are neither whitespace nor brackets. The grammar is this token
rule, as _tokens implements it, and one stack check over the tokens. The check
runs once per distinct skeleton (a frame's bracket tokens), and a skeleton's
interned labels are memoized among the 16,384 most recently checked skeletons.
"""

from __future__ import annotations

import functools
import re
import sys
from collections import Counter

from .errors import FrameParseError, InputError

INTENT_PREFIX = "IN:"
SLOT_PREFIX = "SL:"

_LABEL = re.compile(r"(?:IN|SL):[A-Z_:]+")


def _tokens(text: str) -> list[str]:
    """The frame's tokens: "[" and "]" end a word, as whitespace does."""
    return text.replace("[", " [").replace("]", " ] ").split()


def _offset(text: str, index: int) -> int:
    """Position in text of token number index: tokens lie in text in order,
    each after the whitespace that follows the one before it."""
    at = 0
    for token in _tokens(text)[:index + 1]:
        while text[at].isspace():
            at += 1
        start, at = at, at + len(token)
    return start


def _label_error(text: str, index: int, label: str, root: bool) -> FrameParseError:
    at = _offset(text, index) + 1
    if label.startswith((INTENT_PREFIX, SLOT_PREFIX)) and not _LABEL.fullmatch(label):
        return FrameParseError(f"empty or malformed label {label!r}", at)
    if root and label:
        return FrameParseError(f"root label {label!r} is not an intent", at)
    return FrameParseError(f"label must start with {INTENT_PREFIX!r} or {SLOT_PREFIX!r}", at)


def _checked_labels(text: str) -> list[str]:
    """The pre-order labels of the frame text.

    One pass over the tokens with a stack of the open nodes. Raises
    FrameParseError on the first fault met reading left to right: a nesting
    fault is reported when the inner node closes, at the outer node's '['.
    """
    tokens = _tokens(text)
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
                    f"trailing garbage after frame: {text[at:at + 20]!r}", at
                )
    if open_nodes:
        raise FrameParseError("unbalanced brackets: missing ']'",
                              _offset(text, open_nodes[-1][1]))
    return labels


@functools.lru_cache(maxsize=1 << 14)
def _skeleton_labels(skeleton: tuple[str, ...]) -> tuple[str, ...]:
    """The interned pre-order labels of a skeleton, a frame's "[LABEL" and "]" tokens."""
    return tuple(map(sys.intern, _checked_labels(" ".join(skeleton))))


def canonical_frame(text: str) -> tuple[str, tuple[str, ...]]:
    """Check frame text; return its canonical text and its labels in pre-order.

    The canonical text is the frame's tokens joined by single spaces, and the
    first label is the root intent. The labels are interned, and frames with
    the same memoized skeleton share one labels tuple. Raises FrameParseError
    (with character offset) on unbalanced brackets, a non-intent root, empty or
    malformed labels, an intent nested directly in an intent or a slot in a
    slot, or trailing garbage.

    Once the first token is '[' and the last is ']', the words in between
    cannot make a frame invalid, so a frame is well formed exactly when its
    skeleton is. Any other text, and a frame whose skeleton fails, is checked
    whole, which raises FrameParseError with the fault's offset in text.
    """
    tokens = _tokens(text)
    if tokens and tokens[0][0] == "[" and tokens[-1] == "]":
        try:
            labels = _skeleton_labels(tuple([token for token in tokens if token[0] in "[]"]))
        except FrameParseError:
            pass
        else:
            return " ".join(tokens), labels
    return " ".join(tokens), tuple(map(sys.intern, _checked_labels(text)))


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
