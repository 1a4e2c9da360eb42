"""The frame tree and the recursive-descent parser that ``dataeff.frames`` replaced.

Kept as the reference the token-based check is tested against: both must
accept and reject the same texts, with the same error message and offset, and
canonical_frame's text and labels must be the tree's serialization and its
labels in pre-order.
"""

from dataclasses import dataclass

from dataeff.errors import FrameParseError
from dataeff.frames import INTENT_PREFIX, SLOT_PREFIX


@dataclass(frozen=True)
class FrameNode:
    """One tree node: an ``intent``/``slot`` with a label, or a ``token`` with text."""

    kind: str  # "intent" | "slot" | "token"
    text: str  # ontology label for intent/slot nodes, surface text for tokens
    children: tuple["FrameNode", ...] = ()


def serialize_tree(node: FrameNode) -> str:
    """Canonical single-space text of the tree under node."""
    if node.kind == "token":
        return node.text
    return " ".join(["[" + node.text, *map(serialize_tree, node.children), "]"])


def tree_labels(node: FrameNode) -> list[str]:
    """Every intent and slot label under node, node's own first, in pre-order."""
    if node.kind == "token":
        return []
    return [node.text, *(label for child in node.children for label in tree_labels(child))]

_LABEL_BODY = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ_:")


def _valid_label(text: str) -> bool:
    body = text[3:]
    return bool(body) and all(ch in _LABEL_BODY for ch in body)


class _Parser:
    """Single-pass recursive descent over the bracketed grammar; fails fast."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, offset: int | None = None) -> FrameParseError:
        return FrameParseError(message, self.pos if offset is None else offset)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def read_word(self) -> str:
        """Maximal run of non-whitespace, non-bracket characters."""
        start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isspace() or ch in "[]":
                break
            self.pos += 1
        return self.text[start:self.pos]

    def parse_node(self, depth: int) -> FrameNode:
        open_at = self.pos
        assert self.text[self.pos] == "["
        self.pos += 1
        label_at = self.pos
        label = self.read_word()
        if label.startswith(INTENT_PREFIX):
            kind = "intent"
        elif label.startswith(SLOT_PREFIX):
            kind = "slot"
        else:
            if depth == 0 and label:
                raise self.error(f"root label {label!r} is not an intent", label_at)
            raise self.error(
                f"label must start with {INTENT_PREFIX!r} or {SLOT_PREFIX!r}", label_at
            )
        if not _valid_label(label):
            raise self.error(f"empty or malformed label {label!r}", label_at)
        if depth == 0 and kind != "intent":
            raise self.error(f"root label {label!r} is not an intent", label_at)

        children: list[FrameNode] = []
        while True:
            self.skip_ws()
            if self.pos >= len(self.text):
                raise self.error("unbalanced brackets: missing ']'", open_at)
            ch = self.text[self.pos]
            if ch == "]":
                self.pos += 1
                return FrameNode(kind, label, tuple(children))
            if ch == "[":
                child = self.parse_node(depth + 1)
                if kind == "intent" and child.kind != "slot":
                    raise self.error("intent nodes may only nest slots", open_at)
                if kind == "slot" and child.kind != "intent":
                    raise self.error("slot nodes may only nest intents", open_at)
                children.append(child)
            else:
                word_at = self.pos
                word = self.read_word()
                if not word:  # defensive: cannot happen given the checks above
                    raise self.error("unexpected character", word_at)
                children.append(FrameNode("token", word))

    def parse(self) -> FrameNode:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise self.error("empty input")
        if self.text[self.pos] != "[":
            raise self.error("frame must start with '['")
        root = self.parse_node(0)
        self.skip_ws()
        if self.pos < len(self.text):
            raise self.error(f"trailing garbage after frame: {self.text[self.pos:][:20]!r}")
        return root


def reference_parse(text: str) -> FrameNode:
    """The root node of text's frame; raises FrameParseError as canonical_frame does."""
    return _Parser(text).parse()
