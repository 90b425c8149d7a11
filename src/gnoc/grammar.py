"""Link sentence parsing, serialization, and segment decomposition.

A link is a whitespace-separated token sentence over {S, W, B, R}; wires may
carry a ``.cb`` suffix selecting the clock-buffered sub-type.  A valid
sentence starts and ends with S, has at least one segment, and has at least
one non-S token between any two S tokens.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import GrammarError, LexError, SubtypeError
from .techlib import CB_SUBTYPE, DEFAULT_SUBTYPE, ACTIVE_KINDS, BlockKind, SubtypeTag

Token = tuple[BlockKind, SubtypeTag]
# (src, dst, n_wires, src is R or S, src token, dst buffer); see walk_link
Step = tuple[int, int, int, bool, int, int]


class Frozen:
    """Base of the non-tuple records (LinkSentence, golden.PathResult, hasta.TimingReport):
    __slots__ fields, read-only, set by _set; __reduce__ serves copy, pickle, ==, hash, repr."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __eq__(self, other):
        if not isinstance(other, Frozen):
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        fields = map("{}={!r}".format, self.__slots__, self.__reduce__()[1])
        return f"{type(self).__name__}({', '.join(fields)})"


class LinkSentence(Frozen):
    __slots__ = ("tokens",)

    def __init__(self, tokens: tuple[Token, ...]):
        self._set(tokens)

    def __len__(self):
        return len(self.tokens)

    def kinds(self) -> tuple[BlockKind, ...]:
        return tuple(k for k, _ in self.tokens)


class Segment(NamedTuple):
    """One active-to-active stretch: src/dst blocks plus intervening wire count."""

    src_kind: BlockKind
    dst_kind: BlockKind
    n_wires: int
    src_index: int
    dst_index: int


# the token of each word a sentence may hold
TOKENS = {kind._value_: (kind, DEFAULT_SUBTYPE) for kind in BlockKind}
TOKENS["W.cb"] = (BlockKind.W, CB_SUBTYPE)


def parse_link(text: str) -> LinkSentence:
    """Parse sentence text; raises LexError / GrammarError / SubtypeError."""
    words = []
    for raw in text.splitlines():
        words.extend(raw.split("#", 1)[0].split())
    if not words:
        raise GrammarError("empty link sentence", position=0)

    tokens: list[Token] = []
    for pos, word in enumerate(words):
        token = TOKENS.get(word)
        if token is None:
            base, _, suffix = word.partition(".")
            if base not in TOKENS:
                raise LexError(f"token {pos}: unknown token {word!r}", position=pos)
            if suffix != "cb":
                raise LexError(f"token {pos}: unknown suffix {word!r}", position=pos)
            raise SubtypeError(f"token {pos}: .cb is only valid on W, got {word!r}",
                               position=pos)
        tokens.append(token)

    if tokens[0][0] is not BlockKind.S:
        raise GrammarError("token 0: link must start with S", position=0)
    if len(tokens) == 1:
        raise GrammarError("token 0: link has no segment", position=0)
    last = len(tokens) - 1
    if tokens[last][0] is not BlockKind.S:
        raise GrammarError(f"token {last}: link must end with S", position=last)
    for i in range(1, len(tokens)):
        if tokens[i][0] is BlockKind.S and tokens[i - 1][0] is BlockKind.S:
            raise GrammarError(f"token {i}: adjacent S tokens (wire run must be nonempty)",
                               position=i)
    return LinkSentence(tuple(tokens))


def serialize_link(link: LinkSentence) -> str:
    """Canonical single-space serialization; inverse of parse_link."""
    # _value_ skips Enum.value's descriptor; `is` skips the plain tag's field read
    return " ".join(kind._value_ if sub is DEFAULT_SUBTYPE or not sub.clock_buffered
                    else kind._value_ + ".cb" for kind, sub in link.tokens)


def walk_link(link: LinkSentence) -> tuple[list[Step], list[int]]:
    """Segment steps and clock-buffer tokens of a link, from one walk over it.

    A step is (src, dst, n_wires, src is R or S, src token, dst buffer) per
    segment: src and dst index ACTIVE_KINDS, and dst buffer is the position
    of the segment's destination token in the buffer list.  The buffers are
    the tokens carrying a clock buffer, in token order: every active block
    plus every W.cb.  The link analysis reads both lists directly;
    segment_decompose and golden.clock_buffer_indices are views of them.
    """
    wire, buffer, index, plain = BlockKind.W, BlockKind.B, ACTIVE_KINDS.index, DEFAULT_SUBTYPE
    steps, buffers = [], []
    src = None
    for i, (kind, sub) in enumerate(link.tokens):
        if kind is wire:
            if sub is not plain and sub.clock_buffered:  # skips a slow NamedTuple read
                buffers.append(i)
            continue
        dst = index(kind)
        if src is not None:
            steps.append((src, dst, i - at - 1, sequential, at, len(buffers)))
        buffers.append(i)
        src, at, sequential = dst, i, kind is not buffer
    return steps, buffers


def segment_decompose(link: LinkSentence) -> list[Segment]:
    """Split a valid link into active-to-active segments covering it exactly."""
    return [Segment(ACTIVE_KINDS[s], ACTIVE_KINDS[d], n, at, at + n + 1)
            for s, d, n, _, at, _ in walk_link(link)[0]]
