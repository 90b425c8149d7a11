"""Link sentence parsing, serialization, and segment decomposition.

A link is a whitespace-separated token sentence over {S, W, B, R}; wires may
carry a ``.cb`` suffix selecting the clock-buffered sub-type.  A valid
sentence starts and ends with S and has at least one non-S token between any
two S tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import GrammarError, LexError, SubtypeError
from .techlib import CB_SUBTYPE, DEFAULT_SUBTYPE, ACTIVE_KINDS, BlockKind, SubtypeTag

Token = tuple[BlockKind, SubtypeTag]


@dataclass(frozen=True)
class LinkSentence:
    tokens: tuple[Token, ...]

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


def parse_link(text: str) -> LinkSentence:
    """Parse sentence text; raises LexError / GrammarError / SubtypeError."""
    words = []
    for raw in text.splitlines():
        words.extend(raw.split("#", 1)[0].split())
    if not words:
        raise GrammarError("empty link sentence", position=0)

    tokens: list[Token] = []
    for pos, word in enumerate(words):
        base, dot, suffix = word.partition(".")
        try:
            kind = BlockKind(base)
        except ValueError:
            raise LexError(f"token {pos}: unknown token {word!r}", position=pos) from None
        if not dot:
            tokens.append((kind, DEFAULT_SUBTYPE))
            continue
        if suffix != "cb":
            raise LexError(f"token {pos}: unknown suffix {word!r}", position=pos)
        if kind is not BlockKind.W:
            raise SubtypeError(f"token {pos}: .cb is only valid on W, got {word!r}",
                               position=pos)
        tokens.append((kind, CB_SUBTYPE))

    if tokens[0][0] is not BlockKind.S:
        raise GrammarError("token 0: link must start with S", position=0)
    last = len(tokens) - 1
    if tokens[last][0] is not BlockKind.S:
        raise GrammarError(f"token {last}: link must end with S", position=last)
    for i in range(1, len(tokens)):
        if tokens[i][0] is BlockKind.S and tokens[i - 1][0] is BlockKind.S:
            raise GrammarError(f"token {i}: adjacent S tokens (wire run must be nonempty)",
                               position=i)
    return LinkSentence(tuple(tokens))


def token_text(token: Token) -> str:
    kind, sub = token
    return f"{kind}.cb" if sub.clock_buffered else str(kind)


def serialize_link(link: LinkSentence) -> str:
    """Canonical single-space serialization; inverse of parse_link."""
    return " ".join(token_text(t) for t in link.tokens)


def segment_steps(link: LinkSentence) -> list[tuple[int, int, int, bool, int]]:
    """(src, dst, n_wires, src is R or S, src token) per segment, from one walk.

    src and dst index ACTIVE_KINDS.  The chaining loops of the link analysis
    read these tuples directly; segment_decompose builds Segment records.
    """
    wire, buffer, index = BlockKind.W, BlockKind.B, ACTIVE_KINDS.index
    steps = []
    src = None
    for i, (kind, _) in enumerate(link.tokens):
        if kind is wire:
            continue
        dst = index(kind)
        if src is not None:
            steps.append((src, dst, i - at - 1, sequential, at))
        src, at, sequential = dst, i, kind is not buffer
    return steps


def segment_decompose(link: LinkSentence) -> list[Segment]:
    """Split a valid link into active-to-active segments covering it exactly."""
    return [Segment(ACTIVE_KINDS[s], ACTIVE_KINDS[d], n, at, at + n + 1)
            for s, d, n, _, at in segment_steps(link)]
