"""Tokenizer for English questions.

Splits on whitespace, detaches sentence-final punctuation, splits
possessive clitics (``Potter's`` -> ``Potter`` + ``'s``) and common
contractions.  Token offsets are preserved so downstream components can
refer back to the original question text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import TokenizationError

_CONTRACTIONS = {
    "can't": ("can", "n't"),
    "won't": ("will", "n't"),
    "don't": ("do", "n't"),
    "doesn't": ("does", "n't"),
    "isn't": ("is", "n't"),
    "aren't": ("are", "n't"),
    "wasn't": ("was", "n't"),
    "weren't": ("were", "n't"),
    "what's": ("what", "'s"),
    "who's": ("who", "'s"),
    "there's": ("there", "'s"),
    "it's": ("it", "'s"),
}

_WORD_RE = re.compile(r"[A-Za-z][A-Za-z\-]*|\d+|[^\sA-Za-z\d]")


@dataclass(frozen=True)
class Token:
    """A single token with its position in the token sequence."""

    index: int
    text: str

    @property
    def lower(self) -> str:
        return self.text.lower()

    @property
    def is_word(self) -> bool:
        return bool(self.text) and (self.text[0].isalpha() or self.text.isdigit())

    @property
    def is_punct(self) -> bool:
        return not self.is_word


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into a list of :class:`Token`.

    >>> [t.text for t in tokenize("Harry Potter's girlfriend?")]
    ['Harry', 'Potter', "'s", 'girlfriend', '?']
    """
    if not isinstance(text, str):
        raise TokenizationError(f"expected str, got {type(text).__name__}")
    if not text.strip():
        raise TokenizationError("cannot tokenize empty text")

    pieces: list[str] = []
    for raw in text.split():
        lowered = raw.lower()
        # strip trailing sentence punctuation first so contractions match
        trailing: list[str] = []
        while raw and raw[-1] in ".?!,;:":
            trailing.append(raw[-1])
            raw = raw[:-1]
            lowered = lowered[:-1]
        if lowered in _CONTRACTIONS:
            head, tail = _CONTRACTIONS[lowered]
            # preserve original casing of the head where possible
            pieces.append(raw[: len(head)] if len(raw) >= len(head) else head)
            pieces.append(tail)
        elif lowered.endswith("'s"):
            pieces.append(raw[:-2])
            pieces.append("'s")
        elif raw:
            pieces.extend(_WORD_RE.findall(raw))
        pieces.extend(reversed(trailing))

    tokens = [Token(i, piece) for i, piece in enumerate(pieces) if piece]
    if not tokens:
        raise TokenizationError(f"no tokens found in {text!r}")
    return tokens
