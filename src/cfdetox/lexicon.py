"""Bias-prone token lexicon: loading and whole-token matching.

A lexicon maps lowercase surfaces to one of three categories: nOI
(non-offensive identity), OI (offensive identity), OnI (offensive
non-identity).  Matching is whole-token and case-insensitive — substring
matching would flag e.g. "class" for "ass".
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from cfdetox.errors import ParseError, ValidationError, numbered_lines

CATEGORIES = ("nOI", "OI", "OnI")


@dataclass
class Lexicon:
    """Immutable after load; matching is pure and thread-safe."""

    entries: dict[str, str] = field(default_factory=dict)

    def category(self, surface: str) -> str:
        return self.entries[surface]


def load_lexicon(path: str | Path) -> Lexicon:
    """Read a ``surface,category`` file; ``#`` lines are comments.

    Surfaces are lowercased on load.  One that starts or ends with
    punctuation (a Unicode ``P*`` category) is an error: tokenization
    strips it, so the surface could never match.  A surface listed twice with
    conflicting categories is an error; repeating the same pair is allowed.
    """
    path = Path(path)
    entries: dict[str, str] = {}
    for line_no, raw in numbered_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(path, line_no, f"expected 'surface,category', got {line!r}")
        surface, category = parts[0].strip().lower(), parts[1].strip()
        if not surface or any(ch.isspace() for ch in surface):
            raise ParseError(path, line_no, f"bad surface {parts[0]!r}")
        if any(unicodedata.category(ch).startswith("P") for ch in (surface[0], surface[-1])):
            raise ValidationError(f"{path}:{line_no}: surface {surface!r} starts or ends with punctuation")
        if category not in CATEGORIES:
            raise ValidationError(
                f"{path}:{line_no}: unknown category {category!r}, expected one of {CATEGORIES}"
            )
        if surface in entries and entries[surface] != category:
            raise ValidationError(
                f"{path}:{line_no}: surface {surface!r} listed as both "
                f"{entries[surface]} and {category}"
            )
        entries[surface] = category
    return Lexicon(entries)


def save_lexicon(path: str | Path, lexicon: Lexicon, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for surface in sorted(lexicon.entries):
            fh.write(f"{surface},{lexicon.entries[surface]}\n")


def match_biased_tokens(tokens: Sequence[str], lexicon: Lexicon) -> tuple[str, ...]:
    """All tokens whose lowercased form is a lexicon surface.

    Returns matched surfaces (not the original spellings) in sentence
    order, duplicates preserved.  An empty result is valid.
    """
    return tuple(filter(lexicon.entries.__contains__, map(str.lower, tokens)))
