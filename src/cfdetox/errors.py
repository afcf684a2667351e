"""Exception taxonomy shared by every module, and the UTF-8 guard of the
text loaders.

The CLI maps these onto exit codes: ValidationError (and subclasses) -> 1,
OSError -> 2, NumericsError -> 3.
"""

from pathlib import Path
from typing import Iterator


class CfDetoxError(Exception):
    """Base class for all package errors."""


class ValidationError(CfDetoxError):
    """Invalid user input: bad flag values, bad labels, empty datasets."""


class ParseError(ValidationError):
    """Malformed file content; carries a 1-based line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def _not_utf8(path) -> ParseError:
    """ParseError for a text file that does not decode as UTF-8, naming
    the line of its first undecodable byte."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        return ParseError(path, line_no, f"not valid UTF-8 ({exc.reason} at byte {exc.start})")
    return ParseError(path, 1, "not valid UTF-8")


def read_text(path) -> str:
    """The whole of a UTF-8 text file; other bytes raise ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path) from exc


def numbered_lines(path) -> Iterator[tuple[int, str]]:
    """(1-based line number, line) pairs of a UTF-8 text file, read lazily;
    other bytes raise ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path) from exc


class ShapeError(ValidationError):
    """Array shape mismatch; message names both shapes."""


class VocabularyError(ValidationError):
    """Token id outside the vocabulary / embedding table."""


class ContractError(CfDetoxError):
    """A caller violated an operation's precondition."""


class DomainError(ContractError):
    """Math op evaluated outside its domain (e.g. log of a non-positive)."""


class NumericsError(CfDetoxError):
    """Non-finite values where finite ones are required (divergent loss)."""
