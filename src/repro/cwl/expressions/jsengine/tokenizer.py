"""Tokenizer for the mini-JavaScript engine.

Produces a flat list of :class:`Token` objects.  The token set covers the
expression/statement subset CWL documents use: numeric and string literals,
template literals are *not* supported, identifiers and keywords, punctuation
and the usual operator set (including ``===``/``!==`` and the arrow ``=>`` used
by array callbacks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

from repro.cwl.errors import JavaScriptError

KEYWORDS = {
    "var", "let", "const", "function", "return", "if", "else", "for", "while",
    "true", "false", "null", "undefined", "new", "typeof", "in", "of", "break",
    "continue", "throw",
}

# Longest first so that e.g. '===' is matched before '=='.
_PUNCTUATION = [
    "===", "!==", "=>", "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=",
    "+", "-", "*", "/", "%", "<", ">", "!", "=", "?", ":", ";", ",", ".",
    "(", ")", "[", "]", "{", "}",
]


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def number_value(text: str) -> Union[int, float]:
    """The value of a ``number`` token: ``0x`` hexadecimal, else decimal
    (a float when it has a fraction or an exponent)."""
    if text[:2] in ("0x", "0X"):
        return int(text, 16)
    return float(text) if ("." in text or "e" in text or "E" in text) else int(text)


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: str       # number | string | identifier | keyword | punct | eof
    value: str
    position: int


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``; raises :class:`JavaScriptError` on malformed input."""
    tokens: List[Token] = []
    i = 0
    length = len(source)
    while i < length:
        ch = source[i]

        # Whitespace
        if ch.isspace():
            i += 1
            continue

        # Comments
        if ch == "/" and i + 1 < length and source[i + 1] == "/":
            while i < length and source[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < length and source[i + 1] == "*":
            end = source.find("*/", i + 2)
            if end == -1:
                raise JavaScriptError(f"unterminated block comment at position {i}")
            i = end + 2
            continue

        # String literals
        if ch in ("'", '"'):
            value, consumed = _read_string(source, i)
            tokens.append(Token("string", value, i))
            i += consumed
            continue

        # Numbers: hexadecimal, then decimal
        if ch == "0" and i + 1 < length and source[i + 1] in "xX":
            j = i + 2
            while j < length and source[j] in _HEX_DIGITS:
                j += 1
            if j == i + 2:
                raise JavaScriptError(f"invalid hexadecimal number at position {i}")
            tokens.append(Token("number", source[i:j], i))
            i = j
            continue
        if ch.isdigit() or (ch == "." and i + 1 < length and source[i + 1].isdigit()):
            j = i
            seen_dot = False
            seen_exp = False
            while j < length:
                c = source[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    seen_exp = True
                    j += 1
                    if j < length and source[j] in "+-":
                        j += 1
                else:
                    break
            tokens.append(Token("number", source[i:j], i))
            i = j
            continue

        # Identifiers / keywords
        if ch.isalpha() or ch in "_$":
            j = i
            while j < length and (source[j].isalnum() or source[j] in "_$"):
                j += 1
            word = source[i:j]
            tokens.append(Token("keyword" if word in KEYWORDS else "identifier", word, i))
            i = j
            continue

        # Punctuation / operators
        matched = False
        for punct in _PUNCTUATION:
            if source.startswith(punct, i):
                tokens.append(Token("punct", punct, i))
                i += len(punct)
                matched = True
                break
        if matched:
            continue

        raise JavaScriptError(f"unexpected character {ch!r} at position {i}")

    tokens.append(Token("eof", "", length))
    return tokens


def _read_string(source: str, start: int) -> tuple[str, int]:
    """Read a quoted string starting at ``start``; returns (value, chars consumed)."""
    quote = source[start]
    i = start + 1
    out: List[str] = []
    while i < len(source):
        ch = source[i]
        if ch == "\\":
            if i + 1 >= len(source):
                raise JavaScriptError("unterminated escape sequence in string literal")
            escape = source[i + 1]
            mapping = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", "'": "'", '"': '"', "0": "\0", "b": "\b", "f": "\f"}
            if escape == "u" and i + 5 < len(source):
                out.append(chr(int(source[i + 2:i + 6], 16)))
                i += 6
                continue
            out.append(mapping.get(escape, escape))
            i += 2
            continue
        if ch == quote:
            return "".join(out), (i - start + 1)
        out.append(ch)
        i += 1
    raise JavaScriptError(f"unterminated string literal starting at position {start}")
