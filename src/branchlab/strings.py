"""Binary strings as plain '0'/'1' str values.

The empty string is the tree root; it is rendered as the token "e" in
all textual I/O so that scenario files and reports never contain a
bare empty field.  Every enumeration in the package uses length-then-
lexicographic order, which makes all tie-breaking deterministic.
"""

from __future__ import annotations

from typing import Container, Iterable, Optional

EMPTY_TOKEN = "e"


def check_bits(s: str) -> str:
    if not isinstance(s, str) or not all(c in "01" for c in s):
        raise ValueError(f"not a binary string: {s!r}")
    return s


def lenlex_key(s: str) -> tuple[int, str]:
    return (len(s), s)


def sort_lenlex(strings: Iterable[str]) -> tuple[str, ...]:
    # a stable sort by length of the lex-sorted strings: the same order
    # as key=lenlex_key, without a Python call per string
    return tuple(sorted(sorted(strings), key=len))


def is_prefix(a: str, b: str) -> bool:
    """True iff a is an initial segment of b (including a == b)."""
    return b.startswith(a)


def is_proper_prefix(a: str, b: str) -> bool:
    return len(a) < len(b) and b.startswith(a)


def compatible(a: str, b: str) -> bool:
    """True iff one string is an initial segment of the other."""
    return a.startswith(b) or b.startswith(a)


def longest_proper_prefix(s: str, members: Container[str]) -> Optional[str]:
    """The longest proper prefix of s among the members, or None."""
    return next((s[:k] for k in range(len(s) - 1, -1, -1) if s[:k] in members),
                None)


def show_string(s: str) -> str:
    return s if s else EMPTY_TOKEN


def parse_string(tok: str) -> str:
    if tok == EMPTY_TOKEN:
        return ""
    return check_bits(tok)


def string_to_nat(s: str) -> int:
    """Bijection onto the naturals: prepend a 1 bit, read as binary, subtract 1.

    "" -> 0, "0" -> 1, "1" -> 2, "00" -> 3, ... (length-lex order of
    strings matches numeric order of codes).
    """
    return int("1" + s, 2) - 1


def nat_to_string(n: int) -> str:
    if n < 0:
        raise ValueError("codes are naturals")
    return bin(n + 1)[3:]  # strip '0b1'


def bits_of_values(values: Iterable[int]) -> str:
    """Longest prefix of a value sequence that reads as a binary string.

    Outputs of axiom tables are naturals; only an initial run of 0/1
    values can serve as an oracle string, so anything from the first
    non-bit value on is dropped.
    """
    out = []
    for v in values:
        if v not in (0, 1):
            break
        out.append(str(v))
    return "".join(out)
