"""JSON helpers shared by the wire formats: exact rationals only."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Sequence

_RAT_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def rational_to_json(x: Fraction) -> int | str:
    """An int when the value is integral, else "p/q" in lowest terms."""
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def rational_from_json(value: Any, where: str = "value") -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"{where}: expected an exact rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RAT_RE.match(value):
            raise ValueError(f"{where}: malformed rational string {value!r}")
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(
            f"{where}: floats are not accepted ({value!r}); use an integer or \"p/q\" string"
        )
    raise ValueError(f"{where}: expected an exact rational, got {type(value).__name__}")


def rationals_to_json(xs: Sequence[Fraction]) -> list[int | str]:
    return [rational_to_json(x) for x in xs]


def rationals_from_json(values: Any, where: str = "values") -> tuple[Fraction, ...]:
    if not isinstance(values, list):
        raise ValueError(f"{where}: expected a list")
    return tuple(rational_from_json(v, f"{where}[{i}]") for i, v in enumerate(values))


def load_json(text: str) -> Any:
    """``json.loads``, reporting nesting deeper than the parser's recursion
    limit as malformed input (a ValueError) rather than a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError as e:
        raise ValueError("malformed JSON: nesting exceeds the parser's depth limit") from e


def compact_dumps(obj: Any) -> str:
    """Deterministic compact encoding used for content hashes."""
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)
