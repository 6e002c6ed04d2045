"""JSON helpers shared by the wire formats: exact rationals only."""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import Any, Sequence

_RAT_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")

# Integers of at most this many bits (about 600 digits) go through the
# interpreter's own conversions, which refuse more than
# sys.get_int_max_str_digits() digits; that limit is never below 640.
_DIRECT_BITS = 2000
_DIRECT_DIGITS = 600


def _int_to_decimal(n: int) -> str:
    """str(n) without the interpreter's digit limit: larger integers are
    split by divmod by a power of ten into halves converted in turn."""
    if n < 0:
        return "-" + _int_to_decimal(-n)
    if n.bit_length() <= _DIRECT_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits, 3/10 < log10(2)
    hi, lo = divmod(n, 10**k)
    return _int_to_decimal(hi) + _int_to_decimal(lo).zfill(k)


def _int_from_decimal(digits: str) -> int:
    """int(digits) for a string of decimal digits, without the interpreter's
    digit limit: longer strings are split in halves converted in turn."""
    if len(digits) <= _DIRECT_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _int_from_decimal(digits[:-k]) * 10**k + _int_from_decimal(digits[-k:])


def rational_str(x: Fraction) -> str:
    """str(x) -- "p" or "p/q" in lowest terms -- at any number of digits."""
    num = _int_to_decimal(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_int_to_decimal(x.denominator)}"


def _json_can_print(n: int) -> bool:
    limit = sys.get_int_max_str_digits()
    return not limit or n.bit_length() < 3 * limit or abs(n) < 10**limit


def rational_to_json(x: Fraction) -> int | str:
    """An int when the value is integral, else "p/q" in lowest terms.

    An integer with more digits than the interpreter will print, and so
    more than a JSON number can carry here, is given as a string of its
    digits, which ``rational_from_json`` reads back.
    """
    if x.denominator == 1 and _json_can_print(x.numerator):
        return int(x)
    return rational_str(x)


def rational_from_json(value: Any, where: str = "value") -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"{where}: expected an exact rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RAT_RE.match(value):
            raise ValueError(f"{where}: malformed rational string {value!r}")
        num, _, den = value.partition("/")
        sign = -1 if num.startswith("-") else 1
        return Fraction(
            sign * _int_from_decimal(num.lstrip("-")), _int_from_decimal(den) if den else 1
        )
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
    limit as malformed input (a ValueError) rather than a RecursionError,
    and a number past the interpreter's digit limit with the remedy."""
    try:
        return json.loads(text)
    except RecursionError as e:
        raise ValueError("malformed JSON: nesting exceeds the parser's depth limit") from e
    except json.JSONDecodeError:
        raise
    except ValueError as e:  # an integer past sys.get_int_max_str_digits()
        raise ValueError("a JSON number has too many digits; give it as a string of digits") from e


def compact_dumps(obj: Any) -> str:
    """Deterministic compact encoding used for content hashes."""
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)
