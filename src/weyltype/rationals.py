"""Canonical string form for exact rationals: "p/q" with q > 1, else "n"."""

from __future__ import annotations

from fractions import Fraction


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction or canonical string to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rational_from_json(value) -> Fraction:
    """An integer or canonical string read from JSON.  Floats and booleans
    raise ValueError, the error of bad input, not as_fraction's TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{value!r} is not an exact rational (an integer or a 'p/q' string)")
    return as_fraction(value)


def int_from_json(value, name: str) -> int:
    """An integer read from JSON; ValueError, never truncation, for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def object_from_json(value, name: str) -> dict:
    """A JSON object; ValueError naming ``name`` for any other JSON value."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    return value


def field_from_json(data: dict, key: str, name: str):
    """The field ``key`` of the JSON object ``name``; ValueError naming both
    when it is absent."""
    if key not in data:
        raise ValueError(f"{name} has no field {key!r}")
    return data[key]


def list_from_json(value, name: str) -> list:
    """A JSON list; ValueError naming ``name`` for any other JSON value."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def vector_from_json(values, length: int, name: str) -> tuple[Fraction, ...]:
    """A JSON list of ``length`` rationals; ValueError naming ``name`` otherwise."""
    vec = tuple(map(rational_from_json, list_from_json(values, name)))
    if len(vec) != length:
        raise ValueError(f"{name} {point_str(vec)} does not have length {length}")
    return vec


def rational_str(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        d = int(den)
        if d <= 0:
            raise ValueError(f"denominator must be positive in {text!r}")
        return Fraction(int(num), d)
    return Fraction(int(text))


def vector_strs(vec) -> list[str]:
    return [rational_str(Fraction(x)) for x in vec]


def point_str(vec) -> str:
    """A vector as rational text, e.g. "(1/3, 0)"."""
    return "(" + ", ".join(vector_strs(vec)) + ")"
