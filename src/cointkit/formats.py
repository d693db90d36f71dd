"""Shared rendering helpers: 12-significant-digit machine numbers, stars,
the one record rule for report JSON, and its writer.

``significance_stars`` renders a reject map (``critvals.rejections``) and
compares nothing, so the CLI's rendering runs no critical-value code.

``json_dumps`` writes report JSON in one recursive pass: it rounds each
float to 12 significant digits as it writes (a non-finite one, such as the
infinite t-ratio of a perfect fit, becomes null: JSON has no text for
it), and its text is byte for byte ``json.dumps(rounded, indent=2,
allow_nan=False)`` plus a newline, with the same ASCII string escapes,
``repr`` of ints and floats, dict-key conversion and ``TypeError``.

``JsonRecord`` writes a record as its type tag, if it has one, then its
fields in declaration order. The ingest and Engle-Granger reports, the
Engle-Granger and ECM specs, guard warnings and the Monte Carlo results
use it; a record whose JSON is not its fields in order (``OlsFit``, the
unit-root, ECM and grid reports, ``DgpSpec``, ``TestConfig``) writes its own.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _json_str
from math import isfinite
from typing import Any, ClassVar


def fmt12s(value: float) -> str:
    """Machine string form of a float: 12 significant digits."""
    return f"{float(value):.12g}"


_PLAIN = (str, int, float)  # bools are ints; JSON takes these as they are


class JsonRecord:
    """The JSON rule shared by the plain reports, specs and results.

    ``to_json_dict`` gives the type tag, if the class sets ``_JSON_TYPE``,
    then each dataclass field in declaration order: nested records give
    their own ``to_json_dict``, tuples become lists, keys become strings,
    and ``None`` fields are omitted. A subclass sets ``_JSON_TYPE`` without
    an annotation, so that it is not a field.
    """

    _JSON_TYPE: ClassVar[str | None] = None

    def to_json_dict(self) -> dict:
        out = {} if self._JSON_TYPE is None else {"type": self._JSON_TYPE}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, _PLAIN):  # most fields: no call
                out[name] = value
            elif value is not None:
                out[name] = _json_value(value)
        return out


def _json_value(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(k): v if isinstance(v, _PLAIN) else _json_value(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [v if isinstance(v, _PLAIN) else _json_value(v) for v in value]
    return value.to_json_dict() if hasattr(value, "to_json_dict") else value


def json_dumps(obj: Any) -> str:
    """Deterministic JSON text: rounded floats, fixed separators, newline end."""
    out: list[str] = []
    _write_json(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _write_json(obj: Any, out: list[str], newline: str) -> None:
    """Append the JSON text of ``obj`` to ``out``; ``newline`` starts each line of its level.

    Report values are mostly floats, strings and dicts, so those are tested
    first; of the other checks, only the bools' must come before the ints'.
    """
    if isinstance(obj, float):
        out.append(float.__repr__(float(f"{float(obj):.12g}")) if isfinite(obj) else "null")
    elif isinstance(obj, str):
        out.append(_json_str(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                key = _json_key(key)
            out.append(f"{separator}{_json_str(key)}: ")
            _write_json(value, out, inner)
            separator = "," + inner
        out.append(newline + "}")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for value in obj:
            out.append(separator)
            _write_json(value, out, inner)
            separator = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _json_key(key: Any) -> str:
    """``json``'s text for a dict key that is not a str. Keys are not rounded."""
    if isinstance(key, float):
        if isfinite(key):
            return float.__repr__(key)
        raise ValueError("Out of range float values are not JSON compliant: " + repr(key))
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def significance_stars(reject_at: dict[int, bool]) -> str:
    """Table-note stars of a reject map: *** at 1 percent, ** at 5, * at 10."""
    return "***" if reject_at[1] else "**" if reject_at[5] else "*" if reject_at[10] else ""
