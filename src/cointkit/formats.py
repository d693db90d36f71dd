"""Shared rendering helpers: 12-significant-digit machine numbers, stars,
and the one record rule for report JSON.

``JsonRecord`` writes a record as its type tag, if it has one, then its
fields in declaration order. The ingest and Engle-Granger reports, the
Engle-Granger and ECM specs, guard warnings and the Monte Carlo results
use it; a record whose JSON is not its fields in order (``OlsFit``, the
unit-root, ECM and grid reports, ``DgpSpec``, ``TestConfig``) writes its own.
"""

from __future__ import annotations

import json
import math
from typing import Any, ClassVar


def fmt12s(value: float) -> str:
    """Machine string form of a float: 12 significant digits."""
    return f"{float(value):.12g}"


def fmt12(value: float) -> float:
    """Float rounded to the 12-significant-digit machine precision."""
    return float(fmt12s(value))


def round_floats(obj: Any) -> Any:
    """Recursively round every float in a JSON-able structure to 12 digits.

    Non-finite values (infinite t-ratios from perfect fits) become null:
    JSON has no representation for them and emitting text like ``Infinity``
    would break strict parsers.
    """
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return fmt12(obj) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


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
    return json.dumps(round_floats(obj), indent=2, sort_keys=False, allow_nan=False) + "\n"


def significance_stars(statistic: float, critical_values: dict[int, float]) -> str:
    """Table-note stars: *** at 1 percent, ** at 5, * at 10."""
    if statistic < critical_values[1]:
        return "***"
    if statistic < critical_values[5]:
        return "**"
    if statistic < critical_values[10]:
        return "*"
    return ""
