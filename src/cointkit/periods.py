"""The period calendar: monthly and quarterly periods as absolute indices.

A period is a ``(year, month)`` pair; quarterly periods use the first month
of their quarter. Its absolute index counts periods from year 0 at the
series frequency, so consecutive periods have consecutive indices. This
module imports neither numpy nor any other cointkit module, so a command
that only reads a CSV needs neither.
"""

MONTHLY = 12
QUARTERLY = 4


def _abs_index(start: tuple[int, int], frequency: int) -> int:
    year, month = start
    if frequency == MONTHLY:
        return year * 12 + (month - 1)
    return year * 4 + (month - 1) // 3


def _from_abs_index(index: int, frequency: int) -> tuple[int, int]:
    if frequency == MONTHLY:
        return index // 12, index % 12 + 1
    return index // 4, (index % 4) * 3 + 1


_PERIOD_SUFFIXES = {
    MONTHLY: tuple(f"-{month:02d}" for month in range(1, 13)),
    QUARTERLY: ("Q1", "Q2", "Q3", "Q4"),
}


def period_labels(first: int, count: int, frequency: int) -> list[str]:
    """Labels of ``count`` consecutive periods from absolute period index ``first``."""
    year, skip = divmod(first, frequency)
    years = [f"{y:04d}" for y in range(year, (first + count - 1) // frequency + 1)]
    labels = [y + suffix for y in years for suffix in _PERIOD_SUFFIXES[frequency]]
    return labels[skip : skip + count]
