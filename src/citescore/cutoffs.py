"""Default year-to-cutoff mapping for annual snapshot builds.

The mapping ships as an editable JSON file next to the package so operators
can pin extra years; anything not listed falls back to the default rule
(31 May of the following year).
"""

from __future__ import annotations

import json
import os
from datetime import date

from .records import parse_date


def load_cutoff_table(path: str | None = None) -> dict:
    """Load the bundled table, or a user-supplied one with the same schema."""
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", "cutoff_dates.json")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        table = json.loads(text)
    except RecursionError:
        raise ValueError("nested too deeply") from None
    if not isinstance(table, dict):
        raise ValueError("cutoff table must be a JSON object")
    if "default_month_day" not in table or "years" not in table:
        raise ValueError("cutoff table needs 'default_month_day' and 'years' keys")
    if not isinstance(table["default_month_day"], str):
        raise ValueError("'default_month_day' must be an \"MM-DD\" string")
    if not isinstance(table["years"], dict):
        raise ValueError("'years' must be an object mapping years to YYYY-MM-DD strings")
    for year, pinned in table["years"].items():
        if not isinstance(pinned, str):
            raise ValueError(f"year {year} must be pinned to a YYYY-MM-DD string, not {pinned!r}")
    return table


def default_cutoff(year: int, table: dict | None = None) -> date:
    """Cutoff date for a metrics year per the table, else the default rule."""
    if table is None:
        table = load_cutoff_table()
    pinned = table["years"].get(str(year))
    if pinned is not None:
        return parse_date(pinned)
    month_day = table["default_month_day"]
    try:
        return parse_date(f"{year + 1:04d}-{month_day}")
    except ValueError as exc:
        raise ValueError(f"default_month_day {month_day!r} gives no date in {year + 1}: {exc}") from None
