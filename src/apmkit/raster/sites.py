"""Site records and the site CSV interchange format.

The CSV schema is fixed: ``site_id,x,y,period,polarity,find_count`` with
one row per site. ``x`` and ``y`` must be finite, ``period`` one of the
seven supported chronological periods, ``polarity`` one of ``positive``,
``negative`` or ``unlabeled``, and ``find_count`` may be empty.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass

from ..errors import DataError
from .grid import atomic_write

CSV_HEADER = ("site_id", "x", "y", "period", "polarity", "find_count")

PERIODS = (
    "Late Prehistory",
    "Iron Age–Archaic",
    "Achaemenid–Hellenistic",
    "Roman Imperial",
    "Late Antique",
    "Byzantine",
    "Late Ottoman",
)

POLARITIES = ("positive", "negative", "unlabeled")


@dataclass(frozen=True)
class SiteRecord:
    """A surveyed location with period, label polarity and optional finds."""

    site_id: str
    x: float
    y: float
    period: str
    polarity: str
    find_count: int | None = None

    def __post_init__(self) -> None:
        if not self.site_id:
            raise DataError("site_id must be non-empty")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DataError(
                f"site '{self.site_id}': coordinates must be finite, got ({self.x}, {self.y})"
            )
        if self.period not in PERIODS:
            raise DataError(
                f"site '{self.site_id}': unknown period {self.period!r}; "
                f"expected one of {', '.join(PERIODS)}"
            )
        if self.polarity not in POLARITIES:
            raise DataError(
                f"site '{self.site_id}': polarity must be one of {POLARITIES}, "
                f"got {self.polarity!r}"
            )
        if self.find_count is not None and self.find_count < 0:
            raise DataError(f"site '{self.site_id}': negative find_count")


def read_sites_csv(path: str | os.PathLike, period: str | None = None) -> list[SiteRecord]:
    """Read site records, validating schema and field values; with a
    ``period``, keep only that period's.

    Raises:
        DataError: on a wrong header, duplicate ids, or malformed rows.
    """
    sites: list[SiteRecord] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty sites file") from None
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise DataError(
                f"{path}: bad header {header!r}; expected {','.join(CSV_HEADER)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(CSV_HEADER):
                raise DataError(
                    f"{path}:{lineno}: expected {len(CSV_HEADER)} fields, got {len(row)}"
                )
            site_id, x, y, row_period, polarity, find_count = (c.strip() for c in row)
            try:
                record = SiteRecord(
                    site_id=site_id,
                    x=float(x),
                    y=float(y),
                    period=row_period,
                    polarity=polarity,
                    find_count=int(find_count) if find_count else None,
                )
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            if record.site_id in seen:
                raise DataError(f"{path}:{lineno}: duplicate site_id '{record.site_id}'")
            seen.add(record.site_id)
            sites.append(record)
    return filter_sites(sites, period=period) if period else sites


def write_sites_csv(path: str | os.PathLike, sites: list[SiteRecord]) -> None:
    """Write site records in the canonical CSV schema, atomically."""
    with atomic_write(path) as raw:
        fh = io.TextIOWrapper(raw, encoding="utf-8", newline="")
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for s in sites:
            writer.writerow(
                [
                    s.site_id,
                    repr(float(s.x)),
                    repr(float(s.y)),
                    s.period,
                    s.polarity,
                    "" if s.find_count is None else str(s.find_count),
                ]
            )
        fh.flush()


def filter_sites(
    sites: list[SiteRecord],
    period: str | None = None,
    polarity: str | None = None,
) -> list[SiteRecord]:
    """Subset sites by period and/or polarity."""
    if period is not None and period not in PERIODS:
        raise DataError(f"unknown period {period!r}")
    if polarity is not None and polarity not in POLARITIES:
        raise DataError(f"unknown polarity {polarity!r}")
    out = []
    for s in sites:
        if period is not None and s.period != period:
            continue
        if polarity is not None and s.polarity != polarity:
            continue
        out.append(s)
    return out
