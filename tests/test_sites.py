"""Site records and the sites CSV schema."""

from types import SimpleNamespace

import pytest

from apmkit.errors import DataError
from apmkit.raster.sites import (
    CSV_HEADER,
    PERIODS,
    SiteRecord,
    filter_sites,
    read_sites_csv,
    write_sites_csv,
)


def test_seven_periods():
    assert len(PERIODS) == 7
    assert "Roman Imperial" in PERIODS
    assert "Iron Age–Archaic" in PERIODS


def test_record_validation():
    with pytest.raises(DataError):
        SiteRecord("", 0.0, 0.0, "Byzantine", "positive")
    with pytest.raises(DataError):
        SiteRecord("s", 0.0, 0.0, "Medieval", "positive")
    with pytest.raises(DataError):
        SiteRecord("s", 0.0, 0.0, "Byzantine", "maybe")
    with pytest.raises(DataError):
        SiteRecord("s", 0.0, 0.0, "Byzantine", "positive", find_count=-1)
    ok = SiteRecord("s", 1.5, -2.5, "Byzantine", "unlabeled")
    assert ok.find_count is None


def test_csv_roundtrip(tmp_path):
    sites = [
        SiteRecord("a1", 10.25, -3.5, "Roman Imperial", "positive", 12),
        SiteRecord("a2", 0.0, 0.0, "Late Antique", "negative", None),
        SiteRecord("a3", -7.0, 99.125, "Iron Age–Archaic", "unlabeled", 0),
    ]
    path = tmp_path / "sites.csv"
    write_sites_csv(path, sites)
    assert path.read_text().splitlines()[0] == ",".join(CSV_HEADER)
    back = read_sites_csv(path)
    assert back == sites
    # Only the period asked for, whatever the last row's period.
    assert read_sites_csv(path, "Roman Imperial") == sites[:1]
    assert read_sites_csv(path, "Byzantine") == []


@pytest.mark.parametrize("previous", [False, True])
def test_failed_write_keeps_previous_file(tmp_path, previous):
    path = tmp_path / "sites.csv"
    good = [SiteRecord("a1", 10.25, -3.5, "Roman Imperial", "positive", 12)]
    if previous:
        write_sites_csv(path, good)
    before = path.read_bytes() if previous else None
    # The second row's x is not a number: the first row is already written.
    bad = SimpleNamespace(
        site_id="b", x="east", y=0.0, period="Byzantine", polarity="positive", find_count=None
    )
    other = SiteRecord("c3", 1.0, 2.0, "Late Antique", "negative")
    with pytest.raises(ValueError):
        write_sites_csv(path, [other, bad])
    assert (path.read_bytes() if path.exists() else None) == before
    assert [p.name for p in tmp_path.iterdir()] == (["sites.csv"] if previous else [])


def test_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,x,y,period,polarity,find_count\n")
    with pytest.raises(DataError, match="bad header"):
        read_sites_csv(path)


def test_row_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text(
        ",".join(CSV_HEADER)
        + "\ns1,1.0,2.0,Roman Imperial,positive,\n"
        + "s2,nope,2.0,Roman Imperial,positive,\n"
    )
    with pytest.raises(DataError, match=":3:"):
        read_sites_csv(path)


@pytest.mark.parametrize("x, y", [("nan", "5"), ("1", "inf"), ("-inf", "2"), ("NaN", "nan")])
def test_non_finite_coordinates_rejected(tmp_path, x, y):
    with pytest.raises(DataError, match="coordinates must be finite"):
        SiteRecord("a", float(x), float(y), "Roman Imperial", "positive")
    path = tmp_path / "rows.csv"
    path.write_text(
        ",".join(CSV_HEADER)
        + "\ns1,1.0,2.0,Roman Imperial,positive,\n"
        + f"a,{x},{y},Roman Imperial,positive,\n"
    )
    with pytest.raises(DataError, match=r"rows\.csv:3: site 'a': coordinates must be finite"):
        read_sites_csv(path)


def test_duplicate_ids(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        ",".join(CSV_HEADER)
        + "\ns1,1.0,2.0,Roman Imperial,positive,\n"
        + "s1,3.0,4.0,Roman Imperial,negative,\n"
    )
    with pytest.raises(DataError, match="duplicate site_id"):
        read_sites_csv(path)


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text(",".join(CSV_HEADER) + "\n\ns1,1,2,Byzantine,positive,5\n\n")
    assert len(read_sites_csv(path)) == 1


def test_filter_sites():
    sites = [
        SiteRecord("p1", 0, 0, "Byzantine", "positive"),
        SiteRecord("n1", 0, 0, "Byzantine", "negative"),
        SiteRecord("p2", 0, 0, "Late Antique", "positive"),
    ]
    assert [s.site_id for s in filter_sites(sites, period="Byzantine")] == ["p1", "n1"]
    assert [s.site_id for s in filter_sites(sites, polarity="positive")] == ["p1", "p2"]
    assert filter_sites(sites, period="Byzantine", polarity="positive")[0].site_id == "p1"
    with pytest.raises(DataError):
        filter_sites(sites, period="Unknown Era")
