"""Property tests: every subcommand maps a malformed config file, an
out-of-range flag and a corrupted grid header onto its documented exit
code (2 config, 3 data), and never ends in a traceback."""

import contextlib
import io
import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest

from apmkit.cli import main
from apmkit.crf import CrfConfig
from apmkit.pipeline import PipelineConfig
from apmkit.pseudolabel import DplConfig
from apmkit.raster.grid import RasterGrid, save_raster
from apmkit.raster.sites import SiteRecord, write_sites_csv

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_SETTINGS = settings(max_examples=30, deadline=None)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Small inputs, and the working directory a run's relative paths land in."""
    root = tmp_path_factory.mktemp("cli_properties")
    rows, cols = np.arange(24)[:, None], np.arange(32)[None, :]
    dem = (0.1 * rows + 0.06 * cols + np.sin(cols / 5.0)).astype(np.float32)
    save_raster(RasterGrid.from_array(dem, (0.0, 0.0, 1.0, -1.0)), root / "dem.grid")
    rng = np.random.default_rng(3)
    for name in ("branch1", "branch2"):
        prob = np.clip(rng.random((24, 32)), 0.01, 0.99).astype(np.float32)
        save_raster(RasterGrid.from_array(prob, (0.0, 0.0, 1.0, -1.0)), root / f"{name}.grid")
    write_sites_csv(root / "sites.csv", [
        SiteRecord("p1", 8.5, -8.5, "Roman Imperial", "positive", 9),
        SiteRecord("p2", 20.5, -15.5, "Roman Imperial", "positive", 4),
        SiteRecord("n1", 28.5, -4.5, "Roman Imperial", "negative", 1),
    ])
    cwd = os.getcwd()
    os.chdir(root)
    yield root
    os.chdir(cwd)


def _main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


# --- config files -----------------------------------------------------------

_COMMANDS = {
    "run": (
        ["run", "--config", "{config}"],
        [f.name for f in fields(PipelineConfig)] + ["inputs", "tile_size", "overlap"],
    ),
    "crf-refine": (
        ["crf-refine", "--logits", "branch1.grid", "--guidance", "dem.grid",
         "--config", "{config}", "--out", "out.grid"],
        [f.name for f in fields(CrfConfig)] + ["compression_factor", "crf_temperature"],
    ),
    "pseudolabel": (
        ["pseudolabel", "--branch1", "branch1.grid", "--branch2", "branch2.grid",
         "--config", "{config}", "--out-raster", "out.grid", "--out-json", "out.json"],
        [f.name for f in fields(DplConfig)],
    ),
}

# Numbers stay small, so a config that happens to be valid runs fast.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-3.0, 6.0)
    | st.sampled_from([math.nan, math.inf, 10**400]) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def config_files(draw):
    """(subcommand, file bytes): any JSON value, an object over the
    subcommand's own keys, or bytes that are not JSON."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    keys = st.sampled_from(_COMMANDS[command][1]) | st.text(max_size=6)
    doc = st.dictionaries(keys, _json_values, max_size=4) | _json_values
    blob = draw(doc.map(lambda v: json.dumps(v).encode("utf-8")) | st.binary(max_size=24))
    return command, blob


@_SETTINGS
@given(case=config_files())
def test_any_config_file_exits_0_or_2(ws, case):
    command, blob = case
    config = ws / "config.json"
    config.write_bytes(blob)
    argv = [a.format(config=config) for a in _COMMANDS[command][0]]
    code, err = _main(argv)
    assert code in (0, 2), (code, err)
    assert "Traceback" not in err


# --- numeric flags ----------------------------------------------------------

_below = st.floats(max_value=0.0, exclude_max=True)
_above = st.floats(min_value=1.0, exclude_min=True)
_GRID_SITES = ["--grid", "dem.grid", "--sites", "sites.csv"]
_PAIR = ["--branch1", "branch1.grid", "--branch2", "branch2.grid", "--out-json", "out.json"]
_CRF = ["crf-refine", "--logits", "branch1.grid", "--guidance", "dem.grid"]
_FLAGS = [
    (["lamap", "--stack", "dem.grid", "--sites", "sites.csv"], "--catchment", _below),
    (["lamap", "--stack", "dem.grid", "--sites", "sites.csv"], "--bandwidth",
     st.floats(max_value=0.0)),
    (["rasterize-labels", *_GRID_SITES], "--radius", _below),
    (["split-folds", "--sites", "sites.csv", "--stack", "dem.grid"], "--catchment", _below),
    (["split-folds", "--sites", "sites.csv", "--strategy", "uniform"], "--k",
     st.integers(max_value=1)),
    (["evaluate", "--pred", "branch1.grid", "--sites", "sites.csv"], "--bins",
     st.integers(max_value=0)),
    (["pseudolabel", *_PAIR], "--alpha", _below | _above),
    (["pseudolabel", *_PAIR], "--step", st.integers(max_value=-1)),
    (_CRF, "--beta", st.floats(max_value=0.1, exclude_max=True) | _above),
    (_CRF, "--sigma", st.floats(max_value=0.0)),
    (_CRF, "--gamma", st.integers().filter(lambda g: g not in (2, 4))),
    (_CRF, "--temperature",
     st.floats(max_value=1.0, exclude_max=True) | st.floats(min_value=5.0, exclude_min=True)),
    (_CRF, "--iters", st.integers(max_value=1) | st.integers(min_value=11)),
    (["stitch", "--grid", "dem.grid"], "--tile", st.integers(max_value=0)),
    (["stitch", "--grid", "dem.grid"], "--overlap", _below | st.floats(min_value=1.0)),
]


@st.composite
def out_of_range_flags(draw):
    base, flag, values = draw(st.sampled_from(_FLAGS))
    value = draw(values.filter(lambda v: not (isinstance(v, float) and math.isnan(v))))
    out = "--out-plan" if base[0] == "stitch" else (
        "--out-raster" if base[0] == "pseudolabel" else "--out"
    )
    return [*base, f"{flag}={value!r}", out, "flag_out"]


@_SETTINGS
@given(argv=out_of_range_flags())
def test_out_of_range_flag_exits_2(ws, argv):
    code, err = _main(argv)
    assert code == 2, (code, err)
    assert "Traceback" not in err
    assert not (ws / "flag_out").exists()


# --- grid headers -----------------------------------------------------------

_SIZE_KEYS = ("width", "height", "bands")


@st.composite
def corrupted_headers(draw, header):
    """Header bytes that no reader may accept: not a JSON object, a
    required key gone, or one entry of the wrong type or size."""
    kind = draw(st.sampled_from(["bytes", "drop", "value"]))
    if kind == "bytes":
        blob = draw(st.binary(max_size=40))
        with contextlib.suppress(ValueError):
            assume(not isinstance(json.loads(blob.decode("utf-8")), dict))
        return blob
    edited = dict(header)
    if kind == "drop":
        del edited[draw(st.sampled_from([*_SIZE_KEYS, "geotransform", "band_names"]))]
    else:
        key = draw(st.sampled_from([*_SIZE_KEYS, "geotransform", "band_names", "nodata", "meta"]))
        value = draw(_json_values)
        # Any other size mismatches the payload; the rest must break their type.
        if key in _SIZE_KEYS:
            size = header[key]
            near = [float(size), str(size), size + 1, 10**12, 10**400]
            value = draw(st.sampled_from(near) | st.just(value))
            assume(value != size or type(value) is not int)
        elif key == "geotransform":
            assume(not (isinstance(value, list) and len(value) == 4
                        and all(type(v) in (int, float) for v in value)))
        elif key == "band_names":
            assume(not (isinstance(value, list) and len(value) == header["bands"]))
        elif key == "nodata":
            assume(value is not None and type(value) not in (int, float))
        else:
            assume(not isinstance(value, dict))
        edited[key] = value
    return json.dumps(edited).encode("utf-8")


@_SETTINGS
@given(data=st.data())
def test_corrupted_grid_header_exits_3(ws, data):
    raw = (ws / "branch1.grid").read_bytes()
    hlen = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    blob = data.draw(corrupted_headers(json.loads(raw[8:8 + hlen])))
    bad = ws / "bad.grid"
    bad.write_bytes(raw[:4] + np.uint32(len(blob)).tobytes() + blob + raw[8 + hlen:])
    code, err = _main(["evaluate", "--pred", bad, "--sites", "sites.csv", "--out", "r.json"])
    assert code == 3, (code, err)
    assert "bad.grid" in err and "Traceback" not in err
