"""The typed config builder, the JSON file reader, and every JSON document
the toolkit reads through them."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
from dataclasses import FrozenInstanceError, dataclass, field

import numpy as np
import pytest

from apmkit.config import build_config, config_values, read_json
from apmkit.crf import CrfConfig
from apmkit.errors import ConfigError, DataError
from apmkit.folds import FoldAssignment
from apmkit.lamap import LamapConfig
from apmkit.metrics import BinStats, Metrics, MetricsReport
from apmkit.pipeline import PipelineConfig, RunInputs
from apmkit.pseudolabel import DplConfig
from apmkit.raster.distance import load_targets
from apmkit.raster.grid import RasterGrid, load_raster, save_raster, write_json
from apmkit.raster.tiling import load_plan, plan_windows, save_plan


@dataclass
class Sample:
    flag: bool = False
    count: int = 1
    scale: float = 1.0
    name: str = "a"
    pair: tuple[float, float] = (0.0, 0.0)
    items: tuple[int, ...] = ()
    maybe: int | None = None

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be >= 0")


@dataclass
class Aliased:
    count: int = field(default=1, metadata={"alias": "n"})
    name: str = "a"


class TestValueRules:
    def test_accepted_values(self):
        cfg = build_config(Sample, {
            "flag": True, "count": 3, "scale": 2, "name": "b", "pair": [1, 2.5],
            "items": [4, 5], "maybe": None,
        }, "sample")
        assert cfg == Sample(True, 3, 2.0, "b", (1.0, 2.5), (4, 5), None)
        assert type(cfg.scale) is float and type(cfg.pair[0]) is float

    @pytest.mark.parametrize(
        "key,value",
        [
            ("flag", "no"), ("flag", 1), ("flag", None),
            ("count", True), ("count", 5.5), ("count", 5.0), ("count", "5"),
            ("scale", False), ("scale", "1.5"), ("scale", float("nan")),
            ("scale", float("inf")), ("scale", 10**400),
            ("name", 7), ("name", ["a"]),
            ("pair", [1.0]), ("pair", [1.0, 2.0, 3.0]), ("pair", "ab"), ("pair", [1.0, "2"]),
            ("items", [0.5]), ("items", "12"), ("items", {"a": 1}),
            ("maybe", 1.5),
        ],
    )
    def test_rejected_values(self, key, value):
        with pytest.raises(ConfigError, match=f"sample {key}"):
            build_config(Sample, {key: value}, "sample")

    def test_unknown_key_and_non_object(self):
        with pytest.raises(ConfigError, match="unknown sample key 'other'"):
            build_config(Sample, {"other": 1}, "sample")
        for doc in ([1], "x", None, 3):
            with pytest.raises(ConfigError, match="sample must be an object"):
                build_config(Sample, doc, "sample")

    def test_aliases_given_values_and_names(self):
        assert build_config(Aliased, {"n": 4}, "sample").count == 4
        assert build_config(Aliased, {"count": 5}, "sample").count == 5
        assert config_values(Aliased, {"n": 2}, "sample") == {"count": 2}
        # An alias belongs to its own class only.
        with pytest.raises(ConfigError, match="unknown sample key 'n'"):
            build_config(Sample, {"n": 4}, "sample")

    @pytest.mark.parametrize("name,alias", [
        ("compression", "compression_factor"), ("temperature", "crf_temperature"),
    ])
    @pytest.mark.parametrize("swap", [False, True], ids=["name-first", "alias-first"])
    def test_crf_field_given_twice_is_refused_in_either_order(self, name, alias, swap):
        keys = (alias, name) if swap else (name, alias)
        doc = dict(zip(keys, (2, 4)))
        message = f"crf keys '{keys[0]}' and '{keys[1]}' both give {name}"
        with pytest.raises(ConfigError, match=message):
            build_config(CrfConfig, doc, "crf")
        run = {"output_dir": "x", "stages": ["features"], "inputs": {"dem": "d"}, "crf": doc}
        with pytest.raises(ConfigError, match=f"config crf keys '{keys[0]}' and '{keys[1]}'"):
            PipelineConfig.from_json(run)

    def test_dataclass_checks_become_config_errors(self):
        with pytest.raises(ConfigError, match="count must be >= 0"):
            build_config(Sample, {"count": -1}, "sample")

    def test_crf_compatibility_takes_null_or_a_finite_2x2_list(self):
        potts = build_config(CrfConfig, {"compatibility": None}, "crf").compatibility
        assert potts == ((0.0, 1.0), (1.0, 0.0))
        given = build_config(CrfConfig, {"compatibility": [[0, 0.5], [2, 0]]}, "crf")
        assert given.compatibility == ((0.0, 0.5), (2.0, 0.0))
        with pytest.raises(ConfigError, match="crf compatibility must be a list of 2"):
            build_config(CrfConfig, {"compatibility": [[0, 1], [1, 0], [1, 1]]}, "crf")
        with pytest.raises(ConfigError, match=r"crf compatibility\[0\]\[1\] must be a finite"):
            build_config(CrfConfig, {"compatibility": [[0.0, float("nan")], [1.0, 0.0]]}, "crf")


@dataclass
class Nested:
    inner: Sample
    rows: list[Sample] = field(default_factory=list)
    table: dict[str, int] = field(default_factory=dict)


class TestNestedValues:
    def test_dataclass_list_and_dict_fields(self):
        doc = {"inner": {"count": 2}, "rows": [{}, {"name": "b"}], "table": {"a": 1}}
        got = build_config(Nested, doc, "doc", error=DataError)
        assert got == Nested(Sample(count=2), [Sample(), Sample(name="b")], {"a": 1})
        assert type(got.rows) is list

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({}, "doc lacks inner"),
            ({"inner": 1}, "doc inner must be an object"),
            ({"inner": {"count": -1}}, "bad doc inner value: count must be >= 0"),
            ({"inner": {}, "rows": {}}, "doc rows must be a list"),
            ({"inner": {}, "rows": [{"count": 1.5}]}, r"doc rows\[0\] count must be an integer"),
            ({"inner": {}, "table": []}, "doc table must be an object"),
            ({"inner": {}, "table": {"a": True}}, r"doc table\['a'\] must be an integer"),
        ],
    )
    def test_rejections_take_the_given_error(self, doc, message):
        with pytest.raises(DataError, match=message):
            build_config(Nested, doc, "doc", error=DataError)


# --- every JSON document the toolkit reads -----------------------------------

_DROP = object()

_DOCUMENTS = {
    "targets": {"points": [[1, 2]], "lines": [[[0, 0], [3, 3]]]},
    "plan": {
        "height": 8, "width": 8, "geotransform": [0, 0, 1, -1],
        "windows": [{"row0": 0, "col0": 0, "size": 8, "crop_margin": 0}],
    },
    "folds": FoldAssignment(2, {"a": 0, "b": 1}, "manual", 0, imbalance=0.5).to_dict(),
    "report": MetricsReport(
        Metrics(auroc=0.7), bins=(BinStats(0.0, 0.5, 2, 0.3, 0.5, 0.2),)
    ).to_dict(),
    "header": {
        "width": 3, "height": 2, "bands": 1, "band_names": ["b"],
        "geotransform": [0, 0, 1, -1], "nodata": None, "meta": {},
    },
}

_LOADERS = {
    "targets": load_targets,
    "plan": load_plan,
    "folds": FoldAssignment.load,
    "report": lambda path: MetricsReport.from_dict(read_json(path, ConfigError)),
    "header": load_raster,
}

# Per document, in order: a bool where an integer belongs (targets hold no
# integer, so a bool where a number belongs), a string where a number
# belongs, NaN, an unknown key and a missing required key (for targets, a
# point without its y).
_MALFORMED = {
    "targets": [
        (("points", 0, 0), True), (("points", 0, 1), "2"), (("lines", 0, 1, 0), float("nan")),
        (("polygons",), []), (("points", 0, 1), _DROP),
    ],
    "plan": [
        (("windows", 0, "row0"), True), (("geotransform", 0), "0"),
        (("geotransform", 2), float("nan")), (("windows", 0, "extra"), 1), (("height",), _DROP),
    ],
    "folds": [
        (("k",), True), (("imbalance",), "0.5"), (("imbalance",), float("nan")),
        (("extra",), 1), (("assignment",), _DROP),
    ],
    "report": [
        (("bins", 0, "count"), True), (("metrics", "auroc"), "0.7"),
        (("metrics", "auroc"), float("nan")), (("metrics", "auc"), 0.7),
        (("bins", 0, "count"), _DROP),
    ],
    "header": [
        (("width",), True), (("geotransform", 0), "0"), (("geotransform", 2), float("nan")),
        (("extra",), 1), (("bands",), _DROP),
    ],
}

_CASES = [
    (name, keys, value)
    for name, edits in _MALFORMED.items()
    for keys, value in edits
]
_IDS = [
    f"{name}-{kind}"
    for name in _MALFORMED
    for kind in ("bool", "string", "nan", "unknown", "missing")
]


def _write_document(path, name, doc) -> None:
    blob = json.dumps(doc).encode("utf-8")
    if name == "header":
        payload = np.zeros(6, dtype="<f4").tobytes()
        blob = b"APMG" + np.uint32(len(blob)).tobytes() + blob + payload
    path.write_bytes(blob)


class TestDocuments:
    @pytest.mark.parametrize("name", list(_DOCUMENTS))
    def test_well_formed_document_loads(self, tmp_path, name):
        path = tmp_path / f"{name}.doc"
        _write_document(path, name, _DOCUMENTS[name])
        _LOADERS[name](path)

    @pytest.mark.parametrize("name,keys,value", _CASES, ids=_IDS)
    def test_malformed_document_raises_its_error(self, tmp_path, name, keys, value):
        doc = copy.deepcopy(_DOCUMENTS[name])
        *outer, last = keys
        target = doc
        for key in outer:
            target = target[key]
        if value is _DROP:
            del target[last]
        else:
            target[last] = value
        path = tmp_path / f"{name}.doc"
        _write_document(path, name, doc)
        error = ConfigError if name == "report" else DataError
        with pytest.raises(error) as info:
            _LOADERS[name](path)
        assert type(info.value) is error
        # Report messages name the report; the other documents name their file.
        assert ("report " if name == "report" else path.name) in str(info.value)


class TestReadJson:
    def test_value_of_any_json_type(self, tmp_path):
        path = tmp_path / "a.json"
        for value in ({"a": [1, 2]}, [1], 3, None):
            path.write_text(json.dumps(value))
            assert read_json(path, ConfigError) == value

    @pytest.mark.parametrize("error", [ConfigError, DataError])
    @pytest.mark.parametrize("blob", [b"{broken", b"", b"\xff\xfe{}", b"[1] [2]"])
    def test_decode_failure_raises_the_given_error(self, tmp_path, error, blob):
        path = tmp_path / "a.json"
        path.write_bytes(blob)
        with pytest.raises(error, match="a.json: invalid JSON"):
            read_json(path, error)


class TestFrozenConfigs:
    @pytest.mark.parametrize(
        "cfg,name",
        [
            (LamapConfig(), "bands"),
            (CrfConfig(), "sigma"),
            (DplConfig(), "loss_kind"),
            (RunInputs(), "dem"),
            (PipelineConfig(output_dir="x", stages=("features",), inputs=RunInputs(dem="d")),
             "seed"),
            (FoldAssignment(2, {"a": 0, "b": 1}, "manual", 0), "imbalance"),
            (MetricsReport(Metrics(auroc=0.7)), "volume_gain"),
            (Metrics(auroc=0.7), "auroc"),
        ],
        ids=["lamap", "crf", "dpl", "inputs", "run", "folds", "report", "report-metrics"],
    )
    def test_assignment_is_refused(self, cfg, name):
        before = getattr(cfg, name)
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, before)
        with pytest.raises(FrozenInstanceError):
            delattr(cfg, name)


    @pytest.mark.parametrize(
        "write",
        [
            lambda d: d.__setitem__("a", 5),
            lambda d: d.__delitem__("a"),
            lambda d: d.update(a=5),
            lambda d: d.setdefault("z", 5),
            lambda d: d.pop("a"),
            lambda d: d.popitem(),
            lambda d: d.clear(),
            lambda d: d.__ior__({"a": 5}),
        ],
        ids=["set", "del", "update", "setdefault", "pop", "popitem", "clear", "ior"],
    )
    @pytest.mark.parametrize(
        "doc,name",
        [
            (FoldAssignment(2, {"a": 0, "b": 1}, "manual", 0), "assignment"),
            (FoldAssignment(2, {"a": 0}, "manual", 0, metadata={"a": 1}), "metadata"),
            (MetricsReport(Metrics(auroc=0.7), metadata={"a": "crf"}), "metadata"),
        ],
        ids=["folds-assignment", "folds-metadata", "report-metadata"],
    )
    def test_mapping_write_is_refused(self, doc, name, write):
        before = doc.to_dict()
        with pytest.raises(TypeError, match="read-only"):
            write(getattr(doc, name))
        assert doc.to_dict() == before

    def test_fold_means_are_tuples(self):
        fa = FoldAssignment(2, {"a": 0, "b": 1}, "manual", 0, fold_means=[[1.0], [2.0]])
        assert fa.fold_means == ((1.0,), (2.0,))
        with pytest.raises(AttributeError):
            fa.fold_means[0].append(3.0)

    def test_read_only_documents_copy_and_rebuild(self):
        fa = FoldAssignment(2, {"a": 0, "b": 1}, "manual", 0, metadata={"m": 1})
        assert copy.deepcopy(fa) == fa
        assert dataclasses.replace(fa, seed=1).assignment == {"a": 0, "b": 1}
        report = MetricsReport(Metrics(auroc=0.7), metadata={"surface": "crf"})
        assert MetricsReport.from_dict(json.loads(json.dumps(report.to_dict()))) == report

def _write_each_document(out) -> None:
    mask = np.array([[False, True], [False, False]])
    data = np.arange(4, dtype=np.float32).reshape(1, 2, 2)
    grid = RasterGrid(data, (10.0, 20.0, 0.5, -0.5), mask, ("elev",), {"source": "test", "n": 3})
    save_raster(grid, out / "grid.grid")
    save_plan(out / "plan.json", plan_windows(6, 5, 4, 0.5), (6, 5), (1.0, 2.0, 0.5, -0.5))
    FoldAssignment(
        3, {"s2": 1, "s1": 0, "s3": 2, "s0": 1}, "stratified", 7, 0.25,
        [[1.0, 2.0], [0.5, 0.25], [3.0, 4.0]], {"catchment": 295.0},
    ).save(out / "folds.json")
    report = MetricsReport(
        Metrics(auroc=0.75, aul=0.5, dice=0.4, iou=0.25, f1=0.4, accuracy=0.6),
        bins=(BinStats(0.0, 0.5, 3, 0.2, 0.25, 0.05), BinStats(0.5, 1.0, 2, 0.8, None, None)),
        density_histogram=(0.5, 1.5), find_count_rho=0.1, volume_gain=1.2,
        baseline_name="lamap", metadata={"surface": "crf", "period": None},
    )
    write_json(out / "report.json", report.to_dict())


class TestWrittenDocuments:
    """Each writer writes its reader's dataclass; the bytes are those the
    hand-built documents of earlier versions had (SHA-256 pinned)."""

    @pytest.mark.parametrize(
        "name,digest",
        [
            ("grid.grid", "63208b28f91959c5d56ffb80cc5f6e9a000fd8a58d0bc6f58b0ea0d15c5897b1"),
            ("plan.json", "88f36b3e7a0e1c1a7a8959ce96ac125d3159cf1fe320467ffee3547457aa67db"),
            ("folds.json", "93891cbe702eb03cb3e62dd68e6794cef1407c38afca0cbe287eea6137bc39ee"),
            ("report.json", "6b15119edc3c0893eaed6cd690f7e92f95e8fdf8c0552561b12d91da4b32bb63"),
        ],
        ids=["header", "plan", "folds", "report"],
    )
    def test_bytes_are_pinned(self, tmp_path, name, digest):
        _write_each_document(tmp_path)
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
