"""The typed config builder and the JSON file reader."""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from apmkit.config import build_config, config_values, read_json
from apmkit.crf import CrfConfig
from apmkit.errors import ConfigError, DataError


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
        cfg = build_config(Sample, {"n": 4}, "sample", {"n": "count"}, name="z")
        assert (cfg.count, cfg.name) == (4, "z")
        assert build_config(Sample, {"name": "y"}, "sample", name="z").name == "y"
        assert config_values(Sample, {"count": 2}, "sample", names=["count"]) == {"count": 2}
        with pytest.raises(ConfigError, match="unknown sample key 'name'"):
            config_values(Sample, {"name": "y"}, "sample", names=["count"])

    def test_dataclass_checks_become_config_errors(self):
        with pytest.raises(ConfigError, match="count must be >= 0"):
            build_config(Sample, {"count": -1}, "sample")

    def test_crf_compatibility_takes_only_null(self):
        potts = CrfConfig.from_json({"compatibility": None}).compatibility
        assert potts.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(ConfigError, match="crf compatibility"):
            CrfConfig.from_json({"compatibility": [[0.0, 1.0], [1.0, 0.0]]})


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
