"""Stratified site splitting."""

import json

import numpy as np
import pytest

from apmkit.errors import ConfigError, DataError, EmptyInputError
from apmkit.folds import (
    FoldAssignment,
    StratVector,
    fold_imbalance,
    imbalance_of,
    site_strat_vector,
    standardize_components,
    stratified_kfold,
    uniform_kfold,
)
from apmkit.raster.sites import SiteRecord
from test_grid import full_frame_disk


def site(sid, x=0.5, y=-0.5, polarity="positive"):
    return SiteRecord(sid, x, y, "Roman Imperial", polarity)


def vec(sid, components):
    comps = np.atleast_1d(np.asarray(components, dtype=float))
    return StratVector(sid, comps, tuple(f"c{i}" for i in range(comps.size)))


class TestStratVector:
    def test_validation(self):
        with pytest.raises(DataError):
            StratVector("a", np.array([1.0, 2.0]), ("one",))
        with pytest.raises(DataError):
            StratVector("a", np.array([np.nan]), ("one",))

    def test_hand_arithmetic(self, make_grid):
        # Radius 1 on a unit grid picks the plus-shaped 5-pixel catchment.
        values = np.arange(9.0).reshape(3, 3)
        stack = make_grid(values)
        label_mask = np.ones((3, 3), dtype=bool)
        label_mask[1, 1] = False
        label_mask[0, 1] = False
        labels = make_grid(np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
                           mask=label_mask)
        sv = site_strat_vector(site("a", 1.5, -1.5), stack, labels, radius=1.0)
        assert sv.names == ("band_1_mean", "band_1_std", "label_density", "positive_ratio")
        # Catchment pixels 4, 1, 3, 5, 7: mean 4, population std 2.
        assert sv.components[0] == pytest.approx(4.0, abs=1e-12)
        assert sv.components[1] == pytest.approx(2.0, abs=1e-12)
        # Two of five pixels labeled; one of the two positive.
        assert sv.components[2] == pytest.approx(0.4, abs=1e-12)
        assert sv.components[3] == pytest.approx(0.5, abs=1e-12)

    def test_constant_stack_zero_std(self, make_grid):
        stack = make_grid(np.full((5, 5), 3.0))
        labels = make_grid(np.ones((5, 5)))
        sv = site_strat_vector(site("a", 2.5, -2.5), stack, labels, radius=1.5)
        assert sv.components[1] == 0.0
        assert sv.components[3] == 1.0  # every labeled pixel positive

    def test_unlabeled_neighbourhood(self, make_grid):
        stack = make_grid(np.ones((4, 4)))
        labels = make_grid(np.ones((4, 4)), mask=np.ones((4, 4), dtype=bool))
        sv = site_strat_vector(site("a", 2.0, -2.0), stack, labels, radius=1.0)
        assert sv.components[2] == 0.0
        assert sv.components[3] == 0.0

    def test_empty_catchment(self, make_grid):
        stack = make_grid(np.ones((3, 3)), mask=np.ones((3, 3), dtype=bool))
        labels = make_grid(np.ones((3, 3)))
        with pytest.raises(EmptyInputError):
            site_strat_vector(site("a", 1.5, -1.5), stack, labels, radius=1.0)

    def test_frame_mismatch(self, make_grid):
        with pytest.raises(DataError):
            site_strat_vector(
                site("a"), make_grid(np.ones((3, 3))), make_grid(np.ones((4, 4))), 1.0
            )

    def test_multiband_component_layout(self, make_grid, rng):
        stack = make_grid(rng.normal(size=(2, 5, 5)), band_names=("slope", "aspect"))
        labels = make_grid(np.ones((5, 5)))
        sv = site_strat_vector(site("a", 2.5, -2.5), stack, labels, radius=1.5)
        assert sv.names == (
            "slope_mean", "slope_std", "aspect_mean", "aspect_std",
            "label_density", "positive_ratio",
        )


    def test_matches_full_frame_disk_oracle(self, make_grid, rng):
        # Each site's disk is read in its box; the vector equals the one
        # built from a full-frame disk bit for bit, for sites inside, on the
        # edges of and just outside the frame.
        gt = (100.0, 200.0, 10.0, -7.5)
        h, w = 23, 31
        stack = make_grid(rng.normal(size=(3, h, w)), gt, mask=rng.random((h, w)) < 0.15)
        unlabeled = rng.random((h, w)) < 0.5
        labels = make_grid((rng.random((h, w)) < 0.4).astype(float), gt, mask=unlabeled)
        checked = 0
        for u, v in rng.uniform(-0.15, 1.15, (60, 2)):
            x, y = 100.0 + u * w * 10.0, 200.0 - v * h * 7.5
            for radius in (0.0, 4.0, 10.0, 37.0, 120.0):
                disk = full_frame_disk(stack, x, y, radius)
                valid = disk & ~stack.nodata_mask
                if not valid.any():
                    with pytest.raises(EmptyInputError):
                        site_strat_vector(site("s", x, y), stack, labels, radius)
                    continue
                want = []
                for b in range(stack.bands):
                    vals = stack.band(b)[valid].astype(np.float64)
                    want += [float(vals.mean()), float(vals.std())]
                labeled = disk & ~labels.nodata_mask
                want.append(float(labeled.sum()) / float(disk.sum()))
                ratio = (labels.band(0)[labeled] >= 0.5).mean() if labeled.any() else 0.0
                want.append(float(ratio))
                got = site_strat_vector(site("s", x, y), stack, labels, radius)
                assert got.components.tobytes() == np.array(want).tobytes()
                checked += 1
        assert checked > 150


class TestStandardize:
    def test_zscores(self, rng):
        vectors = [vec(f"s{i}", rng.normal(size=3)) for i in range(20)]
        z = standardize_components(vectors)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_component_zeroed(self):
        vectors = [vec("a", [1.0, 5.0]), vec("b", [2.0, 5.0]), vec("c", [3.0, 5.0])]
        z = standardize_components(vectors)
        assert np.all(z[:, 1] == 0.0)


class TestUniform:
    def test_sizes_within_one(self):
        sites = [site(f"s{i}") for i in range(7)]
        fa = uniform_kfold(sites, 3, seed=0)
        assert sorted(fa.fold_sizes()) == [2, 2, 3]
        assert set(fa.assignment) == {s.site_id for s in sites}

    def test_deterministic_and_seed_sensitive(self):
        sites = [site(f"s{i}") for i in range(12)]
        a = uniform_kfold(sites, 4, seed=5)
        b = uniform_kfold(sites, 4, seed=5)
        assert a.assignment == b.assignment
        c = uniform_kfold(sites, 4, seed=6)
        assert a.assignment != c.assignment

    def test_imbalance_recorded_with_vectors(self, rng):
        sites = [site(f"s{i}") for i in range(9)]
        vectors = [vec(s.site_id, rng.normal(size=2)) for s in sites]
        fa = uniform_kfold(sites, 3, seed=0, vectors=vectors)
        assert fa.imbalance is not None
        assert fa.imbalance == pytest.approx(fold_imbalance(fa, vectors), abs=1e-12)

    def test_argument_validation(self):
        sites = [site(f"s{i}") for i in range(3)]
        with pytest.raises(ConfigError):
            uniform_kfold(sites, 1)
        with pytest.raises(DataError):
            uniform_kfold(sites, 4)


@pytest.mark.parametrize("strategy", ["uniform", "stratified"])
def test_negative_seed_is_config_error(rng, strategy):
    sites = [site(f"s{i}") for i in range(6)]
    vectors = [vec(s.site_id, rng.normal(size=2)) for s in sites]
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        if strategy == "uniform":
            uniform_kfold(sites, 2, seed=-1)
        else:
            stratified_kfold(sites, vectors, 2, seed=-1)


class TestStratified:
    def make_instance(self, rng, n=20, d=3):
        sites = [site(f"s{i}") for i in range(n)]
        vectors = [vec(s.site_id, rng.normal(size=d)) for s in sites]
        return sites, vectors

    def test_partition_and_sizes(self, rng):
        sites, vectors = self.make_instance(rng, n=11)
        fa = stratified_kfold(sites, vectors, 3, seed=0)
        assert set(fa.assignment) == {s.site_id for s in sites}
        sizes = fa.fold_sizes()
        assert sum(sizes) == 11
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self, rng):
        sites, vectors = self.make_instance(rng)
        a = stratified_kfold(sites, vectors, 4, seed=9)
        b = stratified_kfold(sites, vectors, 4, seed=9)
        assert a.assignment == b.assignment
        assert a.imbalance == b.imbalance

    def test_perfectly_separable_clusters(self):
        # Three +1 sites and three -1 sites split over three folds: the
        # balanced split pairs one of each per fold, imbalance zero.
        sites = [site(f"s{i}") for i in range(6)]
        vectors = [vec(s.site_id, [1.0 if i < 3 else -1.0]) for i, s in enumerate(sites)]
        fa = stratified_kfold(sites, vectors, 3, seed=0)
        assert fa.imbalance == pytest.approx(0.0, abs=1e-12)
        for f in range(3):
            members = [sid for sid, ff in fa.assignment.items() if ff == f]
            signs = sorted(int(sid[1:]) < 3 for sid in members)
            assert signs == [False, True]

    def test_never_worse_than_uniform(self, rng):
        for _ in range(20):
            n = int(rng.integers(8, 40))
            d = int(rng.integers(1, 5))
            k = int(rng.integers(2, 6))
            if n < k:
                continue
            sites, vectors = self.make_instance(rng, n=n, d=d)
            seed = int(rng.integers(0, 1000))
            strat = stratified_kfold(sites, vectors, k, seed=seed)
            uni = uniform_kfold(sites, k, seed=seed, vectors=vectors)
            assert strat.imbalance <= uni.imbalance + 1e-12

    def test_one_site_per_fold_when_k_equals_n(self, rng):
        sites, vectors = self.make_instance(rng, n=5)
        fa = stratified_kfold(sites, vectors, 5, seed=0)
        assert sorted(fa.fold_sizes()) == [1, 1, 1, 1, 1]

    def test_fold_means_recorded(self, rng):
        sites, vectors = self.make_instance(rng, n=9, d=2)
        fa = stratified_kfold(sites, vectors, 3, seed=0)
        assert len(fa.fold_means) == 3
        by_id = {v.site_id: v.components for v in vectors}
        for f in range(3):
            members = [sid for sid, ff in fa.assignment.items() if ff == f]
            want = np.stack([by_id[sid] for sid in members]).mean(axis=0)
            assert np.allclose(fa.fold_means[f], want, atol=1e-12)

    def test_validation(self, rng):
        sites, vectors = self.make_instance(rng, n=4)
        with pytest.raises(DataError):
            stratified_kfold(sites, vectors, 5, seed=0)
        with pytest.raises(ConfigError):
            stratified_kfold(sites, vectors, 1, seed=0)
        with pytest.raises(DataError):
            stratified_kfold(sites, vectors[:-1], 2, seed=0)
        renamed = vectors[:-1] + [vec("other", vectors[-1].components)]
        with pytest.raises(DataError):
            stratified_kfold(sites, renamed, 2, seed=0)

    def test_save_load_roundtrip(self, rng, tmp_path):
        sites, vectors = self.make_instance(rng, n=8)
        fa = stratified_kfold(sites, vectors, 2, seed=3)
        path = tmp_path / "folds.json"
        fa.save(path)
        back = FoldAssignment.load(path)
        assert back.assignment == fa.assignment
        assert back.k == fa.k
        assert back.strategy == fa.strategy
        assert back.seed == fa.seed
        assert back.imbalance == pytest.approx(fa.imbalance, abs=1e-15)

    @pytest.mark.parametrize(
        "doc",
        [
            {"k": 2}, [1, 2], {"k": "x", "assignment": {}}, {"k": 2, "assignment": []},
            {"k": 2, "assignment": {"a": -1}, "strategy": "manual", "seed": 0},
            {"k": 2, "assignment": {"a": 2}, "strategy": "manual", "seed": 0},
        ],
        ids=["no-assignment", "array", "k-not-int", "assignment-list", "fold-negative", "fold-k"],
    )
    def test_load_malformed_file_is_data_error(self, tmp_path, doc):
        path = tmp_path / "folds.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="folds.json"):
            FoldAssignment.load(path)

    def test_fold_of_missing_site(self):
        fa = FoldAssignment(2, {"a": 0, "b": 1}, "manual", 0)
        assert fa.fold_of("a") == 0
        with pytest.raises(DataError):
            fa.fold_of("zzz")

    @pytest.mark.parametrize("previous", [False, True])
    def test_failed_save_keeps_previous_file(self, tmp_path, previous):
        path = tmp_path / "folds.json"
        if previous:
            FoldAssignment(2, {"a": 0, "b": 1}, "manual", 0).save(path)
        before = path.read_bytes() if previous else None
        # The metadata cannot be serialised, so the write fails part way.
        broken = FoldAssignment(2, {"a": 1, "b": 0}, "manual", 0, metadata={"z": object()})
        with pytest.raises(TypeError):
            broken.save(path)
        assert (path.read_bytes() if path.exists() else None) == before
        assert [p.name for p in tmp_path.iterdir()] == (["folds.json"] if previous else [])
