"""Site-level k-fold splitting with environmental stratification.

Splitting happens at the site level so that a site's labeled pixels never
straddle folds. :func:`strat_components` summarises the sites in one
float64 component matrix, one row per site in site order (per-band
catchment mean and spread, label density, positive ratio), and returns
the component names once. The stratified splitter greedily balances the
standardized rows across folds, which keeps fold-wise feature
distributions comparable; a seeded uniform splitter is the baseline. The
result is a site-to-fold mapping, saved as JSON by ``apmkit split-folds``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .config import ReadOnlyDict, build_config, check_seed, read_json
from .errors import ConfigError, DataError, EmptyInputError
from .lamap import DEFAULT_CATCHMENT_RADIUS
from .raster.grid import RasterGrid, write_json
from .raster.sites import SiteRecord

UNASSIGNED = -1


def strat_components(
    sites: list[SiteRecord],
    stack: RasterGrid,
    labels: RasterGrid,
    radius: float = DEFAULT_CATCHMENT_RADIUS,
) -> tuple[tuple[str, ...], np.ndarray]:
    """Summarise each site's catchment for stratification.

    Returns the component names and a float64 ``(len(sites), len(names))``
    matrix with one row per site, in site order. Components: per-band mean
    and standard deviation over the unmasked catchment pixels, then the
    labeled-pixel density of the neighbourhood and its positive-label
    ratio (zero when nothing there is labeled).

    Raises:
        EmptyInputError: when a site's catchment holds no valid stack pixel.
    """
    if not stack.same_frame(labels):
        raise DataError("stack and label raster disagree in frame")
    names = tuple(f"{band}_{stat}" for band in stack.band_names for stat in ("mean", "std"))
    names += ("label_density", "positive_ratio")
    components = np.empty((len(sites), len(names)), dtype=np.float64)
    for site, row in zip(sites, components):
        box, disk = stack.disk_box(site.x, site.y, radius)
        valid = disk & ~stack.nodata_mask[box]
        if not valid.any():
            raise EmptyInputError(f"site '{site.site_id}': empty catchment")
        for b in range(stack.bands):
            vals = stack.band(b)[box][valid].astype(np.float64)
            row[2 * b : 2 * b + 2] = vals.mean(), vals.std()
        labeled = disk & ~labels.nodata_mask[box]
        row[-2] = float(labeled.sum()) / float(disk.sum())
        row[-1] = (labels.band(0)[box][labeled] >= 0.5).mean() if labeled.any() else 0.0
    return names, components


@dataclass(frozen=True)
class FoldAssignment:
    """A site-to-fold mapping plus balance diagnostics, read-only throughout."""

    k: int
    assignment: dict[str, int]
    strategy: str
    seed: int
    imbalance: float | None = None
    fold_means: tuple[tuple[float, ...], ...] | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for site_id, fold in self.assignment.items():
            if not 0 <= fold < self.k:
                raise DataError(f"site '{site_id}' has fold {fold}, outside [0, {self.k})")
        object.__setattr__(self, "assignment", ReadOnlyDict(self.assignment))
        object.__setattr__(self, "metadata", ReadOnlyDict(self.metadata))
        if self.fold_means is not None:
            object.__setattr__(self, "fold_means", tuple(map(tuple, self.fold_means)))

    def fold_sizes(self) -> list[int]:
        sizes = [0] * self.k
        for f in self.assignment.values():
            sizes[f] += 1
        return sizes

    def fold_of(self, site_id: str) -> int:
        try:
            return self.assignment[site_id]
        except KeyError:
            raise DataError(f"site '{site_id}' is not in the fold assignment") from None

    def to_dict(self) -> dict:
        return {**asdict(self), "fold_sizes": self.fold_sizes()}

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @staticmethod
    def load(path) -> "FoldAssignment":
        """Read a file written by :meth:`save`; any other shape raises DataError."""
        doc = read_json(path, DataError)
        if isinstance(doc, dict):
            doc.pop("fold_sizes", None)  # derived from the assignment
        return build_config(FoldAssignment, doc, f"{path} folds", error=DataError)


def check_k(k: int) -> None:
    """Raise ConfigError for fewer than two folds."""
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")


def _check_split_args(n_sites: int, k: int, seed: int) -> None:
    check_seed(seed)
    check_k(k)
    if n_sites < k:
        raise DataError(f"cannot split {n_sites} sites into {k} folds")


def _checked(sites: list[SiteRecord], components: np.ndarray, names=None) -> np.ndarray:
    """The component matrix as float64: one finite row per site, and one
    column per name when names are given; anything else is a DataError."""
    comp = np.atleast_1d(np.asarray(components, dtype=np.float64))
    want = (len(sites), comp.shape[-1] if names is None else len(names))
    if comp.shape != want:
        raise DataError(f"component matrix of shape {comp.shape}, expected {want}")
    bad = np.flatnonzero(~np.isfinite(comp).all(axis=1))
    if bad.size:
        raise DataError(f"site '{sites[bad[0]].site_id}': non-finite stratification component")
    return comp


def standardize_components(mat: np.ndarray) -> np.ndarray:
    """Z-score the component matrix; constant components become zero."""
    mean = mat.mean(axis=0)
    std = mat.std(axis=0)
    std_safe = np.where(std > 0, std, 1.0)
    z = (mat - mean) / std_safe
    z[:, std == 0] = 0.0
    return z


def imbalance_of(fold_ids: np.ndarray, z: np.ndarray, k: int) -> float:
    """Spread of fold-mean components: mean over components of the
    across-fold standard deviation. Zero means perfectly matched folds."""
    means = np.zeros((k, z.shape[1]), dtype=np.float64)
    for f in range(k):
        members = fold_ids == f
        if members.any():
            means[f] = z[members].mean(axis=0)
    return float(means.std(axis=0).mean())


def _capacity_candidates(sizes: np.ndarray, n: int, k: int) -> np.ndarray:
    """Folds that may take one more site while keeping sizes within one."""
    floor = n // k
    extras = n % k
    at_ceiling = int((sizes > floor).sum())
    candidates = sizes < floor
    if extras and at_ceiling < extras:
        candidates |= sizes == floor
    return np.flatnonzero(candidates)


def _round_robin_ids(n: int, k: int, seed: int) -> np.ndarray:
    """Fold ids of the seeded shuffle + round-robin baseline."""
    order = np.random.default_rng(seed).permutation(n)
    fold_ids = np.empty(n, dtype=np.int64)
    fold_ids[order] = np.arange(n) % k
    return fold_ids


def _greedy_seed(z: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Largest-norm-first placement that keeps per-fold sums near zero.

    Standardized components sum to zero globally, so a perfectly balanced
    fold has a component sum near zero; each site goes to the
    capacity-feasible fold whose running sum its row best cancels.
    """
    n, d = z.shape
    shuffled = np.random.default_rng(seed).permutation(n)
    norms = np.linalg.norm(z, axis=1)
    order = shuffled[np.argsort(-norms[shuffled], kind="stable")]
    sizes = np.zeros(k, dtype=np.int64)
    sums = np.zeros((k, d), dtype=np.float64)
    fold_ids = np.full(n, UNASSIGNED, dtype=np.int64)
    for idx in order:
        best_fold = -1
        best_score = np.inf
        for f in _capacity_candidates(sizes, n, k):
            score = float(np.linalg.norm(sums[f] + z[idx]))
            if score < best_score - 1e-15 or (
                abs(score - best_score) <= 1e-15
                and best_fold >= 0
                and sizes[f] < sizes[best_fold]
            ):
                best_score = score
                best_fold = int(f)
        fold_ids[idx] = best_fold
        sums[best_fold] += z[idx]
        sizes[best_fold] += 1
    return fold_ids


def _swap_refine(
    fold_ids: np.ndarray, z: np.ndarray, k: int, max_passes: int = 100
) -> np.ndarray:
    """Deterministic local search: swap site pairs while that lowers the
    imbalance objective. Swaps keep fold sizes fixed, so the within-one
    size invariant survives refinement. Stops at a full pass with no
    improving swap."""
    n, d = z.shape
    sizes = np.bincount(fold_ids, minlength=k).astype(np.float64)
    sums = np.zeros((k, d), dtype=np.float64)
    for f in range(k):
        sums[f] = z[fold_ids == f].sum(axis=0)
    current = float((sums / sizes[:, None]).std(axis=0).mean())
    for _ in range(max_passes):
        improved = False
        for i in range(n):
            a = int(fold_ids[i])
            deltas = z - z[i]
            trial = np.broadcast_to(sums / sizes[:, None], (n, k, d)).copy()
            trial[:, a, :] += deltas / sizes[a]
            trial[np.arange(n), fold_ids, :] -= deltas / sizes[fold_ids, None]
            scores = trial.std(axis=1).mean(axis=1)
            scores[fold_ids == a] = np.inf
            j = int(np.argmin(scores))
            if scores[j] < current - 1e-12:
                b = int(fold_ids[j])
                sums[a] += deltas[j]
                sums[b] -= deltas[j]
                fold_ids[i], fold_ids[j] = b, a
                current = float(scores[j])
                improved = True
        if not improved:
            break
    return fold_ids


def stratified_kfold(
    sites: list[SiteRecord],
    names: tuple[str, ...],
    components: np.ndarray,
    k: int,
    seed: int = 0,
) -> FoldAssignment:
    """Balanced split of sites into k folds by stratification components.

    ``components`` holds one row per site, in site order, and one column
    per name, as :func:`strat_components` returns them. Standardized rows
    are placed largest-norm first (a seeded shuffle breaks norm ties) into
    the capacity-feasible fold that best cancels the fold's running
    component sum, then a deterministic pairwise-swap pass lowers the
    imbalance objective further. A second local search
    from the seeded round-robin start keeps the result at least as good
    as the uniform splitter on the same inputs: the better of the two
    refined assignments is returned. Fold sizes never differ by more
    than one, and the result is deterministic for a given seed.
    """
    _check_split_args(len(sites), k, seed)
    components = _checked(sites, components, names)
    z = standardize_components(components)
    n, d = z.shape
    fold_ids = _swap_refine(_greedy_seed(z, k, seed), z, k)
    imbalance = imbalance_of(fold_ids, z, k)
    # Refining the round-robin start as well keeps the uniform baseline an
    # upper bound while usually improving on it outright.
    baseline_ids = _swap_refine(_round_robin_ids(n, k, seed), z, k)
    baseline_imbalance = imbalance_of(baseline_ids, z, k)
    if baseline_imbalance < imbalance:
        fold_ids = baseline_ids
        imbalance = baseline_imbalance
    fold_means = [components[fold_ids == f].mean(axis=0).tolist() for f in range(k)]
    return FoldAssignment(
        k=k,
        assignment={s.site_id: int(f) for s, f in zip(sites, fold_ids)},
        strategy="stratified",
        seed=int(seed),
        imbalance=imbalance,
        fold_means=fold_means,
        metadata={
            "objective": "mean_component_std_across_folds",
            "components": list(names),
            "ordering": "norm_descending",
            "refinement": "pairwise_swap_local_search",
        },
    )


def uniform_kfold(
    sites: list[SiteRecord],
    k: int,
    seed: int = 0,
    components: np.ndarray | None = None,
) -> FoldAssignment:
    """Seeded shuffle followed by round-robin fold assignment.

    Ignores stratification; pass ``components`` (one row per site, in
    site order) to have the imbalance score of the result recorded for
    comparison.
    """
    _check_split_args(len(sites), k, seed)
    fold_ids = _round_robin_ids(len(sites), k, seed)
    imbalance = None
    if components is not None:
        imbalance = imbalance_of(fold_ids, standardize_components(_checked(sites, components)), k)
    return FoldAssignment(
        k=k,
        assignment={s.site_id: int(f) for s, f in zip(sites, fold_ids)},
        strategy="uniform",
        seed=int(seed),
        imbalance=imbalance,
        metadata={"ordering": "seeded_shuffle_round_robin"},
    )
