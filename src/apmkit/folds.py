"""Site-level k-fold splitting with environmental stratification.

Splitting happens at the site level so that a site's labeled pixels never
straddle folds. Each site is summarised by a stratification vector
(per-band catchment mean and spread, label density, positive ratio); the
stratified splitter greedily balances the standardized vectors across
folds, which keeps fold-wise feature distributions comparable. A seeded
uniform splitter is provided as the baseline. The result is a
site-to-fold mapping, saved as JSON by ``apmkit split-folds``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import ReadOnlyDict, build_config, check_seed, read_json
from .errors import ConfigError, DataError, EmptyInputError
from .lamap import DEFAULT_CATCHMENT_RADIUS
from .raster.grid import RasterGrid, write_json
from .raster.sites import SiteRecord

UNASSIGNED = -1


@dataclass(frozen=True)
class StratVector:
    """Per-site stratification features, fixed component order."""

    site_id: str
    components: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        comp = np.asarray(self.components, dtype=np.float64)
        if comp.ndim != 1 or comp.size != len(self.names):
            raise DataError(
                f"site '{self.site_id}': {comp.size} components for {len(self.names)} names"
            )
        if not np.isfinite(comp).all():
            raise DataError(f"site '{self.site_id}': non-finite stratification component")
        object.__setattr__(self, "components", comp)


def site_strat_vector(
    site: SiteRecord,
    stack: RasterGrid,
    labels: RasterGrid,
    radius: float = DEFAULT_CATCHMENT_RADIUS,
) -> StratVector:
    """Summarise a site's catchment for stratification.

    Components: per-band mean and standard deviation over the unmasked
    catchment pixels, then the labeled-pixel density of the neighbourhood
    and its positive-label ratio (zero when nothing there is labeled).

    Raises:
        EmptyInputError: when the catchment holds no valid stack pixel.
    """
    if not stack.same_frame(labels):
        raise DataError("stack and label raster disagree in frame")
    box, disk = stack.disk_box(site.x, site.y, radius)
    valid = disk & ~stack.nodata_mask[box]
    if not valid.any():
        raise EmptyInputError(f"site '{site.site_id}': empty catchment")
    comps: list[float] = []
    names: list[str] = []
    for b in range(stack.bands):
        vals = stack.band(b)[box][valid].astype(np.float64)
        comps.append(float(vals.mean()))
        comps.append(float(vals.std()))
        names.append(f"{stack.band_names[b]}_mean")
        names.append(f"{stack.band_names[b]}_std")
    labeled = disk & ~labels.nodata_mask[box]
    density = float(labeled.sum()) / float(disk.sum())
    if labeled.any():
        positive_ratio = float((labels.band(0)[box][labeled] >= 0.5).mean())
    else:
        positive_ratio = 0.0
    comps.extend([density, positive_ratio])
    names.extend(["label_density", "positive_ratio"])
    return StratVector(site.site_id, np.array(comps), tuple(names))


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


def standardize_components(vectors: list[StratVector]) -> np.ndarray:
    """Z-score the component matrix; constant components become zero."""
    mat = np.stack([v.components for v in vectors])
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


def fold_imbalance(assignment: FoldAssignment, vectors: list[StratVector]) -> float:
    """Imbalance of an existing assignment on the given vectors."""
    z = standardize_components(vectors)
    fold_ids = np.array([assignment.fold_of(v.site_id) for v in vectors])
    return imbalance_of(fold_ids, z, assignment.k)


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
    capacity-feasible fold whose running sum its vector best cancels.
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
    vectors: list[StratVector],
    k: int,
    seed: int = 0,
) -> FoldAssignment:
    """Balanced split of sites into k folds by stratification vector.

    Standardized vectors are placed largest-norm first (a seeded shuffle
    breaks norm ties) into the capacity-feasible fold that best cancels
    the fold's running component sum, then a deterministic pairwise-swap
    pass lowers the imbalance objective further. A second local search
    from the seeded round-robin start keeps the result at least as good
    as the uniform splitter on the same inputs: the better of the two
    refined assignments is returned. Fold sizes never differ by more
    than one, and the result is deterministic for a given seed.
    """
    _check_split_args(len(sites), k, seed)
    if len(vectors) != len(sites):
        raise DataError(f"{len(vectors)} vectors for {len(sites)} sites")
    by_id = {v.site_id: v for v in vectors}
    if set(by_id) != {s.site_id for s in sites}:
        raise DataError("stratification vectors do not match the site list")
    ordered_vectors = [by_id[s.site_id] for s in sites]
    z = standardize_components(ordered_vectors)
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
    assignment = {sites[i].site_id: int(fold_ids[i]) for i in range(n)}
    fold_means = []
    for f in range(k):
        members = fold_ids == f
        raw = np.stack([ordered_vectors[i].components for i in np.flatnonzero(members)])
        fold_means.append([float(v) for v in raw.mean(axis=0)])
    return FoldAssignment(
        k=k,
        assignment=assignment,
        strategy="stratified",
        seed=int(seed),
        imbalance=imbalance,
        fold_means=fold_means,
        metadata={
            "objective": "mean_component_std_across_folds",
            "components": list(ordered_vectors[0].names),
            "ordering": "norm_descending",
            "refinement": "pairwise_swap_local_search",
        },
    )


def uniform_kfold(
    sites: list[SiteRecord],
    k: int,
    seed: int = 0,
    vectors: list[StratVector] | None = None,
) -> FoldAssignment:
    """Seeded shuffle followed by round-robin fold assignment.

    Ignores stratification; pass ``vectors`` to have the imbalance score
    of the result recorded for comparison.
    """
    _check_split_args(len(sites), k, seed)
    fold_ids = _round_robin_ids(len(sites), k, seed)
    assignment = {s.site_id: int(fold_ids[i]) for i, s in enumerate(sites)}
    result = FoldAssignment(
        k=k,
        assignment=assignment,
        strategy="uniform",
        seed=int(seed),
        metadata={"ordering": "seeded_shuffle_round_robin"},
    )
    if vectors is not None:
        result = replace(result, imbalance=fold_imbalance(result, vectors))
    return result
