"""Radiomic feature extraction from a 3D voxel grid and binary region mask.

Scope is the named feature set: first-order statistics (mean, median,
skewness), shape descriptors (volume, surface area by voxel-face counting,
sphericity, elongation) and three texture summaries (GLCM entropy, GLRLM
short-run emphasis, GLSZM zone variance).

Texture conventions (the acquisition protocol never pins these down, so
they are fixed implementer choices, documented here):
* equal-width discretization into `levels` bins over the masked min-max
  range, so intensity shift and positive rescale leave features unchanged;
* GLCM: 13 unique distance-1 3D directions, symmetric accumulation, all
  directions merged before normalization;
* GLRLM: runs along the same 13 directions, merged;
* GLSZM: 26-connected zones of equal gray level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyRegionError,
    InvalidParameterError,
    RowParseError,
    ShapeError,
)

# 13 unique 3D directions at distance 1 (one per axis pair up to sign)
GLCM_OFFSETS: tuple[tuple[int, int, int], ...] = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1),
    (0, 1, 1), (0, 1, -1),
    (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
)


@dataclass(frozen=True)
class VoxelGrid:
    """Intensity lattice with physical spacing; x-fastest storage order."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    intensities: np.ndarray        # shape dims, index [x, y, z]

    def __post_init__(self):
        nx, ny, nz = self.dims
        if min(self.dims) < 1:
            raise InvalidParameterError("dims must be positive")
        if min(self.spacing) <= 0:
            raise InvalidParameterError("spacings must be positive")
        arr = np.asarray(self.intensities, dtype=float)
        if arr.size != nx * ny * nz:
            raise ShapeError(f"expected {nx * ny * nz} intensities, got {arr.size}")
        object.__setattr__(self, "intensities", arr.reshape((nx, ny, nz), order="F"))

    @staticmethod
    def from_flat(dims, spacing, flat) -> "VoxelGrid":
        return VoxelGrid(tuple(dims), tuple(spacing), np.asarray(flat, dtype=float))


@dataclass(frozen=True)
class RegionMask:
    dims: tuple[int, int, int]
    occupancy: np.ndarray          # boolean, shape dims

    def __post_init__(self):
        nx, ny, nz = self.dims
        arr = np.asarray(self.occupancy)
        if arr.size != nx * ny * nz:
            raise ShapeError(f"expected {nx * ny * nz} mask values, got {arr.size}")
        if arr.dtype != bool:
            vals = np.unique(arr)
            if not np.all(np.isin(vals, (0, 1))):
                raise InvalidParameterError("mask values must be 0 or 1")
        object.__setattr__(self, "occupancy",
                           arr.reshape((nx, ny, nz), order="F").astype(bool))

    @property
    def voxel_count(self) -> int:
        return int(np.sum(self.occupancy))


def _check_pair(grid: VoxelGrid, mask: RegionMask):
    if grid.dims != mask.dims:
        raise ShapeError(f"grid dims {grid.dims} != mask dims {mask.dims}")
    if mask.voxel_count == 0:
        raise EmptyRegionError("mask has no occupied voxels")


def first_order(grid: VoxelGrid, mask: RegionMask) -> dict[str, float]:
    """Mean, median and Fisher skewness g1 over masked voxels.

    Skewness is the bias-uncorrected g1 = m3 / m2^(3/2), defined as 0 for a
    constant region.
    """
    _check_pair(grid, mask)
    values = grid.intensities[mask.occupancy]
    mean = float(np.mean(values))
    centered = values - mean
    m2 = float(np.mean(centered ** 2))
    skewness = float(np.mean(centered ** 3) / m2 ** 1.5) if m2 > 0 else 0.0
    return {
        "mean": mean,
        "median": float(np.median(values)),
        "skewness": skewness,
    }


def shape_features(mask: RegionMask, spacing) -> dict[str, float]:
    """Volume, face-counted surface area, sphericity and elongation.

    Surface area sums exposed voxel faces, which overestimates smooth
    surfaces (a sphere's staircase) but is exact and hand-checkable.
    Elongation is sqrt(lambda2 / lambda1) of the physical-coordinate
    covariance of masked voxel centers (1.0 for a degenerate single voxel).
    """
    if mask.voxel_count == 0:
        raise EmptyRegionError("mask has no occupied voxels")
    sx, sy, sz = (float(s) for s in spacing)
    occ = mask.occupancy
    volume = mask.voxel_count * sx * sy * sz

    padded = np.pad(occ, 1, mode="constant")
    area = 0.0
    for axis, face in ((0, sy * sz), (1, sx * sz), (2, sx * sy)):
        exposed = np.diff(padded.astype(np.int8), axis=axis) != 0
        area += float(np.sum(exposed)) * face

    sphericity = np.pi ** (1.0 / 3.0) * (6.0 * volume) ** (2.0 / 3.0) / area

    coords = np.argwhere(occ).astype(float) * np.array([sx, sy, sz])
    centered = coords - coords.mean(axis=0)
    cov = centered.T @ centered / coords.shape[0]
    eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    if eigvals[0] <= 0:
        elongation = 1.0
    else:
        elongation = float(np.sqrt(max(eigvals[1], 0.0) / eigvals[0]))

    return {
        "volume_mm3": float(volume),
        "surface_area_mm2": float(area),
        "sphericity": float(sphericity),
        "elongation": elongation,
    }


def discretize(grid: VoxelGrid, mask: RegionMask, levels: int) -> np.ndarray:
    """Equal-width binning of masked intensities into 0..levels-1.

    A constant region maps to a single occupied bin (0). Returns an int
    array shaped like the grid with -1 outside the mask.
    """
    if levels < 2:
        raise InvalidParameterError("need at least 2 gray levels")
    _check_pair(grid, mask)
    out = np.full(grid.dims, -1, dtype=int)
    values = grid.intensities[mask.occupancy]
    lo, hi = float(np.min(values)), float(np.max(values))
    if hi == lo:
        binned = np.zeros(values.size, dtype=int)
    else:
        binned = np.minimum((levels * (values - lo) / (hi - lo)).astype(int),
                            levels - 1)
    out[mask.occupancy] = binned
    return out


@dataclass(frozen=True)
class TextureMatrices:
    glcm: np.ndarray               # (L, L), symmetric, sums to 1
    glrlm: np.ndarray              # (L, Rmax) run counts
    glszm: np.ndarray              # (L, Smax) zone counts
    levels: int


def texture_matrices(grid: VoxelGrid, mask: RegionMask, levels: int = 32,
                     glcm_offsets=GLCM_OFFSETS) -> TextureMatrices:
    """Build the direction-merged GLCM, GLRLM and 26-connected GLSZM."""
    binned = discretize(grid, mask, levels)
    occ = mask.occupancy
    nx, ny, nz = grid.dims

    glcm = np.zeros((levels, levels))
    for off in glcm_offsets:
        ox, oy, oz = off
        src = _shift_slices((nx, ny, nz), (ox, oy, oz))
        dst = _shift_slices((nx, ny, nz), (-ox, -oy, -oz))
        pair_ok = occ[src] & occ[dst]
        a = binned[src][pair_ok]
        b = binned[dst][pair_ok]
        np.add.at(glcm, (a, b), 1.0)
        np.add.at(glcm, (b, a), 1.0)
    total_pairs = glcm.sum()
    if total_pairs > 0:
        glcm /= total_pairs

    glrlm = _run_length_matrix(binned, occ, levels, glcm_offsets)
    glszm = _size_zone_matrix(binned, occ, levels)
    return TextureMatrices(glcm=glcm, glrlm=glrlm, glszm=glszm, levels=levels)


def _shift_slices(dims, offset):
    slices = []
    for size, o in zip(dims, offset):
        if o >= 0:
            slices.append(slice(0, size - o))
        else:
            slices.append(slice(-o, size))
    return tuple(slices)


def _run_length_matrix(binned, occ, levels, offsets):
    """Direction-merged GLRLM by array run lengths, one pass per offset.

    same[v]: v and v+off are both masked with equal levels. A run head is a
    masked voxel whose predecessor v-off is not `same`; the run lengths
    solve len[v] = 1 + same[v]·len[v+off], iterated to its fixpoint (one
    sweep per voxel of the longest run), and are counted at the heads.
    """
    dims = occ.shape
    unit = occ.astype(int)
    head_levels, head_lengths = [np.zeros(0, int)], [np.zeros(0, int)]  # no offsets: no runs
    for off in offsets:
        src = _shift_slices(dims, off)                      # v with v+off inside
        dst = _shift_slices(dims, tuple(-o for o in off))   # v+off
        same = occ[src] & occ[dst] & (binned[src] == binned[dst])
        head = occ.copy()
        head[dst] &= ~same
        length = unit
        while True:
            longer = unit.copy()
            longer[src] += same * length[dst]
            if np.array_equal(longer, length):
                break
            length = longer
        head_levels.append(binned[head])
        head_lengths.append(length[head])
    run_levels = np.concatenate(head_levels)
    run_lengths = np.concatenate(head_lengths)
    max_len = int(run_lengths.max(initial=1))
    cells = np.bincount(run_levels * max_len + run_lengths - 1, minlength=levels * max_len)
    return cells.reshape(levels, max_len).astype(float)


def _size_zone_matrix(binned, occ, levels):
    from scipy import ndimage  # deferred: a module-level import slows every CLI start

    structure = np.ones((3, 3, 3), dtype=int)  # 26-connectivity
    zones: list[tuple[int, int]] = []
    max_size = 1
    for level in range(levels):
        level_mask = occ & (binned == level)
        if not np.any(level_mask):
            continue
        labeled, n_zones = ndimage.label(level_mask, structure=structure)
        sizes = ndimage.sum_labels(level_mask, labeled, index=np.arange(1, n_zones + 1))
        for s in sizes.astype(int):
            zones.append((level, int(s)))
            max_size = max(max_size, int(s))
    glszm = np.zeros((levels, max_size))
    for level, size in zones:
        glszm[level, size - 1] += 1
    return glszm


def texture_features(grid: VoxelGrid, mask: RegionMask, levels: int = 32,
                     glcm_offsets=GLCM_OFFSETS) -> dict[str, float]:
    """GLCM entropy (bits), GLRLM short-run emphasis, GLSZM zone variance."""
    mats = texture_matrices(grid, mask, levels, glcm_offsets)

    p = mats.glcm[mats.glcm > 0]
    entropy = float(-np.sum(p * np.log2(p))) if p.size else 0.0

    run_lengths = np.arange(1, mats.glrlm.shape[1] + 1, dtype=float)
    total_runs = mats.glrlm.sum()
    sre = float(np.sum(mats.glrlm / run_lengths[None, :] ** 2) / total_runs) \
        if total_runs > 0 else 0.0

    zone_sizes = np.arange(1, mats.glszm.shape[1] + 1, dtype=float)
    zone_counts = mats.glszm.sum(axis=0)
    n_zones = zone_counts.sum()
    if n_zones > 0:
        mean_size = float(np.sum(zone_counts * zone_sizes) / n_zones)
        zone_var = float(np.sum(zone_counts * (zone_sizes - mean_size) ** 2) / n_zones)
    else:
        zone_var = 0.0

    return {
        "glcm_entropy": entropy,
        "glrlm_short_run_emphasis": sre,
        "glszm_zone_variance": zone_var,
    }


def extract_all(grid: VoxelGrid, mask: RegionMask, levels: int = 32) -> dict[str, float]:
    """Every implemented feature in one mapping, keyed by feature name."""
    out = {}
    out.update(first_order(grid, mask))
    out.update(shape_features(mask, grid.spacing))
    out.update(texture_features(grid, mask, levels))
    return out


# --- text file format --------------------------------------------------------
# line 1: "dims nx ny nz" / line 2: "spacing sx sy sz" / then intensities,
# whitespace-separated, x-fastest. Masks use the same layout with 0/1 values.


def _read_header(lines, path):
    if len(lines) < 3:
        raise RowParseError(1, "header", f"{path}: expected header plus data")
    d = lines[0].split()
    s = lines[1].split()
    if len(d) != 4 or d[0] != "dims":
        raise RowParseError(1, "dims", f"{path}: first line must be 'dims nx ny nz'")
    if len(s) != 4 or s[0] != "spacing":
        raise RowParseError(2, "spacing", f"{path}: second line must be 'spacing sx sy sz'")
    dims = tuple(int(v) for v in _numbers(d[1:], int, 1, "dims", path))
    spacing = tuple(float(v) for v in _numbers(s[1:], float, 2, "spacing", path))
    flat = _numbers(" ".join(lines[2:]).split(), float, 3, "values", path)
    return dims, spacing, flat


def _numbers(tokens, dtype, row, column, path) -> np.ndarray:
    """The tokens as numbers; the values' row is the line they start on."""
    try:
        return np.array(tokens, dtype=dtype)
    except ValueError as exc:
        raise RowParseError(row, column, f"{path}: {exc}") from None


def load_voxel_grid(path) -> VoxelGrid:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    dims, spacing, flat = _read_header(lines, path)
    return VoxelGrid.from_flat(dims, spacing, flat)


def load_region_mask(path) -> RegionMask:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    dims, _, flat = _read_header(lines, path)
    return RegionMask(dims, flat)
