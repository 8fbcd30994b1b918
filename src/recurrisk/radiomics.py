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

The three texture matrices count only masked voxels (IBSI), so they are
built on the mask's bounding box, in one pass over the 13 directions. A run
is a zone whose neighbourhood is a single direction (IBSI), so one numpy
labeller finds both: a direction's runs are the zones of its equal-level
pairs alone, and the GLSZM's zones are those of all 13 directions' pairs
together. First-order and shape features read the full grid.

`extract_subjects` shares the subjects between this process and one forked
worker (workers.split_map, on Linux with two or more CPUs); the worker sends
back each subject's feature values, which do not depend on where they were
computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError, RowParseError, reading
from .nonparametric import distinct, median
from .workers import split_map

# The most gray levels a discretization may use: a GLCM holds levels^2 counts,
# so 1,024 levels keep one at 8 MiB.
MAX_LEVELS = 1024

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
            raise InvalidParameterError(f"expected {nx * ny * nz} intensities, got {arr.size}")
        object.__setattr__(self, "intensities", arr.reshape((nx, ny, nz), order="F"))


@dataclass(frozen=True)
class RegionMask:
    dims: tuple[int, int, int]
    occupancy: np.ndarray          # boolean, shape dims

    def __post_init__(self):
        nx, ny, nz = self.dims
        arr = np.asarray(self.occupancy)
        if arr.size != nx * ny * nz:
            raise InvalidParameterError(f"expected {nx * ny * nz} mask values, got {arr.size}")
        if arr.dtype != bool:
            vals = distinct(arr)
            if not np.all(np.isin(vals, (0, 1))):
                raise InvalidParameterError("mask values must be 0 or 1")
        object.__setattr__(self, "occupancy",
                           arr.reshape((nx, ny, nz), order="F").astype(bool))

    @property
    def voxel_count(self) -> int:
        return int(np.sum(self.occupancy))


def _check_pair(grid: VoxelGrid, mask: RegionMask):
    if grid.dims != mask.dims:
        raise InvalidParameterError(f"grid dims {grid.dims} != mask dims {mask.dims}")
    if mask.voxel_count == 0:
        raise InvalidParameterError("mask has no occupied voxels")


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
        "median": float(median(values)),
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
        raise InvalidParameterError("mask has no occupied voxels")
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
    if levels > MAX_LEVELS:
        raise InvalidParameterError(f"need at most {MAX_LEVELS} gray levels, got {levels}")
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


def texture_matrices(grid: VoxelGrid, mask: RegionMask, levels: int = 32) -> TextureMatrices:
    """Build the direction-merged GLCM, GLRLM and 26-connected GLSZM.

    All three are computed on the mask's bounding box, with no margin: a
    voxel outside the mask never pairs, runs or joins a zone, so the crop
    changes no matrix.
    """
    binned = discretize(grid, mask, levels)
    occ = mask.occupancy
    box = tuple(slice(a.min(), a.max() + 1) for a in np.nonzero(occ))
    return _texture(binned[box], occ[box], levels)


def _texture(binned, occ, levels) -> TextureMatrices:
    """The three matrices of `binned` (-1 outside `occ`), in one pass over
    GLCM_OFFSETS. Each direction's masked pairs are its GLCM codes, and its
    equal-level pairs are its edges: labelled alone they give the direction's
    runs; all 13 directions' edges, which reach all 26 neighbours, labelled
    together give the zones."""
    index = np.arange(occ.size).reshape(occ.shape)
    codes, edges, runs = [], [], []
    for off in GLCM_OFFSETS:
        src = tuple(slice(0, n - o) if o >= 0 else slice(-o, n) for n, o in zip(occ.shape, off))
        dst = tuple(slice(o, n) if o >= 0 else slice(0, n + o) for n, o in zip(occ.shape, off))
        pair_ok = occ[src] & occ[dst]
        a, b = binned[src][pair_ok], binned[dst][pair_ok]
        codes += [a * levels + b, b * levels + a]  # symmetric accumulation
        same = pair_ok & (binned[src] == binned[dst])
        edges.append((index[src][same], index[dst][same]))
        runs.append(_zones(binned, occ, *edges[-1]))
    pairs = np.bincount(np.concatenate(codes), minlength=levels * levels)
    glcm = pairs.reshape(levels, levels) / max(int(pairs.sum()), 1)
    glrlm = _histogram(*(np.concatenate(r) for r in zip(*runs)), levels)
    glszm = _histogram(*_zones(binned, occ, *(np.concatenate(e) for e in zip(*edges))), levels)
    return TextureMatrices(glcm=glcm, glrlm=glrlm, glszm=glszm)


def _zones(binned, occ, a, b):
    """(level, size) of each connected set of masked voxels that the edges
    a[i]-b[i] (flat indices into `occ`, joining equal levels) make.

    Every voxel starts as its own label. Each sweep hooks the labels at both
    ends of every edge to the smaller one, then jumps labels to their labels'
    labels until they stop moving (Shiloach & Vishkin); sweeps repeat until
    one changes nothing. Labels only fall and never leave their zone, so
    each zone ends labelled by its smallest voxel. A 9,825-voxel serpentine
    zone takes 4 sweeps. Labelling in numpy keeps an image library out: its
    labeller, even imported on first use, loads a special-function module
    that doubles every command's start-up time and memory.
    """
    label = np.arange(occ.size)
    while True:
        lower = label.copy()
        np.minimum.at(lower, label[a], label[b])
        np.minimum.at(lower, label[b], label[a])
        while not np.array_equal(lower, jumped := lower[lower]):
            lower = jumped
        if np.array_equal(lower, label):
            break
        label = lower
    sizes = np.bincount(label[occ.ravel()])
    roots = np.flatnonzero(sizes)
    return binned.ravel()[roots], sizes[roots]


def _histogram(level, size, levels):
    """(levels, largest size) counts of the (level, size) pairs."""
    width = int(size.max(initial=1))
    cells = np.bincount(level * width + size - 1, minlength=levels * width)
    return cells.reshape(levels, width).astype(float)


def texture_features(grid: VoxelGrid, mask: RegionMask, levels: int = 32) -> dict[str, float]:
    """GLCM entropy (bits), GLRLM short-run emphasis, GLSZM zone variance."""
    mats = texture_matrices(grid, mask, levels)

    p = mats.glcm[mats.glcm > 0]
    entropy = float(-np.sum(p * np.log2(p))) if p.size else 0.0

    run_lengths = np.arange(1, mats.glrlm.shape[1] + 1, dtype=float)
    # a nonempty mask (discretize checks) has at least one run and one zone
    sre = float(np.sum(mats.glrlm / run_lengths[None, :] ** 2) / mats.glrlm.sum())

    zone_sizes = np.arange(1, mats.glszm.shape[1] + 1, dtype=float)
    zone_counts = mats.glszm.sum(axis=0)
    n_zones = zone_counts.sum()
    mean_size = float(np.sum(zone_counts * zone_sizes) / n_zones)
    zone_var = float(np.sum(zone_counts * (zone_sizes - mean_size) ** 2) / n_zones)

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
# UTF-8, with or without a byte-order mark. Line 1: "dims nx ny nz" / line 2:
# "spacing sx sy sz" / then intensities, whitespace-separated, x-fastest.
# Masks use the same layout with 0/1 values.


def _read_lattice(path, what):
    """(dims, spacing, values) of the grid or mask file at `path`."""
    with reading(what, path) as fh:
        lines = fh.read().strip().splitlines()
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
    """The tokens as finite numbers; the values' row is the line they start on."""
    try:
        values = np.array(tokens, dtype=dtype)
    except ValueError as exc:
        raise RowParseError(row, column, f"{path}: {exc}") from None
    finite = np.isfinite(values)
    if not finite.all():
        raise RowParseError(row, column,
                            f"{path}: non-finite value: {tokens[np.argmin(finite)]!r}")
    return values


def load_voxel_grid(path) -> VoxelGrid:
    return VoxelGrid(*_read_lattice(path, "voxel grid"))


def load_region_mask(path) -> RegionMask:
    dims, _, flat = _read_lattice(path, "region mask")
    return RegionMask(dims, flat)


def extract_subjects(grid_dir, ids, levels):
    """(sorted feature names, one row of their values per id) from each id's
    <id>_grid.txt and <id>_mask.txt in grid_dir."""
    def features(sid):
        return extract_all(load_voxel_grid(Path(grid_dir) / f"{sid}_grid.txt"),
                           load_region_mask(Path(grid_dir) / f"{sid}_mask.txt"), levels)

    by_subject = split_map(features, ids)
    names = sorted(by_subject[0]) if by_subject else None
    return names, [[feats[k] for k in names] for feats in by_subject]
