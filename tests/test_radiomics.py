import numpy as np
import pytest

from recurrisk.errors import InvalidParameterError
from recurrisk.radiomics import (
    GLCM_OFFSETS,
    MAX_LEVELS,
    RegionMask,
    VoxelGrid,
    _texture,
    discretize,
    first_order,
    shape_features,
    texture_features,
    texture_matrices,
)

AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def run_length_loop(binned, occ, levels, offsets):
    """The per-voxel walk the array run lengths replaced: the test oracle."""
    nx, ny, nz = occ.shape
    max_len = 1
    counts = []
    for ox, oy, oz in offsets:
        for x, y, z in np.argwhere(occ):
            px, py, pz = x - ox, y - oy, z - oz
            level = binned[x, y, z]
            inside_prev = 0 <= px < nx and 0 <= py < ny and 0 <= pz < nz
            if inside_prev and occ[px, py, pz] and binned[px, py, pz] == level:
                continue  # not the head of a run in this direction
            length = 1
            cx, cy, cz = x + ox, y + oy, z + oz
            while 0 <= cx < nx and 0 <= cy < ny and 0 <= cz < nz \
                    and occ[cx, cy, cz] and binned[cx, cy, cz] == level:
                length += 1
                cx, cy, cz = cx + ox, cy + oy, cz + oz
            counts.append((level, length))
            max_len = max(max_len, length)
    glrlm = np.zeros((levels, max_len))
    for level, length in counts:
        glrlm[level, length - 1] += 1
    return glrlm


def assert_matches_loop(binned, occ, levels):
    got = _texture(binned, occ, levels).glrlm
    want = run_length_loop(binned, occ, levels, GLCM_OFFSETS)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


class TestRunLengthMatrix:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_masks_and_levels(self, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(rng.integers(1, 7, size=3))
        levels = int(rng.integers(2, 5))
        occ = rng.random(dims) < rng.uniform(0.3, 1.0)
        binned = np.where(occ, rng.integers(0, levels, size=dims), -1)
        assert_matches_loop(binned, occ, levels)

    def test_single_voxel(self):
        occ = np.zeros((3, 3, 3), dtype=bool)
        occ[1, 2, 0] = True
        binned = np.where(occ, 1, -1)
        assert_matches_loop(binned, occ, 2)
        glrlm = _texture(binned, occ, 2).glrlm
        assert glrlm.shape == (2, 1) and glrlm[1, 0] == len(GLCM_OFFSETS)

    def test_full_cube_two_levels(self):
        occ = np.ones((4, 5, 3), dtype=bool)
        binned = (np.indices(occ.shape).sum(axis=0) // 3) % 2
        assert_matches_loop(binned, occ, 2)

    def test_constant_region(self):
        occ = np.zeros((6, 6, 6), dtype=bool)
        occ[1:5, 0:6, 2:5] = True
        binned = np.where(occ, 0, -1)
        assert_matches_loop(binned, occ, 3)


def size_zone_loop(binned, occ, levels):
    """One 26-connected `ndimage.label` call per gray level: the test oracle."""
    from scipy import ndimage

    structure = np.ones((3, 3, 3), dtype=int)
    zones = []
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


def cooccurrence_loop(binned, occ, levels, offsets):
    """Symmetric GLCM by np.add.at over the whole grid: the test oracle."""
    glcm = np.zeros((levels, levels))
    for off in offsets:
        src = tuple(slice(0, n - o) if o >= 0 else slice(-o, n) for n, o in zip(occ.shape, off))
        dst = tuple(slice(o, n) if o >= 0 else slice(0, n + o) for n, o in zip(occ.shape, off))
        pair_ok = occ[src] & occ[dst]
        a, b = binned[src][pair_ok], binned[dst][pair_ok]
        np.add.at(glcm, (a, b), 1.0)
        np.add.at(glcm, (b, a), 1.0)
    total_pairs = glcm.sum()
    return glcm / total_pairs if total_pairs > 0 else glcm


class TestSizeZoneMatrix:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_masks_and_levels(self, seed):
        rng = np.random.default_rng(100 + seed)
        dims = tuple(rng.integers(1, 8, size=3))
        levels = int(rng.integers(2, 6))
        occ = rng.random(dims) < rng.uniform(0.3, 1.0)
        occ[tuple(rng.integers(0, dims))] = True
        binned = np.where(occ, rng.integers(0, levels, size=dims), -1)
        assert np.array_equal(_texture(binned, occ, levels).glszm,
                              size_zone_loop(binned, occ, levels))

    @pytest.mark.parametrize("dims", [(1, 1, 1), (3, 2, 4)])
    def test_mask_filling_the_grid_with_one_level(self, dims):
        # no voxel is background, so no label is 0
        occ = np.ones(dims, dtype=bool)
        glszm = _texture(np.full(dims, 2), occ, 3).glszm
        want = np.zeros((3, occ.size))
        want[2, -1] = 1
        assert np.array_equal(glszm, want)


def serpentine(n):
    """A one-voxel tube through an n x n x n lattice of even coordinates, in
    boustrophedon order, with each step's midpoint filled: one zone spanning
    a (2n - 1)^3 box, whose smallest index sits at one end of the tube."""
    nodes = []
    for k in range(n):
        for j in range(n) if k % 2 == 0 else range(n - 1, -1, -1):
            row = range(n) if len(nodes) // n % 2 == 0 else range(n - 1, -1, -1)
            nodes += [(2 * i, 2 * j, 2 * k) for i in row]
    steps = np.abs(np.diff(nodes, axis=0)).sum(axis=1)
    assert np.all(steps == 2)  # consecutive nodes are one midpoint apart
    tube = np.zeros((2 * n - 1,) * 3, dtype=bool)
    for here, there in zip(nodes, nodes[1:] + nodes[-1:]):
        tube[here] = tube[tuple(np.add(here, there) // 2)] = True
    return tube


class TestZoneLabeller:
    """Shapes that stress the label propagation, each `==` to the oracle."""

    def assert_matches_loop(self, binned, occ, levels):
        assert np.array_equal(_texture(binned, occ, levels).glszm,
                              size_zone_loop(binned, occ, levels))

    def test_serpentine_zone_spanning_the_box(self):
        tube = serpentine(12)
        glszm = _texture(tube.astype(int), np.ones(tube.shape, dtype=bool), 2).glszm
        assert glszm[1, tube.sum() - 1] == 1 and glszm[1].sum() == 1
        self.assert_matches_loop(tube.astype(int), np.ones(tube.shape, dtype=bool), 2)
        self.assert_matches_loop(np.where(tube, 0, -1), tube, 2)

    def test_checkerboard_joined_only_through_diagonals(self):
        binned = np.indices((5, 4, 6)).sum(axis=0) % 2
        occ = np.ones(binned.shape, dtype=bool)
        glszm = _texture(binned, occ, 2).glszm
        assert glszm.sum() == 2 and glszm[0, 59] == glszm[1, 59] == 1
        self.assert_matches_loop(binned, occ, 2)

    def test_singleton_zones(self):
        occ = np.zeros((7, 5, 6), dtype=bool)
        occ[::2, ::2, ::2] = True
        binned = np.where(occ, np.arange(occ.size).reshape(occ.shape) % 3, -1)
        glszm = _texture(binned, occ, 3).glszm
        assert glszm.shape == (3, 1) and glszm.sum() == occ.sum()
        self.assert_matches_loop(binned, occ, 3)

    @pytest.mark.parametrize("seed", range(3))
    def test_line(self, seed):
        rng = np.random.default_rng(300 + seed)
        binned = rng.integers(0, 3, size=(1, 1, 40))
        self.assert_matches_loop(binned, np.ones(binned.shape, dtype=bool), 3)


def region(intensity, occ):
    dims = occ.shape
    return (VoxelGrid(dims, (1.0, 1.0, 1.0), intensity.reshape(-1, order="F")),
            RegionMask(dims, occ.reshape(-1, order="F")))


def test_gray_levels_stop_at_the_maximum():
    rng = np.random.default_rng(9)
    grid, mask = region(rng.normal(size=(4, 4, 4)), np.ones((4, 4, 4), dtype=bool))
    glcm = texture_matrices(grid, mask, MAX_LEVELS).glcm
    assert glcm.shape == (MAX_LEVELS, MAX_LEVELS) and glcm.sum() == pytest.approx(1.0)
    with pytest.raises(InvalidParameterError,
                       match=f"^need at most {MAX_LEVELS} gray levels, got {MAX_LEVELS + 1}$"):
        discretize(grid, mask, MAX_LEVELS + 1)


def assert_crop_changes_no_matrix(intensity, occ, levels):
    """texture_matrices, which crops to the mask's bounding box, against the
    oracles run on the whole uncropped grid."""
    grid, mask = region(intensity, occ)
    binned = discretize(grid, mask, levels)
    got = texture_matrices(grid, mask, levels)
    for have, want in [(got.glcm, cooccurrence_loop(binned, occ, levels, GLCM_OFFSETS)),
                       (got.glrlm, run_length_loop(binned, occ, levels, GLCM_OFFSETS)),
                       (got.glszm, size_zone_loop(binned, occ, levels))]:
        assert have.shape == want.shape and np.array_equal(have, want)


class TestBoundingBoxCrop:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_regions(self, seed):
        # 50 draws per seed; the margins around the region are 0 to 3 voxels,
        # so some regions touch the grid faces and some sit inside
        rng = np.random.default_rng(200 + seed)
        for _ in range(50):
            inner = tuple(int(v) for v in rng.integers(1, 7, size=3))
            before = rng.integers(0, 4, size=3)
            dims = tuple(int(v) for v in np.add(inner, before + rng.integers(0, 4, size=3)))
            levels = int(rng.integers(2, 9))
            occ = np.zeros(dims, dtype=bool)
            box = tuple(slice(b, b + n) for b, n in zip(before, inner))
            occ[box] = rng.random(inner) < rng.uniform(0.1, 1.0)
            occ[tuple(rng.integers(before, before + inner))] = True
            intensity = rng.integers(0, 2 * levels, size=dims).astype(float)
            assert_crop_changes_no_matrix(intensity, occ, levels)

    def test_single_voxel(self):
        occ = np.zeros((4, 5, 3), dtype=bool)
        occ[2, 1, 1] = True
        assert_crop_changes_no_matrix(np.arange(60.0).reshape(occ.shape), occ, 4)
        glszm = texture_matrices(*region(np.ones(occ.shape), occ), levels=4).glszm
        assert glszm.shape == (4, 1) and glszm[0, 0] == 1 and glszm.sum() == 1

    def test_box_filled_with_one_level(self):
        occ = np.zeros((6, 6, 6), dtype=bool)
        occ[1:4, 2:5, 1:5] = True
        assert_crop_changes_no_matrix(np.full(occ.shape, 7.0), occ, 8)
        glszm = texture_matrices(*region(np.full(occ.shape, 7.0), occ), levels=8).glszm
        assert glszm[0, -1] == 1 and glszm.sum() == 1

    def test_box_filled_with_two_levels(self):
        occ = np.zeros((7, 5, 6), dtype=bool)
        occ[2:6, 1:4, 1:5] = True
        intensity = np.where(np.indices(occ.shape)[2] < 3, 1.0, 9.0)
        assert_crop_changes_no_matrix(intensity, occ, 2)

    def test_mask_touching_the_grid_faces(self):
        occ = np.zeros((5, 4, 6), dtype=bool)
        occ[0] = occ[-1] = True
        occ[:, 0, 0] = occ[:, -1, -1] = True
        intensity = np.indices(occ.shape).sum(axis=0).astype(float)
        assert_crop_changes_no_matrix(intensity, occ, 5)


class TestCubePhantom:
    """A k-voxel cube inside a larger grid, split into two gray levels along x."""

    k = 4
    spacing = (0.5, 1.0, 2.0)

    def phantom(self):
        n, k = self.k + 2, self.k
        occ = np.zeros((n, n, n), dtype=bool)
        occ[1:k + 1, 1:k + 1, 1:k + 1] = True
        intensity = np.full((n, n, n), 3.0)
        intensity[1:k // 2 + 1] = 10.0
        intensity[k // 2 + 1:k + 1] = 20.0
        grid = VoxelGrid((n, n, n), self.spacing, intensity.reshape(-1, order="F"))
        return grid, RegionMask((n, n, n), occ.reshape(-1, order="F"))

    def test_volume_and_face_area(self):
        _, mask = self.phantom()
        sx, sy, sz = self.spacing
        feats = shape_features(mask, self.spacing)
        assert feats["volume_mm3"] == self.k ** 3 * sx * sy * sz
        assert feats["surface_area_mm2"] == 2 * self.k ** 2 * (sy * sz + sx * sz + sx * sy)

    def test_axis_run_glrlm(self):
        grid, mask = self.phantom()
        k = self.k
        binned, occ = discretize(grid, mask, 2), mask.occupancy
        # along x every line of the cube is two runs of k/2, one per level;
        # along y and z each level holds (k/2)*k lines, each one run of k
        want = np.zeros((2, k))
        want[:, k // 2 - 1] = k * k
        want[:, k - 1] = 2 * (k // 2) * k
        assert np.array_equal(run_length_loop(binned, occ, 2, AXES), want)
        glrlm = texture_matrices(grid, mask, levels=2).glrlm
        assert np.array_equal(glrlm, run_length_loop(binned, occ, 2, GLCM_OFFSETS))

    def test_zones_are_the_two_halves(self):
        grid, mask = self.phantom()
        glszm = texture_matrices(grid, mask, levels=2).glszm
        half = self.k ** 3 // 2
        assert glszm.shape == (2, half)
        assert glszm[:, half - 1].tolist() == [1.0, 1.0] and glszm.sum() == 2


@pytest.mark.parametrize("a", [1, 3, 5])
@pytest.mark.parametrize("spacing", [1.0, 0.7])
def test_cube_sphericity_is_analytic(a, spacing):
    # V = a^3 s^3 and A = 6 a^2 s^2, so pi^(1/3) (6V)^(2/3) / A = (pi/6)^(1/3)
    occ = np.zeros((a + 2,) * 3, dtype=bool)
    occ[1:a + 1, 1:a + 1, 1:a + 1] = True
    mask = RegionMask(occ.shape, occ.reshape(-1, order="F"))
    got = shape_features(mask, (spacing,) * 3)["sphericity"]
    assert got == pytest.approx((np.pi / 6.0) ** (1.0 / 3.0), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("r", [3, 4, 6, 8, 12])
def test_voxelized_sphere_sphericity(r):
    # The ball of voxel centers within r of a lattice point. Each axis line
    # through it holds one run, so the face-counted area is exactly 2 faces
    # per occupied line along x, y and z: 6 * N2(r), with N2(r) the lattice
    # points of the disc of radius r. With V = N3(r), the lattice points of
    # the ball, sphericity is pi^(1/3) (6 N3)^(2/3) / (6 N2). As N2 -> pi r^2
    # and N3 -> 4/3 pi r^3 this tends to 2/3, not 1: the staircase has
    # 3/2 times the sphere's area. For r = 3..12 the lattice counts keep it
    # within 0.021 of 2/3 (largest at r = 3), so 0.03 bounds it.
    n = 2 * r + 3
    offsets = np.indices((n, n, n)) - (r + 1)
    occ = (offsets ** 2).sum(axis=0) <= r * r
    feats = shape_features(RegionMask(occ.shape, occ.reshape(-1, order="F")), (1.0,) * 3)
    k = np.arange(-r, r + 1)
    disc = int(np.sum(k[:, None] ** 2 + k[None, :] ** 2 <= r * r))
    assert feats["volume_mm3"] == occ.sum()
    assert feats["surface_area_mm2"] == 6 * disc
    assert abs(feats["sphericity"] - 2.0 / 3.0) < 0.03
    assert feats["elongation"] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("levels", [4, 32])
def test_texture_features_ignore_intensity_scale_and_shift(seed, levels):
    # integer intensities keep the min-max binning exact under x2 and +c
    rng = np.random.default_rng(seed)
    dims = tuple(int(v) for v in rng.integers(3, 8, size=3))
    values = rng.integers(-40, 60, size=dims).astype(float)
    occ = rng.random(dims) < 0.7
    occ[0, 0, 0] = True
    mask = RegionMask(dims, occ.reshape(-1, order="F"))

    def features(intensity):
        return texture_features(VoxelGrid(dims, (1.0, 1.0, 1.0),
                                          intensity.reshape(-1, order="F")), mask, levels)

    base = features(values)
    assert features(2.0 * values) == base
    assert features(values + 17.0) == base
    assert features(values - 1000.0) == base


UNIT = (1.0, 1.0, 1.0)


@pytest.mark.parametrize("build, message", [
    (lambda: VoxelGrid((0, 1, 1), UNIT, []), "dims must be positive"),
    (lambda: VoxelGrid((2, 1, 1), UNIT, [1.0]), "expected 2 intensities, got 1"),
    (lambda: RegionMask((2, 1, 1), [1]), "expected 2 mask values, got 1"),
    (lambda: first_order(VoxelGrid((2, 1, 1), UNIT, [1.0, 2.0]), RegionMask((1, 2, 1), [1, 1])),
     r"grid dims \(2, 1, 1\) != mask dims \(1, 2, 1\)"),
    (lambda: shape_features(RegionMask((2, 1, 1), [0, 0]), UNIT), "mask has no occupied voxels"),
    (lambda: discretize(VoxelGrid((2, 1, 1), UNIT, [1.0, 2.0]), RegionMask((2, 1, 1), [1, 1]), 1),
     "need at least 2 gray levels"),
], ids=["zero-dim", "intensity-count", "mask-count", "dims-mismatch", "empty-mask", "one-level"])
def test_a_bad_grid_mask_or_setting_raises(build, message):
    with pytest.raises(InvalidParameterError, match=f"^{message}$"):
        build()
