import numpy as np
import pytest

from recurrisk.radiomics import (
    GLCM_OFFSETS,
    RegionMask,
    VoxelGrid,
    _run_length_matrix,
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


def assert_matches_loop(binned, occ, levels, offsets=GLCM_OFFSETS):
    got = _run_length_matrix(binned, occ, levels, offsets)
    want = run_length_loop(binned, occ, levels, offsets)
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
        glrlm = _run_length_matrix(binned, occ, 2, GLCM_OFFSETS)
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

    def test_no_offsets(self):
        occ = np.ones((2, 2, 2), dtype=bool)
        assert_matches_loop(np.zeros(occ.shape, dtype=int), occ, 2, ())


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
        glrlm = texture_matrices(grid, mask, levels=2, glcm_offsets=AXES).glrlm
        # along x every line of the cube is two runs of k/2, one per level;
        # along y and z each level holds (k/2)*k lines, each one run of k
        want = np.zeros((2, k))
        want[:, k // 2 - 1] = k * k
        want[:, k - 1] = 2 * (k // 2) * k
        assert np.array_equal(glrlm, want)

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
