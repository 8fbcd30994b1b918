import numpy as np
import pytest

from recurrisk.cohort import Cohort, SyntheticSpec, generate_synthetic


def make_cohort(times, events, X, names=None, ids=None):
    """Build a cohort from plain arrays."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] != len(times):
        X = X.T
    names = tuple(names) if names else tuple(f"x{j}" for j in range(X.shape[1]))
    ids = list(ids) if ids else [f"s{i}" for i in range(len(times))]
    return Cohort(names, ids, times, events, X)


def write_grids(folder, ids, rng):
    """A random 4x4x4 voxel grid and region mask per id, as <id>_grid.txt
    and <id>_mask.txt in `folder`; returns the folder."""
    folder.mkdir()
    for sid in ids:
        for kind, values in (("grid", rng.normal(size=64)), ("mask", rng.random(64) < 0.5)):
            text = " ".join(str(float(v)) for v in values)
            (folder / f"{sid}_{kind}.txt").write_text(
                f"dims 4 4 4\nspacing 1 1 1\n{text}\n", encoding="utf-8")
    return folder


def random_censored_cohort(rng, n, d, tie_fraction=0.0):
    """Random cohort with events, censoring and optional tied times."""
    X = rng.standard_normal((n, d))
    times = rng.exponential(10.0, n) + 0.1
    if tie_fraction > 0:
        times = np.round(times, 0) + 0.5  # coarse grid forces ties
    events = rng.integers(0, 2, n)
    if events.sum() == 0:
        events[rng.integers(0, n)] = 1
    return make_cohort(times, events, X)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def linear_cohort():
    """n=2000 cohort with beta = (1, -1); the shared recovery oracle."""
    spec = SyntheticSpec(n=2000, true_coefficients=(1.0, -1.0),
                         weibull_shape=1.5, seed=7)
    return generate_synthetic(spec)


@pytest.fixture(scope="session")
def small_linear_cohort():
    spec = SyntheticSpec(n=300, true_coefficients=(1.0, -1.0), seed=21)
    return generate_synthetic(spec)
