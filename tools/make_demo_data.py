#!/usr/bin/env python3
"""Regenerate the bundled demo cohort (data/demo_cohort.csv).

186 subjects, six standardized features with fixed log-hazard weights;
two columns are pure noise so the screening stage has something to drop.
Deterministic: rerunning this script reproduces the file byte for byte
(tests/test_cohort.py checks this).
"""

import dataclasses
from pathlib import Path

from recurrisk.cohort import Cohort, SyntheticSpec, generate_synthetic, write_cohort

FEATURE_NAMES = ("tumor_size", "mgmt_methylation", "glcm_entropy",
                 "sphericity", "age", "adc_mean")
TRUE_WEIGHTS = (0.9, -0.8, 0.7, -0.5, 0.0, 0.0)
SEED = 20240521


def demo_cohort() -> Cohort:
    """The demo cohort: the synthetic draw with patient ids and feature names."""
    spec = SyntheticSpec(
        n=186,
        true_coefficients=TRUE_WEIGHTS,
        weibull_shape=1.4,
        weibull_scale=18.0,
        censoring_rate_target=0.35,
        seed=SEED,
    )
    cohort, _ = generate_synthetic(spec)
    return dataclasses.replace(cohort, feature_names=FEATURE_NAMES,
                               ids=[f"p{i + 1:03d}" for i in range(len(cohort))])


def main():
    cohort = demo_cohort()
    out = Path(__file__).resolve().parent.parent / "data" / "demo_cohort.csv"
    write_cohort(cohort, out)
    print(f"wrote {len(cohort)} subjects ({int(cohort.events.sum())} events) to {out}")


if __name__ == "__main__":
    main()
