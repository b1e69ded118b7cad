"""How slow can the recorder get before the surrogate stops working?

Drives a first-order plant (0.1 s time constant) with seeded pulse trains at
100 Hz, then refits at progressively coarser decimations of the same data and
reports held-out r2 per rate. The quality cliff sits where the decimated step
outruns the pulse grid.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from dedsid.config import FitConfig, LpocvConfig, RunConfig
from dedsid.plant import PlantSpec, generic_channels, pulse_train_inputs, simulate
from dedsid.validation import frequency_study


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--experiments", type=int, default=10)
    ap.add_argument("--steps", type=int, default=3000)
    ap.add_argument("--seed", type=int, default=100)
    ap.add_argument("--factors", type=int, nargs="+", default=RunConfig.decimation_factors)
    ap.add_argument(
        "--holdout", type=int, default=LpocvConfig.p, help="experiments held out per repeat"
    )
    ap.add_argument("--repeats", type=int, default=LpocvConfig.repeats)
    args = ap.parse_args()

    spec = PlantSpec(
        A=np.array([[np.exp(-0.1)]]),
        B=np.array([[0.8, 0.3]]),
        input_channels=generic_channels("u", "input", 2),
        observable_channels=generic_channels("y", "observable", 1),
        noise_sd=np.zeros(1),
    )
    rng = np.random.default_rng(args.seed)
    datasets = []
    for i in range(args.experiments):
        exp = f"f{i:02d}"
        inputs = pulse_train_inputs(
            spec.input_names, args.steps, 100.0,
            seed=int(rng.integers(0, 2**31 - 1)), experiment_id=exp,
        )
        datasets.append(simulate(spec, inputs, experiment_id=exp).dataset)

    cfg = FitConfig(inputs=spec.input_names, observables=spec.observable_names)
    rows = frequency_study(
        datasets, cfg, factors=args.factors, p=args.holdout, repeats=args.repeats, seed=0
    )

    obs = spec.observable_names[0]
    print(f"{'factor':>6}  {'rate_hz':>8}  {'r2_test':>8}  {'rmse_test':>10}")
    for row in rows:
        r2, rmse = row.r2_test[obs], row.rmse_test[obs]
        print(
            f"{row.factor:>6}  {row.sample_rate_hz:>8.1f}  "
            f"{r2.mean:>8.4f}  {rmse.mean:>10.5f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
