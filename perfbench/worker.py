"""One benchmark process: a traced dedsid command, or the stream set-up or operation.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``:

    worker.py cli --trace SPANS -- <dedsid arguments>
    worker.py stream-setup --seed N --record FILE [--trace SPANS]
    worker.py stream --record FILE [--trace SPANS]

``stream-setup`` and ``stream`` print one JSON line with their timings:
``stream-setup`` with the record's shape, ``stream`` with the measured
errors that ``run.py`` checks. Untraced dedsid
commands do not come through here: ``run.py`` starts ``python -m dedsid.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from spans import Tracer

# The stream record has the shape of acceptance criterion 08.
STREAM_Q, STREAM_P, STREAM_STEPS = 3, 21, 1_000_000


def _traced(path):
    tracer = None
    if path:
        tracer = Tracer()
        tracer.install()
    return tracer


def cmd_cli(args) -> int:
    from dedsid import cli

    tracer = _traced(args.trace)
    try:
        return cli.main(args.argv)
    finally:
        tracer.dump(args.trace)


def cmd_stream_setup(args) -> int:
    """Simulate the stream record: a seeded, noise-free random stable plant."""
    from dedsid import plant

    tracer = _traced(args.trace)
    t0 = time.perf_counter()
    spec = plant.random_stable_plant(STREAM_Q, STREAM_P, seed=args.seed, radius=0.9)
    inputs = plant.gaussian_inputs(list(spec.input_names), STREAM_STEPS, 100.0, seed=args.seed + 1)
    record = plant.simulate(spec, inputs, seed=args.seed + 2).dataset
    setup_s = time.perf_counter() - t0
    if tracer:
        tracer.dump(args.trace)
    np.savez(args.record, data=record.data, A=spec.A, B=spec.B)
    print(json.dumps({"setup_s": setup_s, "q": STREAM_Q, "p": STREAM_P, "steps": STREAM_STEPS}))
    return 0


def cmd_stream(args) -> int:
    """Time build_snapshots + fit over the whole record, then its rollout."""
    from dedsid import dmdc
    from dedsid.dataset import ChannelSpec, TimeSeriesDataset

    rec = np.load(args.record)
    inputs = [f"u{i + 1}" for i in range(STREAM_P)]
    observables = [f"y{i + 1}" for i in range(STREAM_Q)]
    channels = [ChannelSpec(n, "au", "input") for n in inputs]
    channels += [ChannelSpec(n, "au", "observable") for n in observables]
    ds = TimeSeriesDataset("stream", 100.0, tuple(channels), rec["data"])
    np.linalg.svd(np.ones((24, 64)))  # loads BLAS before the clock starts
    tracer = _traced(args.trace)

    cpu0, t0 = time.process_time(), time.perf_counter()
    snapshots = dmdc.build_snapshots([ds], inputs, observables)
    model = dmdc.fit(snapshots)
    fit_s, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    pairs = snapshots.pair_count
    del snapshots
    y0, u = ds.matrix_for(observables)[0], ds.matrix_for(inputs)[:-1].T
    cpu0, t0 = time.process_time(), time.perf_counter()
    pred = dmdc.rollout(model, y0, u)
    rollout_s, cpu = time.perf_counter() - t0, cpu + time.process_time() - cpu0
    if tracer:
        tracer.dump(args.trace)

    # Errors are measured here, outside the clock, and judged by run.py. The
    # record is noise-free, so its observables are the plant's trajectory.
    clean = ds.matrix_for(observables)
    print(json.dumps({
        "fit_s": fit_s,
        "rollout_s": rollout_s,
        "cpu_s": cpu,
        "pairs": pairs,
        "steps": pred.shape[1],
        "operator_max_err": max(
            float(np.max(np.abs(model.A - rec["A"]))), float(np.max(np.abs(model.B - rec["B"])))
        ),
        "rollout_max_rel_err": float(np.max(np.abs(pred.T - clean[1:])) / np.max(np.abs(clean))),
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("--trace", required=True)
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    setup = sub.add_parser("stream-setup")
    setup.add_argument("--seed", type=int, required=True)
    setup.add_argument("--record", required=True)
    setup.add_argument("--trace")
    stream = sub.add_parser("stream")
    stream.add_argument("--record", required=True)
    stream.add_argument("--trace")
    args = parser.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return {"cli": cmd_cli, "stream-setup": cmd_stream_setup, "stream": cmd_stream}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
