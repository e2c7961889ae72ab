"""Command-line runner for all experiments.

Usage (installed as ``repro-experiments``):

    repro-experiments list
    repro-experiments table1 table2
    repro-experiments figure5 --scale 0.25
    repro-experiments figure6 figure8 --jobs 2
    repro-experiments all --checkpoint-dir out/.ckpt --resume

Each experiment prints the paper-shaped table/series for every
benchmark.  ``--scale`` shrinks the traces for quick looks; ``--jobs``
fans the sweep-shaped experiments out over threads (defaults
to the ``REPRO_JOBS`` environment variable, declared in
:mod:`repro.util.envvars`; experiments that don't sweep ignore it).

``--checkpoint-dir`` snapshots each finished experiment's report
atomically (:class:`repro.resilience.checkpoint.CheckpointStore`);
rerunning with ``--resume`` serves those snapshots instead of
recomputing, so an interrupted ``all`` continues where it died.
Snapshots are keyed by the settings that change results (scale, plot),
so a resume at different settings recomputes everything.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.resilience.checkpoint import CheckpointStore
from repro.util import envvars

from repro.experiments import (
    antialiasing_shootout,
    banks_ablation,
    best_history,
    claims,
    context_switch_ablation,
    encoding_ablation,
    egskew_ablation,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    interference_study,
    opt_replacement,
    os_pressure,
    pas_extension,
    robustness,
    skew_ablation,
    table1,
    table2,
    update_ablation,
    warmup,
    workload_class,
)

__all__ = ["EXPERIMENTS", "run_experiment", "main"]

# name -> (module, takes_scale)
EXPERIMENTS: Dict[str, Tuple[object, bool]] = {
    "table1": (table1, True),
    "table2": (table2, True),
    "figure1": (figure1, True),
    "figure2": (figure2, True),
    "figure3": (figure3, False),
    "figure4": (figure4, False),
    "figure5": (figure5, True),
    "figure6": (figure6, True),
    "figure7": (figure7, True),
    "figure8": (figure8, True),
    "figure9": (figure9, False),
    "figure10": (figure10, False),
    "figure11": (figure11, True),
    "figure12": (figure12, True),
    "banks": (banks_ablation, True),
    "update": (update_ablation, True),
    "skew-functions": (skew_ablation, True),
    "egskew-bank0": (egskew_ablation, True),
    "interference": (interference_study, True),
    "pas": (pas_extension, True),
    "shootout": (antialiasing_shootout, True),
    "encoding": (encoding_ablation, True),
    "opt-vs-lru": (opt_replacement, True),
    "os-pressure": (os_pressure, True),
    "context-switch": (context_switch_ablation, True),
    "robustness": (robustness, True),
    "best-history": (best_history, True),
    "claims": (claims, True),
    "warmup": (warmup, True),
    "workload-class": (workload_class, True),
}


def run_experiment(
    name: str,
    scale: float = 1.0,
    plot: bool = False,
    jobs: Optional[int] = None,
) -> str:
    """Run one experiment by name and return its rendered report.

    With ``plot=True``, experiments that expose a ``render_plot`` (the
    curve-shaped figures) return ASCII line charts instead of tables.
    ``jobs`` is forwarded to experiments whose ``run`` accepts it (the
    sweep-shaped figures); others run as before.
    """
    try:
        module, takes_scale = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; known: {known}") from None
    kwargs = {}
    if takes_scale:
        kwargs["scale"] = scale
    if jobs is not None and "jobs" in inspect.signature(module.run).parameters:
        kwargs["jobs"] = jobs
    result = module.run(**kwargs)
    if plot and hasattr(module, "render_plot"):
        return module.render_plot(result)
    return module.render(result)


def main(argv=None) -> int:
    """Entry point of the ``repro-experiments`` command-line tool."""
    try:
        return _main(argv)
    except BrokenPipeError:  # e.g. `repro-experiments list | head`
        return 0


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of Michaud, Seznec & Uhlig "
            "(ISCA 1997) on the synthetic IBS-clone workloads."
        ),
    )
    parser.add_argument(
        "names",
        nargs="+",
        help="experiment names, 'all', or 'list'",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="trace-length multiplier (default 1.0)",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render figures as ASCII line charts where supported",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "threads for sweep-shaped experiments "
            f"(0 = one per CPU; default: ${envvars.JOBS.name}, else serial)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help=(
            "snapshot each finished experiment's report here "
            "(atomic JSON, one file per experiment)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "serve experiments already snapshotted in --checkpoint-dir "
            "instead of recomputing them"
        ),
    )
    args = parser.parse_args(argv)
    if args.resume and args.checkpoint_dir is None:
        parser.error("--resume requires --checkpoint-dir")

    if args.names == ["list"]:
        for name in EXPERIMENTS:
            print(name)
        return 0

    store = None
    if args.checkpoint_dir is not None:
        # jobs deliberately isn't part of the key: the grids are
        # byte-identical for every worker count.
        store = CheckpointStore(
            args.checkpoint_dir,
            meta={"scale": args.scale, "plot": bool(args.plot)},
        )

    names = list(EXPERIMENTS) if args.names == ["all"] else args.names
    # perf_counter is monotonic: wall-clock (time.time) steps under NTP
    # adjustment and would misreport long sweep timings.
    run_started = time.perf_counter()
    for name in names:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; try 'list'", file=sys.stderr)
            return 2
        if store is not None and args.resume:
            cached = store.load(name)
            if cached is not None:
                print(f"=== {name} (from checkpoint) ===")
                print(cached["report"])
                print(f"--- {name} served from checkpoint ---\n")
                continue
        started = time.perf_counter()
        print(f"=== {name} ===")
        report = run_experiment(
            name, scale=args.scale, plot=args.plot, jobs=args.jobs
        )
        print(report)
        if store is not None:
            store.store(name, {"report": report})
        elapsed = time.perf_counter() - started
        print(f"--- {name} finished in {elapsed:.1f}s ---\n")
    total = time.perf_counter() - run_started
    print(f"=== ran {len(names)} experiment(s) in {total:.1f}s ===")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
