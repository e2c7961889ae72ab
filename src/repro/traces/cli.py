"""Command-line trace tools.

Usage (installed as ``repro-trace``):

    repro-trace generate groff out.npz [--scale 0.5]
    repro-trace info out.npz
    repro-trace convert out.npz out.txt
    repro-trace simulate out.npz gskew:3x1k:h8:partial gshare:4k:h8
    repro-trace cache [--clear]

``generate`` synthesises an IBS-clone trace and caches it on disk;
``info`` prints Table-1/2-style statistics; ``convert`` transcodes
between the binary (.npz) and text formats by extension; ``simulate``
runs predictor specs over a cached trace, on the vectorized engine
where one applies and optionally across threads
(``--jobs N``; default from the ``REPRO_JOBS`` environment variable);
``cache`` inspects (or clears) the content-addressed trace cache that
every generation path writes through — directory from
``$REPRO_TRACE_CACHE`` (``off`` disables), defaulting to
``$XDG_CACHE_HOME/repro/traces``, i.e. ``~/.cache/repro/traces``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.traces.io import (
    load_trace,
    load_trace_text,
    save_trace,
    save_trace_text,
)
from repro.traces.pairs import _MAX_HISTORY_BITS
from repro.traces.stats import substream_stats, trace_counts
from repro.traces.synthetic.workloads import ibs_trace, ibs_workload
from repro.traces.trace import Trace
from repro.util import envvars

__all__ = ["main"]


def _load_any(path: Path) -> Trace:
    if path.suffix == ".txt":
        return load_trace_text(path)
    return load_trace(path)


def _save_any(trace: Trace, path: Path) -> None:
    if path.suffix == ".txt":
        save_trace_text(trace, path)
    else:
        save_trace(trace, path)


def _cmd_generate(args) -> int:
    ibs_workload(args.benchmark)  # validate the name early
    trace = ibs_trace(args.benchmark, scale=args.scale)
    _save_any(trace, Path(args.output))
    counts = trace_counts(trace)
    print(
        f"wrote {args.output}: {counts.dynamic} conditional branches "
        f"({counts.static} static) from {args.benchmark} x{args.scale}"
    )
    return 0


def _history_bits(text: str) -> int:
    """A ``--history`` value: a length the pair columns can form."""
    bits = int(text)
    if not 0 <= bits <= _MAX_HISTORY_BITS:
        raise argparse.ArgumentTypeError(
            f"history bits must be in [0, {_MAX_HISTORY_BITS}], got {bits}"
        )
    return bits


def _cmd_info(args) -> int:
    trace = _load_any(Path(args.trace))
    counts = trace_counts(trace)
    print(f"trace     : {counts.name}")
    print(f"events    : {counts.events}")
    print(f"dynamic   : {counts.dynamic} conditional branches")
    print(f"static    : {counts.static} branch addresses")
    print(f"taken     : {counts.taken_ratio:.2%}")
    for history in args.history:
        stats = substream_stats(trace, history)
        print(
            f"h={history:<3d}     : {stats.substreams} substreams, "
            f"ratio {stats.substream_ratio:.2f}, "
            f"compulsory {stats.compulsory_ratio:.2%}"
        )
    return 0


def _cmd_convert(args) -> int:
    trace = _load_any(Path(args.source))
    _save_any(trace, Path(args.destination))
    print(f"converted {args.source} -> {args.destination}")
    return 0


def _cmd_simulate(args) -> int:
    from repro.sim.config import make_predictor
    from repro.sim.parallel import simulate_specs

    trace = _load_any(Path(args.trace))
    for spec in args.specs:
        make_predictor(spec)  # reject malformed specs before any work
    print(f"{'spec':32s} {'storage':>9s} {'misprediction':>14s}")
    for spec, result in zip(
        args.specs, simulate_specs(trace, args.specs, jobs=args.jobs)
    ):
        print(
            f"{spec:32s} {result.storage_bits:>8d}b "
            f"{result.misprediction_ratio:>13.2%}"
        )
    return 0


def _cmd_profile(args) -> int:
    from repro.sim.config import make_predictor
    from repro.sim.profile import profile_mispredictions

    trace = _load_any(Path(args.trace))
    result = profile_mispredictions(make_predictor(args.spec), trace)
    print(
        f"{args.spec} on {trace.name}: "
        f"{result.misprediction_ratio:.2%} misprediction "
        f"({result.total_mispredictions}/{result.total_branches})"
    )
    print(
        f"top {args.top} branches own "
        f"{result.concentration(args.top):.0%} of all mispredictions:\n"
    )
    print(f"{'pc':>12s} {'execs':>8s} {'misses':>7s} {'rate':>7s} {'taken':>7s}")
    for profile in result.top(args.top):
        print(
            f"{profile.pc:>#12x} {profile.executions:>8d} "
            f"{profile.mispredictions:>7d} {profile.miss_rate:>6.1%} "
            f"{profile.taken_ratio:>6.1%}"
        )
    return 0


def _cmd_cache(args) -> int:
    from repro.traces.cache import CACHE_ENV_VAR, cache_dir

    directory = cache_dir()
    if directory is None:
        print(f"trace cache disabled (${CACHE_ENV_VAR})")
        return 0
    entries = sorted(directory.glob("*.npz")) if directory.is_dir() else []
    total = sum(entry.stat().st_size for entry in entries)
    print(f"trace cache: {directory}")
    print(f"entries    : {len(entries)} ({total / 1e6:.1f} MB)")
    if args.clear:
        for entry in entries:
            entry.unlink()
        print(f"cleared    : {len(entries)} entries")
    return 0


def main(argv=None) -> int:
    """Entry point of the ``repro-trace`` command-line tool."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Branch-trace tools.",
        epilog=(
            "Generated workloads are content-addressed and cached under "
            f"${envvars.TRACE_CACHE.name} (set it to 'off' to disable; "
            f"default {envvars.TRACE_CACHE.default}, via "
            "$XDG_CACHE_HOME/repro/traces); see the 'cache' subcommand."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="synthesise an IBS-clone trace to disk"
    )
    generate.add_argument("benchmark")
    generate.add_argument("output")
    generate.add_argument("--scale", type=float, default=1.0)
    generate.set_defaults(handler=_cmd_generate)

    info = commands.add_parser("info", help="print trace statistics")
    info.add_argument("trace")
    info.add_argument(
        "--history",
        type=_history_bits,
        nargs="*",
        default=[4, 12],
        help="history lengths for substream statistics",
    )
    info.set_defaults(handler=_cmd_info)

    convert = commands.add_parser(
        "convert", help="transcode between .npz and .txt formats"
    )
    convert.add_argument("source")
    convert.add_argument("destination")
    convert.set_defaults(handler=_cmd_convert)

    sim = commands.add_parser(
        "simulate", help="run predictor specs over a trace"
    )
    sim.add_argument("trace")
    sim.add_argument("specs", nargs="+")
    sim.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "threads (0 = one per CPU; "
            f"default: ${envvars.JOBS.name}, else serial)"
        ),
    )
    sim.set_defaults(handler=_cmd_simulate)

    profile = commands.add_parser(
        "profile", help="rank the branches a predictor mispredicts"
    )
    profile.add_argument("trace")
    profile.add_argument("spec")
    profile.add_argument("--top", type=int, default=10)
    profile.set_defaults(handler=_cmd_profile)

    cache = commands.add_parser(
        "cache", help="inspect or clear the on-disk trace cache"
    )
    cache.add_argument(
        "--clear", action="store_true", help="delete every cached trace"
    )
    cache.set_defaults(handler=_cmd_cache)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
