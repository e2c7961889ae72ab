"""Byte-level pins of the synthetic trace generator's output.

The generator promises that a :class:`WorkloadConfig` always yields the
same trace.  These SHA-256 digests cover all four columns, their dtypes
and lengths included, for every registry clone and for hand-built edge
configs.  Any change to the bytes of a trace fails here, directly,
instead of showing up (or not) as a shifted misprediction count in the
golden suite.  A deliberate change to the workloads re-records the
digests with ``digest(generate_trace(config))``; the on-disk trace cache
does not version the generator, so stale cache entries must then be
cleared too.
"""

import hashlib

import pytest

from repro.traces.synthetic.generator import WorkloadConfig, generate_trace
from repro.traces.synthetic.kernel import SchedulerConfig
from repro.traces.synthetic.workloads import (
    IBS_BENCHMARKS,
    IBS_EXTRA_BENCHMARKS,
    SPEC_BENCHMARKS,
    ibs_workload,
)


def digest(trace) -> str:
    """SHA-256 over each column's name, dtype, length and bytes."""
    sha = hashlib.sha256()
    for label in ("pcs", "takens", "conditionals", "targets"):
        column = getattr(trace, label)
        sha.update(f"{label}:{column.dtype.str}:{len(column)};".encode())
        sha.update(column.tobytes())
    return sha.hexdigest()


#: ``"<clone>@<scale>"`` -> digest of ``generate_trace(config.scaled(scale))``.
CLONE_DIGESTS = {
    "groff@0.02": "c364d886a18304d39eb18a8608adf38337abfd13cd9802b6a7c48471bae28972",
    "groff@0.25": "a3e58b909e04dc9505364ef0f6f0d011edb27e0a6e7a0744e7a21fd8eb0215aa",
    "gs@0.02": "7dcc66a5680311ed78caf8dbc0f58f6d4d5f1aa651723ca05cda006d59c6d4b9",
    "gs@0.25": "b47bdb18373fb3c82336509495f42d0f41dd6341e8bc9db882ea931d72a9ccda",
    "mpeg_play@0.02": "c813ad39facf6ae3f74b2dff823382f7f9362e73f4b546ccfc9959a1e3afa265",
    "mpeg_play@0.25": "0662d8954e553b62255a6c44b12470645bd1c7865da7e47abcc90be43eb4095c",
    "nroff@0.02": "68a076634e39bf9d62c5ad1db1f0aab16fc544588795dc80d766482e30b02dc5",
    "nroff@0.25": "90a5621e8f25769f1bf34bb98fab6b6b69280f56bbff771e5fd9f774f8a600f7",
    "real_gcc@0.02": "75293d3e72f12b2067f2d9e464ae0877c0ded7cf4c36885e5fad1183cf2f7f29",
    "real_gcc@0.25": "76046490253e602b918d47b8f4b7ff3e605b55a1520ce7a1b34606ea591a2d35",
    "verilog@0.02": "31c53c005091f5988d104098e29f74f288e09ff7507decaba0a856f50ed97c3a",
    "verilog@0.25": "e901fb2efb6860ced8b4cfcb3b2bbaf1e565b7709d1b494f0a4b5c765baba335",
    "sdet@0.02": "3cb9ee31a213b5ce28018293e4bb6ba90aaae7199721848c0bc402fb4cff6c67",
    "sdet@0.25": "597121d067fd9fc3459238632faae8caed1d64aef30fffb814bcf74f57e27d31",
    "video_play@0.02": "164ce6005e23de5c18e9046a2488510a5d95364062c07b3b9c429e55f8f8e0b2",
    "video_play@0.25": "e6295ef093a92967eb0855943b9afedeb8dc5f213fd16bad116aceae61849e60",
    "spec_int_like@0.02": "514b8bb5b1860d8ac87c01ec3d86932f9ef2d607fed5971ff386487a66b4d4ca",
    "spec_int_like@0.25": "8bff76c227f4a7f6bf0eea1601c97315ebdeaf69566fb3a1fa08069600dab851",
    "spec_fp_like@0.02": "cb5df42f01bb5f5b288c177cf4bfd0b5a883b21c439b9da91ca94df83dc2891e",
    "spec_fp_like@0.25": "4f99c9a937dce9384aeee9818467a667a2e09bf6594b2133dda1febc49a7142b",
    "spec_compiler_like@0.02": "ec02a7580377e6fec443aa04a6fd1dfc23f13687f242aa64b209944e8fa982da",
    "spec_compiler_like@0.25": "d9e44bbcdc6b33e3355aa35db4ead642762c28c8167d9fd3ee4c037fe0d09825",
    "nroff@2.0": "1e11ddccd45a7e0c5b1625b5ed757aebab65cd96e0b2db301f69bca65598f61a",
}


def _edge(name, **overrides) -> WorkloadConfig:
    """A small two-process workload with a kernel and frequent interrupts."""
    fields = dict(
        name=name,
        seed=11,
        length=3_000,
        processes=2,
        static_branches_per_process=60,
        procedures_per_process=8,
        kernel_static_branches=50,
        scheduler=SchedulerConfig(
            mean_quantum=200,
            kernel_share=0.2,
            mean_kernel_burst=40,
            interrupt_rate=0.01,
        ),
    )
    fields.update(overrides)
    return WorkloadConfig(**fields)


EDGE_CONFIGS = {
    "length0": _edge("length0", length=0),
    "length1": _edge("length1", length=1),
    "one-process": _edge("one-process", processes=1),
    "no-interrupts": _edge(
        "no-interrupts",
        scheduler=SchedulerConfig(
            mean_quantum=200,
            kernel_share=0.2,
            mean_kernel_burst=40,
            interrupt_rate=0.0,
        ),
    ),
    # A kernel share with no kernel program: the scheduler runs no kernel.
    "kernel-share-no-kernel": _edge(
        "kernel-share-no-kernel", kernel_static_branches=0
    ),
}

EDGE_DIGESTS = {
    "length0": "f050a911cd739206423543a46c5331f867c1c3c6b8c4963659bd633e6339ce7e",
    "length1": "ecf149613f22c221b846e5e1ab97d7b18811032ea6888674e8880db14da698d2",
    "one-process": "ec69e113fb2eb22a6f9a3c47a6bcc01655d60fb0846b063039866672cd57c27f",
    "no-interrupts": "f61935f18cac643a20f28f2634ead40db1b5dfcc79d15a611f19a5cb5fb86220",
    "kernel-share-no-kernel": "46ffd8fdaa663ea779b5c4e4fa352dcaf1f29981826e51ea5904c37581b09783",
}


def test_every_registry_clone_is_pinned():
    names = IBS_BENCHMARKS + IBS_EXTRA_BENCHMARKS + SPEC_BENCHMARKS
    for name in names:
        for scale in (0.02, 0.25):
            assert f"{name}@{scale}" in CLONE_DIGESTS


@pytest.mark.parametrize("key", sorted(CLONE_DIGESTS))
def test_clone_bytes(key):
    name, scale = key.split("@")
    trace = generate_trace(ibs_workload(name).scaled(float(scale)))
    assert digest(trace) == CLONE_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(EDGE_CONFIGS))
def test_edge_config_bytes(key):
    trace = generate_trace(EDGE_CONFIGS[key])
    assert len(trace) == EDGE_CONFIGS[key].length
    assert digest(trace) == EDGE_DIGESTS[key]
