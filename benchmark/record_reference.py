"""Record the outputs the benchmark checks against, from the library as it is.

    python3 benchmark/record_reference.py

Writes ``reference/<sweep workload>.csv``, the rmse.csv bytes of the serial
CLI at the workload's reference seed, and ``reference/single-shot.txt``, one
line ``<seed> <estimates>`` per run_single seed. Re-record only in a change
that means to alter csdoa's outputs, and say so: a re-recorded reference
hides any moved count from the benchmark's check.
"""

from __future__ import annotations

import dataclasses

# run.py puts src/ on the path and imports csdoa from there.
from run import REFERENCE, SINGLE_SEEDS, WORKLOADS, Tally, csdoa, replay, run_sweep


def main() -> None:
    for wl in WORKLOADS.values():
        if wl.single:
            base = wl.scenario(0)
            lines = []
            for seed in range(SINGLE_SEEDS):
                result = csdoa.run_single(dataclasses.replace(base, seed=seed))
                doas = {a: r.estimated.doas_deg for a, r in result.runs.items()}
                lines.append(f"{seed} {replay.format_estimates(doas)}\n")
            (REFERENCE / f"{wl.name}.txt").write_text("".join(lines), encoding="utf-8")
        else:
            _, text = run_sweep(wl, wl.ref_seed, None, Tally())
            (REFERENCE / f"{wl.name}.csv").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
