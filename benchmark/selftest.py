"""Self-test of the benchmark's own checks.

    python3 benchmark/selftest.py

Shows that the output check rejects a perturbed rmse.csv row and a changed
single-shot estimate (through the same code paths the timed runs use), that
the trace wrappers are always removed, and that the metric and workload
names agree with BENCHMARK.json and match ``[A-Za-z0-9_.-]+``. Exits 1 on
the first failed check. Takes a few seconds; it times nothing.
"""

from __future__ import annotations

import json
import re
import sys

from run import (
    END_TO_END,
    PER_LAYER,
    REFERENCE,
    ROOT,
    WORKLOADS,
    Tally,
    compare_csv,
    csdoa,
    load_single_reference,
    replay,
    run_sweep,
    timed_singles,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def expect(condition: bool, what: str) -> None:
    if not condition:
        sys.exit(f"selftest: FAILED: {what}")
    print(f"ok  {what}")


def perturb(line: str) -> str:
    """The line with its last digit changed, as a moved count would change it."""
    index = max(i for i, c in enumerate(line) if c.isdigit())
    return line[:index] + str((int(line[index]) + 1) % 10) + line[index + 1:]


def check_sweep_rows() -> None:
    wl = WORKLOADS["mc-2src"]
    reference = (REFERENCE / f"{wl.name}.csv").read_text(encoding="utf-8")
    lines = reference.splitlines(keepends=True)
    rows = len(lines) - 1

    tally = Tally()
    run_sweep(wl, wl.ref_seed, reference, tally)
    expect((tally.attempted, tally.failed) == (rows, 0), "mc-2src at its reference seed matches")

    perturbed = "".join(lines[:3] + [perturb(lines[3].rstrip("\n")) + "\n"] + lines[4:])
    tally = Tally()
    run_sweep(wl, wl.ref_seed, perturbed, tally)
    expect((tally.attempted, tally.failed) == (rows, 1), "one perturbed rmse.csv row fails")

    fields = lines[-1].rstrip("\n").split(",")
    fields[-2] = "1" if fields[-2] != "1" else "0"  # success_rate_omp of the last point
    moved = "".join(lines[:-1]) + ",".join(fields) + "\n"
    expect(compare_csv(moved, reference) == (rows, 1), "a moved success count fails its row")
    expect(compare_csv("".join(lines[:-1]), reference) == (rows, rows),
           "a missing row fails every row")
    expect(compare_csv(None, reference) == (rows, rows), "a call that raised fails every row")


def check_single_estimates() -> None:
    wl = WORKLOADS["single-shot"]
    reference = load_single_reference()
    seeds = list(range(10))

    tally = Tally()
    timed_singles(wl, seeds, 0.0, tally, reference)
    expect(tally.attempted > 0 and tally.failed == 0, "single-shot estimates match the reference")

    changed = list(reference)
    changed[4] = perturb(changed[4])
    tally = Tally()
    timed_singles(wl, seeds, 0.0, tally, changed)
    expect(tally.failed == tally.attempted // len(seeds),
           "a changed single-shot estimate fails every call on its seed")


def check_wrappers_removed() -> None:
    originals = {name: getattr(csdoa.recovery, name) for name in replay.NESTED}
    tracer = replay.Tracer()
    try:
        with replay.nested_spans(tracer):
            expect(all(getattr(csdoa.recovery, n) is not f for n, f in originals.items()),
                   "nested wrappers are installed inside nested_spans")
            raise RuntimeError("leave the block by an exception")
    except RuntimeError:
        pass
    expect(all(getattr(csdoa.recovery, n) is f for n, f in originals.items()),
           "nested wrappers are removed, also after an exception")


def check_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    expect(all(NAME.fullmatch(n) for n in names), "every name matches [A-Za-z0-9_.-]+")
    expect(len(names) == len(set(names)), "every name is used once")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
           "end-to-end metrics and units agree with BENCHMARK.json")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
           "per-layer metrics and units agree with BENCHMARK.json")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "workloads agree with BENCHMARK.json")


if __name__ == "__main__":
    check_names()
    check_wrappers_removed()
    check_sweep_rows()
    check_single_estimates()
    print("selftest: all checks passed")
