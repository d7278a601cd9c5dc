#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that:

* every workload, timed and traced, prints a last line whose metrics
  are exactly the ones ``BENCHMARK.json`` names, each with its unit;
* a corrupted reference fingerprint turns every simulator pass into
  failed tuples;
* an injected duplicate (and a dropped or swapped tuple) in a real
  process pass's output is counted as failed;
* without ``src/`` the benchmark exits non-zero and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

TINY = {
    "sim-narrow-b1": 2_000,
    "sim-wide-b64": 3_000,
    "proc-ceiling-b64": 600,
    "proc-trickle-kill-b1": 90,
}


def last_json(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    assert code == 0, f"{argv} exited {code}"
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_metrics_emitted(failures: list[str]) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in wl.NAMES:
        for trace in (0, 1):
            out = last_json([
                "--workload", workload, "--seed", "3",
                "--seconds", "0.01", "--trace", str(trace),
            ])
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{workload}/{trace}: keys {sorted(out)}")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                failures.append(f"{workload}/{trace}: not correct: {out}")
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != wanted[trace]:
                failures.append(
                    f"{workload}/{trace}: metrics differ from BENCHMARK.json "
                    f"({set(got) ^ set(wanted[trace])})"
                )
            for name, entry in out["metrics"].items():
                if not isinstance(entry["value"], (int, float)):
                    failures.append(f"{workload}/{trace}: {name} not a number")
                elif trace == 0 and entry["value"] <= 0:
                    failures.append(f"{workload}/{trace}: {name} is not > 0")


def check_corrupted_reference(failures: list[str]) -> None:
    workload = "sim-narrow-b1"
    corrupted = {workload: ["0" * 64] * wl.SUB_SEEDS}
    _, attempted, failed, _ = run.timed_sim(
        wl, workload, wl.DEFAULT_SEED, 0.01, corrupted)
    if failed != attempted:
        failures.append(
            f"corrupted reference: {failed} of {attempted} tuples failed")
    _, attempted, failed, _ = run.timed_sim(
        wl, workload, wl.DEFAULT_SEED + 1, 0.01, corrupted)
    if failed:
        failures.append("a non-default seed was checked against the reference")


def check_injected_duplicate(failures: list[str]) -> None:
    workload = "proc-ceiling-b64"
    p = wl.proc_pass(
        workload, wl.proc_inputs(workload, 5), obs=False, keep_seqs=True)
    n, seqs = p["tuples"], p["seqs"]
    if p["order"]["failed"] or seqs != list(range(n)):
        failures.append(f"clean process pass not clean: {p['order']}")
    cases = {
        "duplicated": seqs[:10] + [seqs[9]] + seqs[10:],
        "missing": seqs[:10] + seqs[11:],
        "out_of_order": seqs[:10] + [seqs[11], seqs[10]] + seqs[12:],
    }
    for kind, bad in cases.items():
        order = wl.check_order(bad, n)
        if order[kind] != 1 or order["failed"] < 1:
            failures.append(f"injected {kind}: counted {order}")


def check_bare_directory(failures: list[str]) -> None:
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(
        HERE, os.path.join(bare, "perfbench"),
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-narrow-b1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(
            f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    wl.BUDGET.update(TINY)
    failures: list[str] = []
    for check in (
        check_metrics_emitted,
        check_corrupted_reference,
        check_injected_duplicate,
        check_bare_directory,
    ):
        before = len(failures)
        check(failures)
        status = "ok" if len(failures) == before else "FAILED"
        print(f"{check.__name__}: {status}", file=sys.stderr)
    for failure in failures:
        print(f"  {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
