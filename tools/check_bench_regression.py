#!/usr/bin/env python3
"""Gate bench JSON output against a checked-in baseline.

Usage:
    tools/check_bench_regression.py CURRENT_JSON [--baseline-dir DIR]
        [--threshold 0.20] [--serve-factor 3.0] [--swap-factor 5.0]
        [--update | --write-baseline]

Four record shapes are understood, keyed on the "bench" field:

* micro-kernel records (no "bench" field, default): per-kernel throughput
  gating, described below;
* serve records ("bench": "serve", produced by bench_serve): overload-safety
  gating of the TCP ingress tier. Machine-independent checks always run —
  the 2x-capacity phase MUST show a nonzero reject rate (a zero means
  admission control stopped shedding) and the 0.5x phase must stay
  essentially reject-free. Latency is gated against
  bench/baselines/BENCH_serve.json when present: each phase's p99, scaled
  by the capacity ratio between the two machines (queueing delay moves
  inversely with throughput), must stay within --serve-factor of the
  baseline p99. A missing serve baseline skips the latency gate with a
  notice (commit one with --update);
* cascade records ("bench": "cascade", produced by bench_cascade): the
  coarse-to-fine search cascade. Machine-independent checks always run —
  the workload is fully seeded, so every rate below is deterministic per
  build: the threshold shortlist must keep hit_rate >= 0.99 at every size,
  stage-2 rescoring at the largest size must touch <= 2% of rows (the
  pruning claim), and the fitted-model accuracy delta must stay <= 0.5%.
  Speedups are within-run ratios (cascade vs. exhaustive on the same host),
  so they transfer across machines: against
  bench/baselines/BENCH_cascade.json (when present) the largest size's
  threshold_speedup may not drop more than --threshold below baseline;
* online records ("bench": "online", produced by bench_online): the cost of
  training and hot-swapping while serving. Machine-independent: served p99
  with a thread swapping versions continuously must stay within
  --swap-factor of the same run's no-swap p99 (pin-at-batch-cut claims a
  swap costs a context rebuild, not a stall). Against
  bench/baselines/BENCH_online.json (when present), partial_fit samples/sec
  may not drop more than --threshold after normalizing by the
  anchor_queries_per_sec ratio between the two machines, and the COW
  clone/publish costs may not grow past --swap-factor x baseline
  (normalized the same way).

--baseline-dir defaults to bench/baselines next to this script, so the gate
finds the committed baselines from any working directory. A --baseline-dir
that does not exist FAILS, naming the path, for every record kind (with
--update the directory is created instead).

Every record kind that reads a baseline FAILS when the record's "threads"
differs from the baseline's, or when either side lacks the field: every
gated number moves with the thread count, so only runs at the baseline's
count compare like with like. The committed baselines are 1-thread records;
run the benches with MEMHD_NUM_THREADS=1 (CI does) or re-baseline.

--write-baseline (alias of --update; see below) rewrites the matching
baseline file from CURRENT_JSON and reports PASS — the first-run path for a
freshly added bench.

The micro-kernel bench records absolute throughput, which depends on both
the dispatched kernel backend (see src/common/kernels/README.md:
"portable-tiled", "avx2", "avx512-vpopcntdq", "neon") and the host CPU.
Baselines are stored per backend under
bench/baselines/BENCH_micro_kernels.<kernel>.json, and raw queries/sec are
additionally normalized by the scalar path's speed ratio between the two
runs — the scalar loops are untouched reference code, so their ratio
measures how fast this runner is relative to the baseline machine, and a
batch-kernel regression shows up even on a slower or faster host.

The gate:
  * FAILS when any section's normalized batch queries/sec drops more than
    --threshold (default 20%) below the same-kernel baseline, or when any
    section reports bit_identical = false;
  * FAILS machine-independently (no baseline needed) when the encode_remat
    section's D=1M resident-bytes contrast drops below 100x: the
    rematerialized encoder plane must stay seed-only while the materialized
    equivalent scales with f x D;
  * PASSES with a notice when no baseline exists for the current backend
    (first run on new hardware or a freshly added backend — commit one with
    --update) instead of misapplying another backend's numbers, and skips
    with a notice any section the current run measures but the baseline
    file has no entry for (a freshly added bench section — re-baseline to
    gate it);
  * skips with a notice any section whose recorded per-section "backend"
    differs between the current run and the baseline (sections record the
    backend active while they were measured).

--update rewrites the baseline for the current kernel from CURRENT_JSON
(use after an intentional perf change, then commit the file). Committed
baselines are conservative floors, not typical numbers: take the
per-section minimum batch q/s over several runs (median scalar q/s, which
anchors the normalization) and shave ~15% so shared-runner noise does not
trip the -20% gate; the bit-identity checks stay exact regardless.
"""

import argparse
import json
import pathlib
import sys

DEFAULT_BASELINE_DIR = pathlib.Path(__file__).resolve().parent.parent / \
    "bench" / "baselines"
BATCH_KEY = "batch_queries_per_sec"
SCALAR_KEY = "scalar_queries_per_sec"


def load(path):
    with open(path) as f:
        return json.load(f)


def sections(record):
    return {k: v for k, v in record.items()
            if isinstance(v, dict) and BATCH_KEY in v}


def thread_mismatch(current, baseline, baseline_path):
    """Failure message when the two records were not measured at the same
    thread count (or either one does not say), else None."""
    now = current.get("threads", "unrecorded")
    base = baseline.get("threads", "unrecorded")
    if "threads" in current and "threads" in baseline and now == base:
        return None
    return (f"threads: current run at {now}, baseline {baseline_path} at "
            f"{base} — compare at equal thread counts (MEMHD_NUM_THREADS) "
            f"or re-baseline")


SERVE_PHASES = ("load_0.5x", "load_1x", "load_2x")


def check_serve(current, args):
    """Gate a bench_serve record: overload must shed, p99 must stay bounded."""
    failures = []
    capacity = current.get("capacity_qps", 0.0)
    print(f"serve ingress: capacity {capacity:.0f} q/s, "
          f"max_pending {current.get('max_pending', '?')}")
    for phase in SERVE_PHASES:
        if phase not in current:
            failures.append(f"{phase}: phase missing from current run")
    if failures:
        print("\nFAIL (serve):")
        for failure in failures:
            print(f"  - {failure}")
        return 1

    # Machine-independent properties of the admission-control design.
    if current["load_2x"].get("reject_rate", 0.0) <= 0.0:
        failures.append(
            "load_2x: reject_rate is 0 at 2x capacity — the bounded queue "
            "is not shedding overload")
    if current["load_0.5x"].get("reject_rate", 0.0) > 0.10:
        failures.append(
            f"load_0.5x: reject_rate "
            f"{current['load_0.5x']['reject_rate']:.2%} at half capacity — "
            "underload should be essentially reject-free")

    baseline_path = pathlib.Path(args.baseline_dir) / "BENCH_serve.json"
    if args.update:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline updated: {baseline_path}")
    elif not baseline_path.exists():
        print(f"NOTICE: no serve baseline ({baseline_path} missing); "
              f"latency gate skipped. Create one with --update.")
    elif (mismatch := thread_mismatch(current, load(baseline_path),
                                      baseline_path)):
        failures.append(mismatch)
    else:
        baseline = load(baseline_path)
        base_capacity = baseline.get("capacity_qps", 0.0)
        # Queueing delay scales inversely with throughput: a machine at
        # half the baseline capacity legitimately doubles every p99.
        speed = capacity / base_capacity if base_capacity > 0 else 1.0
        print(f"runner speed vs baseline machine (serve capacity): "
              f"{speed:.2f}x")
        for phase in SERVE_PHASES:
            if phase not in baseline:
                print(f"NOTICE: no baseline entry for '{phase}'; skipped.")
                continue
            base_p99 = baseline[phase].get("p99_ms", 0.0)
            now_p99 = current[phase].get("p99_ms", 0.0)
            normalized = now_p99 * speed
            limit = base_p99 * args.serve_factor
            status = "OK"
            if base_p99 > 0 and normalized > limit:
                status = "REGRESSION"
                failures.append(
                    f"{phase}: p99 {now_p99:.2f} ms ({normalized:.2f} "
                    f"normalized) exceeds baseline {base_p99:.2f} ms x "
                    f"{args.serve_factor:g}")
            print(f"  {phase:12s} p99 {base_p99:9.2f} -> {now_p99:9.2f} ms "
                  f"(normalized {normalized:9.2f})  reject "
                  f"{current[phase].get('reject_rate', 0.0):7.2%}  {status}")

    if failures:
        print("\nFAIL (serve):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nPASS (serve)")
    return 0


def check_cascade(current, args):
    """Gate a bench_cascade record: the shortlist must keep recall, pruning
    must prune, accuracy must hold."""
    failures = []
    sizes = sorted((k for k in current
                    if k.startswith("ck_") and isinstance(current[k], dict)),
                   key=lambda k: current[k].get("rows", 0))
    if not sizes:
        print("FAIL (cascade): no ck_* sections in current run")
        return 1
    largest = sizes[-1]
    print(f"cascade search: {len(sizes)} plane sizes up to "
          f"{current[largest].get('rows', '?')} rows "
          f"[{current.get('kernel', '?')}, {current.get('threads', '?')} "
          f"thread(s)]")

    # Machine-independent: the workload is seeded, so these rates are
    # deterministic properties of the build, not of the host.
    for name in sizes:
        sec = current[name]
        line = (f"  {name:10s} thr {sec.get('threshold_speedup', 0.0):5.2f}x "
                f"hit {sec.get('hit_rate', 0.0):7.4f} "
                f"rescored {sec.get('rescored_fraction', 0.0):7.4f}")
        print(line)
        if sec.get("hit_rate", 0.0) < 0.99:
            failures.append(
                f"{name}: threshold hit_rate {sec.get('hit_rate', 0.0):.4f} "
                f"below the 0.99 floor — the shortlist is losing winners")
    if current[largest].get("rescored_fraction", 1.0) > 0.02:
        failures.append(
            f"{largest}: rescored_fraction "
            f"{current[largest]['rescored_fraction']:.4f} above 2% — stage 2 "
            f"is no longer a shortlist")
    acc = current.get("model_accuracy", {})
    delta = acc.get("delta", 0.0)
    print(f"  model accuracy: exhaustive {acc.get('exhaustive', 0.0):.4f} -> "
          f"threshold {acc.get('threshold', 0.0):.4f} (delta {delta:+.4f})")
    if delta > 0.005:
        failures.append(
            f"model_accuracy: threshold mode loses {delta:.4f} accuracy on "
            f"the fitted model — above the 0.5% budget")

    # Speedups are within-run ratios, so they transfer across machines.
    baseline_path = pathlib.Path(args.baseline_dir) / "BENCH_cascade.json"
    if args.update:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline updated: {baseline_path}")
    elif not baseline_path.exists():
        print(f"NOTICE: no cascade baseline ({baseline_path} missing); "
              f"speedup gate skipped. Create one with --update.")
    elif (mismatch := thread_mismatch(current, load(baseline_path),
                                      baseline_path)):
        failures.append(mismatch)
    elif largest not in load(baseline_path):
        print(f"NOTICE: no baseline entry for '{largest}'; speedup gate "
              f"skipped. Re-baseline with --update.")
    else:
        base = load(baseline_path)[largest].get("threshold_speedup", 0.0)
        now = current[largest].get("threshold_speedup", 0.0)
        status = "OK"
        if base > 0 and now < base * (1.0 - args.threshold):
            status = "REGRESSION"
            failures.append(
                f"{largest}: threshold_speedup {now:.2f}x is "
                f"{100 * (1 - now / base):.1f}% below baseline {base:.2f}x")
        print(f"  {largest} threshold_speedup {base:.2f}x -> {now:.2f}x  "
              f"{status}")

    if failures:
        print("\nFAIL (cascade):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nPASS (cascade)")
    return 0


def check_online(current, args):
    """Gate a bench_online record: swaps must not stall serving, training
    throughput must hold up against the baseline."""
    failures = []
    anchor = current.get("anchor_queries_per_sec", 0.0)
    print(f"online learning: anchor {anchor:.0f} q/s (no-swap serving)")

    # Machine-independent: continuous swapping may cost context rebuilds,
    # never a stall. Compare within this run, so host speed cancels out.
    no_swap_p99 = current.get("no_swap", {}).get("p99_ms", 0.0)
    swap_p99 = current.get("swap", {}).get("p99_ms", 0.0)
    swaps = current.get("swap", {}).get("swaps", 0)
    print(f"  p99 no-swap {no_swap_p99:.3f} ms -> swapping {swap_p99:.3f} ms "
          f"({swaps} swaps)")
    if swaps <= 0:
        failures.append("swap phase recorded zero swaps — nothing measured")
    if no_swap_p99 > 0 and swap_p99 > no_swap_p99 * args.swap_factor:
        failures.append(
            f"swap: p99 {swap_p99:.3f} ms exceeds no-swap p99 "
            f"{no_swap_p99:.3f} ms x {args.swap_factor:g} — hot swapping is "
            f"stalling the serve path")

    baseline_path = pathlib.Path(args.baseline_dir) / "BENCH_online.json"
    if args.update:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline updated: {baseline_path}")
    elif not baseline_path.exists():
        print(f"NOTICE: no online baseline ({baseline_path} missing); "
              f"training-throughput gate skipped. Create one with --update.")
    elif (mismatch := thread_mismatch(current, load(baseline_path),
                                      baseline_path)):
        failures.append(mismatch)
    else:
        baseline = load(baseline_path)
        base_anchor = baseline.get("anchor_queries_per_sec", 0.0)
        # Serving throughput anchors host speed: the same scoring kernels
        # dominate both sides, so their ratio measures this runner.
        speed = anchor / base_anchor if base_anchor > 0 else 1.0
        print(f"runner speed vs baseline machine (serving anchor): "
              f"{speed:.2f}x")

        base_fit = baseline.get("partial_fit_samples_per_sec", 0.0)
        now_fit = current.get("partial_fit_samples_per_sec", 0.0)
        normalized = now_fit / speed if speed > 0 else now_fit
        ratio = normalized / base_fit if base_fit > 0 else float("inf")
        status = "OK"
        if ratio < 1.0 - args.threshold:
            status = "REGRESSION"
            failures.append(
                f"partial_fit: {now_fit:.0f} samples/s ({normalized:.0f} "
                f"normalized) is {100 * (1 - ratio):.1f}% below baseline "
                f"{base_fit:.0f}")
        print(f"  partial_fit {base_fit:12.0f} -> {now_fit:12.0f} samples/s "
              f"(normalized {normalized:12.0f}, {ratio:6.2%})  {status}")

        for key in ("cow_clone_ms", "publish_ms"):
            base_ms = baseline.get(key, 0.0)
            now_ms = current.get(key, 0.0)
            norm_ms = now_ms * speed
            status = "OK"
            if base_ms > 0 and norm_ms > base_ms * args.swap_factor:
                status = "REGRESSION"
                failures.append(
                    f"{key}: {now_ms:.3f} ms ({norm_ms:.3f} normalized) "
                    f"exceeds baseline {base_ms:.3f} ms x "
                    f"{args.swap_factor:g}")
            print(f"  {key:12s} {base_ms:9.3f} -> {now_ms:9.3f} ms "
                  f"(normalized {norm_ms:9.3f})  {status}")

    if failures:
        print("\nFAIL (online):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nPASS (online)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="freshly produced bench JSON")
    parser.add_argument("--baseline-dir", default=str(DEFAULT_BASELINE_DIR))
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional drop in normalized q/s")
    parser.add_argument("--serve-factor", type=float, default=3.0,
                        help="allowed capacity-normalized p99 growth factor "
                             "for serve records")
    parser.add_argument("--swap-factor", type=float, default=5.0,
                        help="allowed p99 growth under continuous swaps and "
                             "normalized COW-cost growth for online records")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline for the current kernel")
    parser.add_argument("--write-baseline", action="store_true",
                        help="alias of --update: write CURRENT_JSON as the "
                             "new committed baseline")
    args = parser.parse_args()
    args.update = args.update or args.write_baseline
    if not args.update and not pathlib.Path(args.baseline_dir).is_dir():
        print(f"FAIL: baseline directory {args.baseline_dir} does not exist")
        return 1

    current = load(args.current)
    if current.get("bench") == "serve":
        return check_serve(current, args)
    if current.get("bench") == "cascade":
        return check_cascade(current, args)
    if current.get("bench") == "online":
        return check_online(current, args)
    kernel = current.get("kernel", "unknown")
    baseline_path = (pathlib.Path(args.baseline_dir) /
                     f"BENCH_micro_kernels.{kernel}.json")

    failures = []
    for name, record in sections(current).items():
        if not record.get("bit_identical", True):
            failures.append(f"{name}: batch kernel is NOT bit-identical")

    # Machine-independent: the rematerialized encoder plane's claim is O(1)
    # residency. The encode_remat section records the D=1M contrast (the
    # rematerialized figure measured off a live encoder, the materialized one
    # analytic); the ratio must stay >= 100x on every host and backend.
    remat = current.get("encode_remat", {})
    mat_resident = remat.get("resident_bytes_materialized_1m", 0)
    remat_resident = remat.get("resident_bytes_rematerialized_1m", 0)
    if mat_resident and remat_resident:
        ratio = mat_resident / remat_resident
        print(f"encode_remat residency at D=1M: materialized {mat_resident} B "
              f"vs rematerialized {remat_resident} B ({ratio:.0f}x)")
        if ratio < 100.0:
            failures.append(
                f"encode_remat: materialized/rematerialized resident ratio "
                f"{ratio:.1f}x at D=1M is below the 100x floor — the "
                f"rematerialized plane is no longer seed-only")
    elif remat:
        failures.append(
            "encode_remat: resident_bytes_*_1m fields missing — the "
            "residency contrast cannot be checked")

    if args.update:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline updated: {baseline_path}")
    elif not baseline_path.exists():
        known = sorted(p.name for p in
                       pathlib.Path(args.baseline_dir).glob(
                           "BENCH_micro_kernels.*.json"))
        print(f"NOTICE: no baseline for kernel backend '{kernel}' "
              f"({baseline_path} missing); throughput gate skipped rather "
              f"than gating against another backend's numbers. "
              f"Committed baselines: {known or 'none'}. "
              f"Create one with --update.")
    elif (mismatch := thread_mismatch(current, load(baseline_path),
                                      baseline_path)):
        failures.append(mismatch)
    else:
        baseline = load(baseline_path)
        common = [n for n in sections(baseline) if n in sections(current)]
        for name in sections(baseline):
            if name not in sections(current):
                failures.append(f"{name}: section missing from current run")
        # A kernel the current run measures but the baseline has no entry
        # for (a freshly added bench section) is skipped with a warning,
        # not failed: there is nothing to gate against yet. Re-baseline
        # with --update to start gating it.
        for name in sections(current):
            if name not in sections(baseline):
                print(f"NOTICE: no baseline entry for '{name}' in "
                      f"{baseline_path}; kernel skipped. Gate it by "
                      f"re-baselining with --update.")

        # Runner-speed factor: how fast this machine runs the (unchanged)
        # scalar reference loops relative to the baseline machine.
        factors = [current[n][SCALAR_KEY] / baseline[n][SCALAR_KEY]
                   for n in common if baseline[n].get(SCALAR_KEY, 0) > 0
                   and current[n].get(SCALAR_KEY, 0) > 0]
        machine = sorted(factors)[len(factors) // 2] if factors else 1.0
        print(f"runner speed vs baseline machine (scalar path): "
              f"{machine:.2f}x")

        for name in common:
            cur_backend = current[name].get("backend", kernel)
            base_backend = baseline[name].get("backend", cur_backend)
            if base_backend != cur_backend:
                print(f"NOTICE: '{name}' measured on backend "
                      f"'{cur_backend}' but baseline recorded "
                      f"'{base_backend}'; section skipped. Re-baseline "
                      f"with --update.")
                continue
            base = baseline[name][BATCH_KEY]
            now = current[name][BATCH_KEY]
            normalized = now / machine if machine > 0 else now
            ratio = normalized / base if base > 0 else float("inf")
            status = "OK"
            if ratio < 1.0 - args.threshold:
                status = "REGRESSION"
                failures.append(
                    f"{name}: {now:.0f} q/s ({normalized:.0f} normalized) "
                    f"is {100 * (1 - ratio):.1f}% below baseline "
                    f"{base:.0f} q/s")
            print(f"  {name:24s} {base:12.0f} -> {now:12.0f} q/s "
                  f"(normalized {normalized:12.0f}, {ratio:6.2%})  {status}")

    if failures:
        print(f"\nFAIL ({kernel}):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nPASS ({kernel})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
