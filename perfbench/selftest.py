#!/usr/bin/env python3
"""Self-test of the benchmark itself (about a minute):

    python3 perfbench/selftest.py

Runs every workload at its smallest size (one op, or a 5-pair longrun
block without the slow non-ergodic pair), untraced and traced, and checks
that every metric named in BENCHMARK.json is emitted.  Then shows that the
checks can fire: a corrupted golden hash, a corrupted golden match and a
perturbed long-run distribution must each be counted as a failure.
"""

from __future__ import annotations

import copy
import json
import random
import sys

import run

problems: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        problems.append(message)


def emitted(result: dict, names: list[str], label: str) -> None:
    missing = [n for n in names if n not in result["metrics"]]
    check(not missing, f"{label}: every metric emitted (missing: {missing})")
    check(result["failed"] == 0, f"{label}: no failed op ({result['failed']} failed)")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from predipd import analysis, builtin

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    golden = run.load_golden()

    # every workload at its smallest size
    for workload in run.CLI_WORKLOADS:
        emitted(run.run_cli(workload, 0, 0, False, golden), end_to_end, workload)
        emitted(run.run_cli(workload, 0, 0, True, golden), per_layer, f"{workload} traced")
    for trace, names in ((False, end_to_end), (True, per_layer)):
        result = run.run_longrun(0, 0, trace, block_size=5, with_non_ergodic=False)
        emitted(result, names, "longrun traced" if trace else "longrun")

    # the checks can fire
    corrupted = copy.deepcopy(golden)
    master_seed = random.Random(0).choice(run.MASTER_SEEDS)
    hashes = corrupted["cli"]["tournament"][str(master_seed)]
    hashes["summary.csv"] = "0" * 64
    result = run.run_cli("tournament", 0, 0, False, corrupted)
    check(result["failed"] == 1, "corrupted golden hash counted as a failed op")

    check(run.check_golden_matches(golden) == 0, "golden matches replay")
    check(all(len(run.outcome_kinds(m)) >= 3 for m in golden["matches"][-2:]),
          "stochastic golden matches mix at least three joint outcomes")
    corrupted["matches"][3]["outcomes"] = corrupted["matches"][3]["outcomes"][::-1]
    check(run.check_golden_matches(corrupted) == 1, "corrupted golden match counted")

    check(run.pinned_reference_ok(), "reference: TFT-TFT 9/4 each, WSLS-ALLC 4 and 3/2")
    tft, wsls, allc = builtin("TFT"), builtin("WSLS"), builtin("ALLC")
    check(not run.exact_long_run(tft, tft).ergodic and not run.exact_long_run(wsls, allc).ergodic,
          "reference: TFT-TFT and WSLS-ALLC are non-ergodic")

    pair = run.Pair(wsls, allc, run.exact_long_run(wsls, allc))
    exact = [float(v) for v in pair.exact.distribution]
    px, py = (float(v) for v in pair.exact.payoffs(3, 0, 5, 1))
    payoffs = analysis.LongRunPayoffs(px, py, analysis.SIMULATION_FALLBACK, False)

    def solved(dist):
        return analysis.StationaryResult(dist, analysis.SIMULATION_FALLBACK, False)

    check(run.check_pair(pair, payoffs, solved(exact))[0], "exact WSLS-ALLC solve passes")
    perturbed = [exact[0] - 0.01, exact[1] + 0.01, exact[2], exact[3]]
    check(not run.check_pair(pair, payoffs, solved(perturbed))[0],
          "perturbed WSLS-ALLC distribution counted as a failure")
    unnormalised = [v * 1.01 for v in exact]
    check(not run.check_pair(pair, payoffs, solved(unnormalised))[0],
          "distribution not summing to 1 counted as a failure")

    z = builtin("ZDGTFT-2")
    zd_pair = run.Pair(z, builtin("RANDOM"), run.exact_long_run(z, builtin("RANDOM")))
    good = analysis.zd_residual(z, builtin("RANDOM"), *run.ZD_RELATIONS["ZDGTFT-2"])
    stat = analysis.stationary(analysis.build_chain(z, builtin("RANDOM")))
    check(run.check_pair(zd_pair, good, stat)[0], "ergodic ZD pair passes")
    bad = analysis.ZdCheck(1e-6, good.payoff_x, good.payoff_y, good.method, good.ergodic)
    check(not run.check_pair(zd_pair, bad, stat)[0], "ZD residual of 1e-6 counted as a failure")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
