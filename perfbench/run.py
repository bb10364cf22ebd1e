#!/usr/bin/env python3
"""predipd benchmark: one closed-loop client, one op at a time.

Run from the repository root:

    python3 perfbench/run.py --workload tournament --seed 1 --seconds 60 --trace 0

Workloads: tournament (each op is one ``predipd`` CLI invocation in a fresh
interpreter) and longrun (each op is one long-run solve of a memory-one
pair, in this process).  Every op's output is checked: CLI outputs against
the sha256 hashes in ``golden.json``, long-run solves against the exact
rational reference in ``reference.py``.  Every run also replays the six
golden match traces.

With ``--trace 0`` the end-to-end metrics are measured; with ``--trace 1``
the ops run under the span recorder of ``tracer.py`` (alternating with
untraced ops, for ``trace_overhead``) and the per-layer metrics are
reported.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
TRACER = HERE / "tracer.py"

#: Master seeds a CLI run may draw; golden.json holds hashes for each.
MASTER_SEEDS = tuple(range(16))
SETUP_PROBES = 25
OP_TIMEOUT_S = 150


@dataclass(frozen=True)
class CliWorkload:
    args: tuple[str, ...]  # predipd argv after --seed and --out
    pairings: int          # strategy pairings resolved by one op
    turns: int             # turns simulated by one op


CLI_WORKLOADS = {
    # the paper's headline run: default roster, PREDICTOR included
    "tournament": CliWorkload(
        ("--turns", "200", "--iters", "5", "--p-exp", "0.1", "tournament"),
        pairings=55, turns=55 * 5 * 200,
    ),
}
WORKLOADS = (*CLI_WORKLOADS, "longrun")

#: The six golden matches: (player a, player b, match seed), 200 turns each.
#: The last two are stochastic memory-one pairs whose outcomes mix, so that
#: their traces depend on every random draw.
GOLDEN_MATCHES = (
    ("PREDICTOR", "TFT", 1),
    ("PREDICTOR", "ALLC", 2),
    ("PREDICTOR", "JOSS", 3),
    ("PREDICTOR", "PREDICTOR", 4),
    ("GTFT", "RANDOM", 5),
    ("ZDEXTORT-2", "GTFT", 6),
)

#: ZD relations Px = slope * Py + intercept checked on the longrun workload.
ZD_RELATIONS = {"ZDGTFT-2": (2.0, -3.0), "ZDEXTORT-2": (2.0, -1.0)}
LONGRUN_BLOCK = 200          # pairs per block
PINNED_NON_ERGODIC = ("WSLS", "ALLC")
DIRECT_TOL = 1e-9            # sum, pi T = pi, payoffs and ZD residuals
FALLBACK_TOL = 1e-3          # pi T = pi of a simulated non-ergodic chain


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# set-up ---------------------------------------------------------------------

class SetupProbes:
    """Wall times from a fresh interpreter to ``import predipd.cli`` done.

    The probes are taken between ops, in step with the run's progress, so
    that their median does not rest on one moment of the machine.  One
    untimed import first compiles the bytecode.
    """

    def __init__(self):
        self.cmd = [sys.executable, "-c", "import predipd.cli"]
        self.env = child_env()
        self.walls: list[float] = []
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)

    def keep_up(self, progress: float) -> None:
        """Probe until the share ``progress`` (0 to 1) of the probes is taken."""
        while len(self.walls) < math.ceil(SETUP_PROBES * min(progress, 1.0)):
            t0 = time.perf_counter()
            subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
            self.walls.append(time.perf_counter() - t0)

    def median(self) -> float:
        self.keep_up(1.0)
        return median(self.walls)


# golden checks --------------------------------------------------------------

def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_hashes(out_dir: Path) -> dict[str, str]:
    return {p.name: sha256_file(p) for p in sorted(out_dir.iterdir()) if p.is_file()}


def play_golden_match(a: str, b: str, seed: int):
    from predipd import MatchConfig, MemoryOneSpec, PredictorSpec, builtin, play_match

    def spec(name):
        return PredictorSpec(p_exp=0.1) if name == "PREDICTOR" else MemoryOneSpec(builtin(name))

    rec = play_match(spec(a), spec(b), MatchConfig(n_turns=200, seed=seed))
    return {
        "a": a, "b": b, "seed": seed,
        "outcomes": "".join(f"{x}{y}" for x, y in rec.actions),
        "mean_a": rec.mean_a, "mean_b": rec.mean_b,
    }


def outcome_kinds(match: dict) -> set[str]:
    """The joint outcomes (CC, CD, DC, DD) a golden match went through."""
    return {match["outcomes"][i:i + 2] for i in range(0, len(match["outcomes"]), 2)}


def check_golden_matches(golden: dict) -> int:
    """Replay the six golden matches; returns how many differ."""
    return sum(
        play_golden_match(g["a"], g["b"], g["seed"]) != g for g in golden["matches"]
    )


# CLI workloads --------------------------------------------------------------

def cli_argv(workload: str, master_seed: int, out_dir: Path) -> list[str]:
    return ["--seed", str(master_seed), "--out", str(out_dir), *CLI_WORKLOADS[workload].args]


def run_cli_op(argv: list[str], spans_path: Path | None = None) -> tuple[float, bool]:
    """One CLI invocation in a fresh interpreter; (wall seconds, exited 0)."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "predipd.cli", *argv]
    else:
        cmd = [sys.executable, str(TRACER), str(spans_path), "--", *argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, False
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return wall, proc.returncode == 0


class CliOps:
    """Runs and verifies the ops of one CLI workload inside a scratch directory."""

    def __init__(self, workload: str, master_seed: int, expected: dict, scratch: Path):
        self.workload = workload
        self.master_seed = master_seed
        self.expected = expected
        self.out_dir = scratch / "out"
        self.spans_path = scratch / "spans.json"
        self.failed = 0
        self.bytes_written = 0

    def run(self, traced: bool = False) -> tuple[float, dict | None]:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.spans_path.unlink(missing_ok=True)
        argv = cli_argv(self.workload, self.master_seed, self.out_dir)
        wall, ok = run_cli_op(argv, self.spans_path if traced else None)
        hashes = output_hashes(self.out_dir) if self.out_dir.is_dir() else {}
        if not ok or hashes != self.expected:
            self.failed += 1
        self.bytes_written = sum(p.stat().st_size for p in self.out_dir.iterdir()) if hashes else 0
        spans = None
        if traced and self.spans_path.is_file():
            spans = json.loads(self.spans_path.read_text())
        return wall, spans


def run_cli(workload: str, seed: int, seconds: float, trace: bool, golden: dict) -> dict:
    spec = CLI_WORKLOADS[workload]
    master_seed = random.Random(seed).choice(MASTER_SEEDS)
    expected = golden["cli"][workload].get(str(master_seed))
    start = time.perf_counter()
    setup = None if trace else SetupProbes()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        ops = CliOps(workload, master_seed, expected, Path(tmp))

        def traced_op():
            wall, spans = ops.run(traced=True)
            return [wall], layer_values(spans or {"spans": {}, "counts": {}}, ops.bytes_written)

        untraced, traced, layers = measure(start, seconds, trace, lambda: [ops.run()[0]],
                                           traced_op, setup)
    summary = {
        "workload": workload, "seed": seed, "master_seed": master_seed,
        "turns_per_s": spec.turns * len(untraced) / sum(untraced),
        "pairs_per_s": spec.pairings * len(untraced) / sum(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    return finish(summary, setup.median() if setup else None, untraced, traced, layers, 0.0,
                  len(untraced) + len(traced), ops.failed)


# longrun workload -----------------------------------------------------------

@dataclass(frozen=True)
class Pair:
    x: object   # MemoryOneStrategy
    y: object
    exact: reference.LongRun


def exact_long_run(x, y) -> reference.LongRun:
    return reference.long_run(x.vector(), y.vector())


def longrun_block(rng: random.Random, index: int, size: int, with_non_ergodic: bool) -> list[Pair]:
    """``size`` pairs drawn with replacement from the nine builtins and nine
    generated memory-one vectors: the non-ergodic WSLS-ALLC first if asked
    for, ergodic pairs otherwise."""
    from predipd import BUILTIN_STRATEGIES, OUTCOMES, MemoryOneStrategy

    pool = list(BUILTIN_STRATEGIES.values())
    for k in range(9):
        probs = (Fraction(rng.randint(0, 16), 16) for _ in OUTCOMES)
        pool.append(MemoryOneStrategy(name=f"GEN{index}.{k}", coop_prob=dict(zip(OUTCOMES, probs))))
    exact: dict[tuple[str, str], reference.LongRun] = {}

    def pair(x, y) -> Pair:
        if (x.name, y.name) not in exact:
            exact[x.name, y.name] = exact_long_run(x, y)
        return Pair(x, y, exact[x.name, y.name])

    pairs = []
    if with_non_ergodic:
        pairs.append(pair(*(BUILTIN_STRATEGIES[name] for name in PINNED_NON_ERGODIC)))
    while len(pairs) < size:
        candidate = pair(rng.choice(pool), rng.choice(pool))
        if candidate.exact.ergodic:
            pairs.append(candidate)
    return pairs


def solve_pair(analysis, pair: Pair):
    """The op: a ZD relation check for ZD strategies, long-run payoffs otherwise."""
    if pair.x.name in ZD_RELATIONS:
        return analysis.zd_residual(pair.x, pair.y, *ZD_RELATIONS[pair.x.name])
    return analysis.long_run_payoffs(pair.x, pair.y)


def check_pair(pair: Pair, result, stationary_result) -> tuple[bool, float]:
    """Verify one solve; returns (passed, |reported - exact| payoff error)."""
    dist = [float(v) for v in stationary_result.distribution]
    t = pair.exact.transition
    tol = DIRECT_TOL if pair.exact.ergodic else FALLBACK_TOL
    ok = len(dist) == 4 and abs(sum(dist) - 1.0) <= DIRECT_TOL
    ok = ok and max(abs(sum(dist[i] * float(t[i][j]) for i in range(4)) - dist[j])
                    for j in range(4)) <= tol
    ok = ok and result.ergodic == pair.exact.ergodic
    ex, ey = pair.exact.payoffs(3, 0, 5, 1)
    err = max(abs(result.payoff_x - float(ex)), abs(result.payoff_y - float(ey)))
    if pair.exact.ergodic:
        ok = ok and err <= DIRECT_TOL
        if pair.x.name in ZD_RELATIONS:
            ok = ok and abs(result.residual) < DIRECT_TOL
    return ok, err


def pinned_reference_ok() -> bool:
    """The reference must give TFT-TFT 9/4 each and WSLS-ALLC 4 and 3/2."""
    from predipd import builtin

    tft = exact_long_run(builtin("TFT"), builtin("TFT")).payoffs(3, 0, 5, 1)
    wsls = exact_long_run(builtin("WSLS"), builtin("ALLC")).payoffs(3, 0, 5, 1)
    return tft == (Fraction(9, 4), Fraction(9, 4)) and wsls == (Fraction(4), Fraction(3, 2))


class LongrunOps:
    """Solves and verifies blocks of pairs; records each solve's distribution."""

    def __init__(self, seed: int, block_size: int):
        from predipd import analysis

        self.analysis = analysis
        self.rng = random.Random(seed)
        self.block_size = block_size
        self.blocks = 0
        self.failed = 0
        self.payoff_err_max = 0.0
        # long_run_payoffs returns no distribution; keep the one it computed
        self.captured = []
        solve = analysis.stationary

        def capture(*args, **kwargs):
            result = solve(*args, **kwargs)
            self.captured.append(result)
            return result

        analysis.stationary = capture
        self._undo = lambda: setattr(analysis, "stationary", solve)

    def close(self):
        self._undo()

    def run_block(self, recorder=None, with_non_ergodic: bool = False) -> list[float]:
        pairs = longrun_block(self.rng, self.blocks, self.block_size, with_non_ergodic)
        self.blocks += 1
        uninstall = recorder.install() if recorder is not None else None
        walls = []
        try:
            for pair in pairs:
                self.captured.clear()
                t0 = time.perf_counter()
                result = solve_pair(self.analysis, pair)
                walls.append(time.perf_counter() - t0)
                ok, err = check_pair(pair, result, self.captured[-1])
                self.failed += not ok
                self.payoff_err_max = max(self.payoff_err_max, err)
        finally:
            if uninstall is not None:
                uninstall()
        return walls


def run_longrun(seed: int, seconds: float, trace: bool, block_size: int = LONGRUN_BLOCK,
                with_non_ergodic: bool = True) -> dict:
    """Two phases.  The first block holds the non-ergodic pair; its pairs per
    second is ``pairs_per_s``, and when tracing, its trace gives the per-layer
    metrics.  Then ergodic blocks are solved until ``seconds`` have passed
    since the run began, first block included (alternately traced, when
    tracing, for ``trace_overhead``), so that ``op_s.p50`` samples the direct
    solve over the whole run rather than over the few milliseconds one block
    of direct solves takes."""
    from tracer import Recorder

    start = time.perf_counter()
    setup = None if trace else SetupProbes()
    ops = LongrunOps(seed, block_size)
    pinned_ok = pinned_reference_ok()
    recorder = Recorder() if trace else None
    try:
        first = ops.run_block(recorder, with_non_ergodic)
        stream, traced, _ = measure(start, seconds, trace, ops.run_block,
                                    lambda: (ops.run_block(Recorder()), None), setup)
    finally:
        ops.close()
    summary = {
        "workload": "longrun", "seed": seed, "blocks": ops.blocks,
        "pairs_per_s": len(first) / sum(first),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "payoff_err.max": ops.payoff_err_max,
    }
    if trace:
        untraced, layers = stream, [layer_values(recorder.snapshot(), 0)]
    else:
        untraced, layers = first + stream, []
    # the pinned reference check counts as one more attempt
    return finish(summary, setup.median() if setup else None, untraced, traced, layers,
                  ops.payoff_err_max,
                  len(first) + len(stream) + len(traced) + 1, ops.failed + (not pinned_ok))


# per-layer metrics ----------------------------------------------------------

def layer_values(trace: dict, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced op (CLI) or block (longrun)."""
    spans, counts = trace["spans"], trace["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0])[1]

    decide_calls = calls("predictor.decide")
    solves = calls("analysis.stationary")
    return {
        "cli.main.self_s": self_s("cli.main"),
        "cli.bytes_written": bytes_written,
        "engine.matches": calls("engine.play_match"),
        "engine.turns": counts.get("engine.turns", 0),
        "engine.play_match.self_s": self_s("engine.play_match"),
        "engine.run_round_robin.self_s": self_s("engine.run_round_robin"),
        "predictor.act.calls": calls("predictor.act"),
        "predictor.decide.calls": decide_calls,
        "predictor.decide.self_s": self_s("predictor.decide"),
        "predictor.decide.us_per_call": 1e6 * ratio(self_s("predictor.decide"), decide_calls),
        "predictor.decide.cache_hit_ratio": ratio(
            counts.get("predictor.decide.cache_hits", 0), decide_calls),
        "predictor.observe.self_s": self_s("predictor.observe"),
        "strategies.draws": counts.get("strategies.draws", 0),
        "strategies.draw.self_s": self_s("strategies.draw"),
        "strategies.next_action.self_s": self_s("strategies.next_action"),
        "core.payoff.calls": calls("core.payoff"),
        "core.payoff.self_s": self_s("core.payoff"),
        "core.outcome.calls": calls("core.outcome"),
        "core.outcome.self_s": self_s("core.outcome"),
        "analysis.stationary.calls": solves,
        "analysis.stationary.direct.self_s": self_s("analysis.stationary.direct"),
        "analysis.stationary.fallback.self_s": self_s("analysis.stationary.fallback"),
        "analysis.fallback_ratio": ratio(calls("analysis.stationary.fallback"), solves),
        "analysis.build_chain.self_s": self_s("analysis.build_chain"),
    }


def measure(start: float, seconds: float, trace: bool, plain_op, traced_op, setup=None):
    """Run ops until ``seconds`` have passed since ``start``; with tracing, a
    traced op follows every untraced one.  ``plain_op`` returns op walls,
    ``traced_op`` op walls and the per-layer values they measured.  The
    set-up probes, if given, are taken after each op, as many as the run's
    progress asks for, so that they too are spread over the run."""
    untraced, traced, layers = [], [], []
    while True:
        untraced += plain_op()
        if trace:
            walls, values = traced_op()
            traced += walls
            layers.append(values)
        progress = (time.perf_counter() - start) / seconds if seconds > 0 else 1.0
        if setup is not None:
            setup.keep_up(progress)
        if progress >= 1.0:
            return untraced, traced, layers


def finish(summary, setup_s, untraced, traced, layers, payoff_err_max, attempted, failed):
    """The run's result: end-to-end metrics, or per-layer ones when traced."""
    summary.update({"ops": len(untraced) + len(traced), "op_s.p50": median(untraced),
                    "setup_s": setup_s, "failed": failed})
    if layers:
        # median of each per-layer metric over the traced ops
        metrics = {name: median([values[name] for values in layers]) for name in layers[0]}
        metrics["trace_overhead"] = summary["trace_overhead"] = median(traced) / median(untraced)
        metrics["payoff_err.max"] = payoff_err_max
    else:
        metrics = {name: summary[name]
                   for name in ("setup_s", "op_s.p50", "pairs_per_s", "peak_rss_mb")}
    return {"summary": summary, "attempted": attempted, "failed": failed, "metrics": metrics}


# entry point ----------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    golden = load_golden()
    match_failures = check_golden_matches(golden)
    if workload == "longrun":
        result = run_longrun(seed, seconds, trace)
    else:
        result = run_cli(workload, seed, seconds, trace, golden)
    result["attempted"] += len(golden["matches"])
    result["failed"] += match_failures
    result["summary"].update({
        "golden_match_failures": match_failures, "failed": result["failed"],
        "fail_ratio": result["failed"] / result["attempted"],
    })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "predipd" / "__init__.py").is_file():
        print(f"error: no predipd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in names}
    print(json.dumps(result["summary"]))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
