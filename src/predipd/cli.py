"""Command-line front end.

Subcommands: tournament, match, sweep, zd-check, timeseries.  A YAML
config file may supply any option; command-line flags win over the file.
Every output CSV starts with a comment line holding the fully resolved
configuration and master seed, so any run can be reproduced byte for byte
from its own output.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import yaml

from . import analysis, engine
from .core import PayoffMatrix
from .engine import (
    MatchConfig,
    MemoryOneSpec,
    PlayerSpec,
    PredictorSpec,
    PREDICTOR_NAME,
    mix_seed,
    play_match,
    run_round_robin,
    time_series,
)
from .strategies import (
    BUILTIN_STRATEGIES,
    InitialPolicy,
    MemoryOneStrategy,
    UnknownStrategyError,
    builtin,
)

DEFAULT_ROSTER = [*BUILTIN_STRATEGIES.keys(), PREDICTOR_NAME]
DEFAULT_GRID = [round(0.05 * k, 2) for k in range(21)]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass
class RunConfig:
    roster: list = field(default_factory=lambda: list(DEFAULT_ROSTER))
    n_turns: int = 200
    n_iter: int = 5
    p_exp: float = 0.1
    payoffs: tuple = (3, 0, 5, 1)
    randomize_initial: bool = False
    seed: int = 0
    out: str = "."
    window: int = 5
    grid: list = field(default_factory=lambda: list(DEFAULT_GRID))
    trace: bool = False

    def payoff_matrix(self) -> PayoffMatrix:
        pm = PayoffMatrix(*[_rational("payoffs", v) for v in self.payoffs])
        bad = pm.violations()
        if bad:
            raise ConfigError(f"payoffs: {'; '.join(bad)}")
        return pm

    def match_config(self) -> MatchConfig:
        return MatchConfig(
            n_turns=self.n_turns,
            payoff=self.payoff_matrix(),
            randomize_opponent_initial=self.randomize_initial,
        )

    def player_specs(self) -> list[PlayerSpec]:
        return [self._spec(entry) for entry in self.roster]

    def _spec(self, entry) -> PlayerSpec:
        if isinstance(entry, str):
            if entry == PREDICTOR_NAME:
                return PredictorSpec(p_exp=self.p_exp)
            try:
                return MemoryOneSpec(builtin(entry))
            except UnknownStrategyError as exc:
                raise ConfigError(f"roster: {exc}") from None
        if isinstance(entry, dict):
            return MemoryOneSpec(self._custom_strategy(entry))
        raise ConfigError(f"roster: entry {entry!r} must be a name or a mapping")

    def _custom_strategy(self, entry: dict) -> MemoryOneStrategy:
        try:
            name = entry["name"]
            probs = entry["probs"]
        except KeyError as exc:
            raise ConfigError(f"roster: custom strategy missing key {exc}") from None
        if not isinstance(name, str):
            raise ConfigError(f"roster: custom strategy name {name!r} is not a string")
        if not isinstance(probs, (list, tuple)) or len(probs) != 4:
            raise ConfigError(f"roster: {name}: probs must be a list of 4 entries")
        for k, p in enumerate(probs):
            value = _rational(f"roster: {name}: probs[{k}]", p)
            if not 0 <= value <= 1:
                raise ConfigError(f"roster: {name}: probs[{k}] = {p} outside [0, 1]")
        initial = entry.get("initial", "C")
        try:
            policy = InitialPolicy(initial)
        except ValueError:
            raise ConfigError(f"roster: {name}: initial must be one of C, D, R") from None
        from .core import OUTCOMES

        return MemoryOneStrategy(
            name=name,
            coop_prob=dict(zip(OUTCOMES, (Fraction(str(p)) for p in probs))),
            initial_policy=policy,
        )

    def header(self) -> str:
        payoffs = ",".join(str(v) for v in self.payoffs)
        roster = ";".join(e if isinstance(e, str) else e.get("name", "?") for e in self.roster)
        return (
            f"# predipd run: seed={self.seed} turns={self.n_turns} iters={self.n_iter}"
            f" p_exp={self.p_exp} payoffs={payoffs} randomize_initial={self.randomize_initial}"
            f" window={self.window} roster={roster}"
        )


_CONFIG_KEYS = {
    "roster", "n_turns", "n_iter", "p_exp", "payoffs", "randomize_initial",
    "seed", "out", "window", "grid", "trace",
}


def _rational(key: str, value) -> Fraction:
    """A config number as an exact rational; the error names the key."""
    if not isinstance(value, (int, float, str)) or isinstance(value, bool):
        raise ConfigError(f"{key}: {value!r} is not a number")
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{key}: {value!r} is not a number") from None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then config file, then explicit overrides."""
    cfg = RunConfig()
    if path is not None:
        with open(path) as fh:
            loaded = yaml.safe_load(fh) or {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path}: top level must be a mapping")
        for key, value in loaded.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"config file {path}: unknown key {key!r}")
            setattr(cfg, key, value)
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, key, value)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    for key in ("n_turns", "n_iter", "seed", "window"):
        value = getattr(cfg, key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{key}: {value!r} is not an integer")
    for key in ("trace", "randomize_initial"):
        value = getattr(cfg, key)
        if not isinstance(value, bool):
            raise ConfigError(f"{key}: {value!r} is not true or false")
    if not _is_number(cfg.p_exp):
        raise ConfigError(f"p_exp: {cfg.p_exp!r} is not a number")
    if not isinstance(cfg.payoffs, (list, tuple)):
        raise ConfigError(f"payoffs: {cfg.payoffs!r} is not a list of 4 values R,S,T,P")
    if not isinstance(cfg.grid, (list, tuple)) or not all(_is_number(g) for g in cfg.grid):
        raise ConfigError(f"grid: {cfg.grid!r} is not a list of numbers")
    if not isinstance(cfg.roster, list):
        raise ConfigError(f"roster: {cfg.roster!r} is not a list")
    if not isinstance(cfg.out, str):
        raise ConfigError(f"out: {cfg.out!r} is not a path")
    if cfg.n_turns < 1:
        raise ConfigError("n_turns: must be at least 1")
    if cfg.n_iter < 1:
        raise ConfigError("n_iter: must be at least 1")
    if not 0 <= cfg.p_exp <= 1:
        raise ConfigError(f"p_exp: {cfg.p_exp} outside [0, 1]")
    if len(cfg.payoffs) != 4:
        raise ConfigError("payoffs: expected exactly 4 values R,S,T,P")
    if cfg.window < 1:
        raise ConfigError("window: must be at least 1")
    for g in cfg.grid:
        if not 0 <= g <= 1:
            raise ConfigError(f"grid: value {g} outside [0, 1]")
    cfg.payoff_matrix()
    names = [spec.name for spec in cfg.player_specs()]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"roster: duplicate player names {', '.join(repeated)}")


def _fmt(x) -> str:
    return f"{float(x):.6g}"


_FILENAME_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-"
)


def safe_filename(name: str) -> str:
    """``name`` with every character outside [A-Za-z0-9._-] replaced by ``_``.

    The result never holds a path separator and is never ``.`` or ``..``,
    so it always names a file directly inside the output directory; names
    made of those characters alone map to themselves.
    """
    safe = "".join(ch if ch in _FILENAME_CHARS else "_" for ch in name)
    return safe if safe.strip(".") else "_" + safe


def _write_outputs(out_dir: str, files: dict[str, str]) -> list[str]:
    """Write all files atomically; nothing is left behind on failure."""
    os.makedirs(out_dir, exist_ok=True)
    staged = []
    written = []
    try:
        for name, text in files.items():
            name = safe_filename(name)
            tmp = os.path.join(out_dir, f".tmp-{name}")
            with open(tmp, "w") as fh:
                fh.write(text)
            staged.append((tmp, os.path.join(out_dir, name)))
        for tmp, final in staged:
            os.replace(tmp, final)
            written.append(final)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
    return written


def _trace_csv(cfg: RunConfig, rec: engine.MatchRecord) -> str:
    lines = [cfg.header(), "turn,action_a,action_b,payoff_a,payoff_b"]
    for t, ((a, b), (pa, pb)) in enumerate(zip(rec.actions, rec.payoffs), start=1):
        lines.append(f"{t},{a},{b},{_fmt(pa)},{_fmt(pb)}")
    return "\n".join(lines) + "\n"


def cmd_tournament(cfg: RunConfig) -> dict[str, str]:
    result = run_round_robin(cfg.player_specs(), cfg.match_config(), cfg.n_iter, cfg.seed)
    lines = [cfg.header(), "rank,name,average,stderr,wins"]
    for rank, name in enumerate(result.ranking, start=1):
        lines.append(
            f"{rank},{name},{_fmt(result.averages[name])},"
            f"{_fmt(result.standard_errors[name])},{result.wins[name]}"
        )
    summary = "\n".join(lines) + "\n"

    names = result.roster
    lines = [cfg.header(), "name," + ",".join(names)]
    for a in names:
        row = ",".join(_fmt(result.pair_means[(a, b)]) for b in names)
        lines.append(f"{a},{row}")
    matrix = "\n".join(lines) + "\n"

    files = {"summary.csv": summary, "matrix.csv": matrix}
    if cfg.trace:
        for k, rec in enumerate(result.records):
            files[f"trace_{k:04d}_{rec.player_a}_vs_{rec.player_b}.csv"] = _trace_csv(cfg, rec)
    return files


def cmd_match(cfg: RunConfig, name_a: str, name_b: str) -> dict[str, str]:
    specs = {spec.name: spec for spec in cfg.player_specs()}
    for name in (name_a, name_b):
        if name not in specs:
            raise ConfigError(f"roster: match player {name!r} not in roster")
    match_cfg = cfg.match_config()
    rec = play_match(
        specs[name_a], specs[name_b],
        engine.MatchConfig(
            n_turns=match_cfg.n_turns,
            payoff=match_cfg.payoff,
            randomize_opponent_initial=match_cfg.randomize_opponent_initial,
            seed=mix_seed(cfg.seed, 0x4D41),
        ),
    )
    series_lines = [cfg.header(), "turn,mean_a,mean_b"]
    series_a = rec.cumulative_means(0, cfg.window)
    series_b = rec.cumulative_means(1, cfg.window)
    for (turn, ma), (_, mb) in zip(series_a, series_b):
        series_lines.append(f"{turn},{_fmt(ma)},{_fmt(mb)}")
    return {
        f"trace_{name_a}_vs_{name_b}.csv": _trace_csv(cfg, rec),
        f"series_{name_a}_vs_{name_b}.csv": "\n".join(series_lines) + "\n",
    }


def cmd_sweep(cfg: RunConfig) -> dict[str, str]:
    specs = cfg.player_specs()
    if not any(isinstance(spec, PredictorSpec) for spec in specs):
        raise ConfigError(f"roster: sweep needs {PREDICTOR_NAME} in the roster")
    rows = analysis.exploration_sweep(specs, cfg.match_config(), cfg.n_iter, cfg.grid, cfg.seed)
    lines = [cfg.header(), "p_exp,average,delta_vs_zdgtft2,place,wins"]
    for row in rows:
        lines.append(
            f"{_fmt(row.p_exp)},{_fmt(row.average)},{_fmt(row.delta_vs_zdgtft2)},"
            f"{row.place},{row.wins}"
        )
    return {"sweep.csv": "\n".join(lines) + "\n"}


def cmd_zd_check(cfg: RunConfig) -> dict[str, str]:
    pm = cfg.payoff_matrix()
    opponents = [
        spec.strategy
        for spec in cfg.player_specs()
        if isinstance(spec, MemoryOneSpec)
    ]
    lines = [cfg.header(), "strategy,opponent,slope,intercept,payoff_x,payoff_y,residual,ergodic,method"]
    for zd_name, slope, intercept in (("ZDGTFT-2", 2.0, -3.0), ("ZDEXTORT-2", 2.0, -1.0)):
        zd = builtin(zd_name)
        for opp in opponents:
            check = analysis.zd_residual(zd, opp, slope, intercept, pm)
            lines.append(
                f"{zd_name},{opp.name},{_fmt(slope)},{_fmt(intercept)},"
                f"{_fmt(check.payoff_x)},{_fmt(check.payoff_y)},{check.residual:.3e},"
                f"{check.ergodic},{check.method}"
            )
    return {"zd_check.csv": "\n".join(lines) + "\n"}


def cmd_timeseries(cfg: RunConfig) -> dict[str, str]:
    result = run_round_robin(cfg.player_specs(), cfg.match_config(), cfg.n_iter, cfg.seed)
    subject = PREDICTOR_NAME if PREDICTOR_NAME in result.roster else result.roster[0]
    series = time_series(result, subject, cfg.window)
    a, b, rms = analysis.fit_inverse_sqrt(series)
    lines = [
        cfg.header(),
        f"# fit value ~ a + b/sqrt(n): a={_fmt(a)} b={_fmt(b)} rms={_fmt(rms)}",
        "turn,mean",
    ]
    for turn, mean in series:
        lines.append(f"{turn},{_fmt(mean)}")
    return {"timeseries.csv": "\n".join(lines) + "\n"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="predipd", description=__doc__)
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("--turns", type=int, dest="n_turns")
    parser.add_argument("--iters", type=int, dest="n_iter")
    parser.add_argument("--p-exp", type=float, dest="p_exp")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--roster", help="comma-separated strategy names")
    parser.add_argument("--randomize-initial", action="store_true", default=None,
                        dest="randomize_initial")
    parser.add_argument("--payoffs", help="R,S,T,P")
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true", default=None)
    parser.add_argument("--window", type=int)
    parser.add_argument("--grid", help="comma-separated exploration fractions (sweep)")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("tournament")
    match = sub.add_parser("match")
    match.add_argument("player_a")
    match.add_argument("player_b")
    sub.add_parser("sweep")
    sub.add_parser("zd-check")
    sub.add_parser("timeseries")
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    overrides = {
        key: getattr(args, key)
        for key in ("n_turns", "n_iter", "p_exp", "seed", "randomize_initial",
                    "out", "trace", "window")
    }
    if args.roster is not None:
        overrides["roster"] = [name.strip() for name in args.roster.split(",") if name.strip()]
    if args.payoffs is not None:
        parts = args.payoffs.split(",")
        if len(parts) != 4:
            raise ConfigError("payoffs: expected exactly 4 values R,S,T,P")
        overrides["payoffs"] = tuple(parts)
    if args.grid is not None:
        try:
            overrides["grid"] = [float(g) for g in args.grid.split(",")]
        except ValueError:
            raise ConfigError(f"grid: {args.grid!r} is not a comma-separated list of numbers") from None
    return overrides


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, _overrides_from_args(args))
        if args.command == "tournament":
            files = cmd_tournament(cfg)
        elif args.command == "match":
            files = cmd_match(cfg, args.player_a, args.player_b)
        elif args.command == "sweep":
            files = cmd_sweep(cfg)
        elif args.command == "zd-check":
            files = cmd_zd_check(cfg)
        elif args.command == "timeseries":
            files = cmd_timeseries(cfg)
        else:  # pragma: no cover
            raise ConfigError(f"unknown subcommand {args.command!r}")
        for path in _write_outputs(cfg.out, files):
            print(path)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
