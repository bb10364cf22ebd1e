"""Command-line front end.

Subcommands: tournament, match, sweep, zd-check, timeseries.  A YAML
config file may supply any option; command-line flags win over the file.
Every output CSV starts with a comment line holding the resolved
configuration and master seed, so any run can be reproduced byte for byte
from its own output.  A custom roster entry may not take a builtin's name
or alias, so a builtin name in the line always means the builtin.  The
line names a custom entry but does not hold its probabilities: such a run
is reproduced from the line together with its config file.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction

from . import engine
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


def _rational(key: str, value) -> Fraction:
    """A config number as an exact rational; the error names the key."""
    if not isinstance(value, (int, float, str)) or isinstance(value, bool):
        raise ConfigError(f"{key}: {value!r} is not a number")
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{key}: {value!r} is not a number") from None


#: Largest payoff magnitude taken.  Far above any stage game, and small enough
#: that the squares in the standard errors and the fit stay finite floats.
_PAYOFF_LIMIT = 10**100


def _payoffs(values) -> PayoffMatrix | None:
    if not isinstance(values, (list, tuple)) or len(values) != 4:
        return None
    payoffs = [_rational("payoffs", v) for v in values]
    for v, value in zip(values, payoffs):
        if abs(value) > _PAYOFF_LIMIT:
            raise ConfigError(f"payoffs: {v} is larger in magnitude than {_PAYOFF_LIMIT:.0e}")
    pm = PayoffMatrix(*payoffs)
    bad = pm.violations()
    if bad:
        raise ConfigError(f"payoffs: {'; '.join(bad)}")
    return pm


def _strategy(entry) -> MemoryOneStrategy:
    """A roster entry other than PREDICTOR: a builtin name or a custom mapping."""
    if isinstance(entry, str):
        try:
            return builtin(entry)
        except UnknownStrategyError as exc:
            raise ConfigError(f"roster: {exc}") from None
    if not isinstance(entry, dict):
        raise ConfigError(f"roster: entry {entry!r} must be a name or a mapping")
    try:
        name = entry["name"]
        probs = entry["probs"]
    except KeyError as exc:
        raise ConfigError(f"roster: custom strategy missing key {exc}") from None
    if not isinstance(name, str):
        raise ConfigError(f"roster: custom strategy name {name!r} is not a string")
    # a name in a run's output means one player, so a custom entry may not
    # take the learner's name or any name that `builtin` resolves
    try:
        builtin(name)
        taken = True
    except UnknownStrategyError:
        taken = name == PREDICTOR_NAME
    if taken:
        raise ConfigError(f"roster: custom strategy may not be named {name}")
    for key in entry:
        if key not in ("name", "probs", "initial"):
            raise ConfigError(f"roster: {name}: unknown key {key!r}")
    if not isinstance(probs, (list, tuple)) or len(probs) != 4:
        raise ConfigError(f"roster: {name}: probs must be a list of 4 entries")
    values = []
    for k, p in enumerate(probs):
        value = _rational(f"roster: {name}: probs[{k}]", p)
        if not 0 <= value <= 1:
            raise ConfigError(f"roster: {name}: probs[{k}] = {p} outside [0, 1]")
        values.append(value)
    try:
        policy = InitialPolicy(entry.get("initial", "C"))
    except ValueError:
        raise ConfigError(f"roster: {name}: initial must be one of C, D, R") from None
    return MemoryOneStrategy(name=name, coop_prob=values, initial_policy=policy)


def _roster(entries) -> list[PlayerSpec] | None:
    """One spec per entry; PREDICTOR's takes ``p_exp`` once that key is checked."""
    if not isinstance(entries, (list, tuple)) or not entries:
        return None
    specs = [PredictorSpec() if e == PREDICTOR_NAME else MemoryOneSpec(_strategy(e))
             for e in entries]
    names = [spec.name for spec in specs]
    for name in names:
        # a name is a CSV field, joined by ';' in the header line; a row that
        # starts with '#' reads as a comment line
        if name.startswith("#") or any(ch in ",;" or not ch.isprintable() for ch in name):
            raise ConfigError(f"roster: name {name!r} starts with '#' or holds ',', ';'"
                              " or a non-printable character")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"roster: duplicate player names {', '.join(repeated)}")
    return specs


# How each key resolves a value, from a YAML file or a flag alike: to what a
# run uses, or to None when the value does not have the key's shape.  The
# roster and payoff resolvers also raise a ConfigError naming the key for a
# bad entry.  A field keeps its value as spelled, for the CSV header
# (`p_exp: 1` prints 1, `--p-exp 1` 1.0).

def _as_given(test):
    """The resolver of a key whose value a run uses as given."""
    return lambda value: value if test(value) else None


_int = _as_given(lambda v: isinstance(v, int) and not isinstance(v, bool))
_count = _as_given(lambda v: _int(v) is not None and v >= 1)
_bool = _as_given(lambda v: isinstance(v, bool))
_fraction = _as_given(lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
                      and 0 <= v <= 1)
_grid = _as_given(lambda v: isinstance(v, (list, tuple))
                  and all(_fraction(g) is not None for g in v))
_path = _as_given(lambda v: isinstance(v, str) and "\0" not in v)


def _parsed(convert):
    """Flag text -> ``convert(text)``, or the text itself when ``convert``
    refuses it, so that the key refuses it as it would the YAML string."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            return text
    return parse


def _key(flag: str, default, parse, resolve, doc: str):
    """One config key: its flag, default, flag parser (``bool``: a switch that
    sets true), resolver, and ``doc``, what a valid value is."""
    return field(default=default,
                 metadata={"flag": flag, "parse": parse, "resolve": resolve, "doc": doc})


@dataclass
class RunConfig:
    """A run's config, checked key by key in field order when it is made.

    The resolved run is ``specs``, one ``PlayerSpec`` per roster entry, and
    ``match``, the ``MatchConfig`` that carries the ``PayoffMatrix``.
    """

    roster: list | tuple = _key("--roster", tuple(DEFAULT_ROSTER),
                                lambda text: [n.strip() for n in text.split(",") if n.strip()],
                                _roster, "a non-empty list of strategy names")
    n_turns: int = _key("--turns", 200, _parsed(int), _count, "an integer >= 1")
    n_iter: int = _key("--iters", 5, _parsed(int), _count, "an integer >= 1")
    p_exp: float = _key("--p-exp", 0.1, _parsed(float), _fraction, "a number in [0, 1]")
    payoffs: list | tuple = _key("--payoffs", (3, 0, 5, 1), lambda text: text.split(","),
                                 _payoffs, "a list of 4 values R,S,T,P")
    randomize_initial: bool = _key("--randomize-initial", False, bool, _bool, "true or false")
    seed: int = _key("--seed", 0, _parsed(int), _int, "an integer")
    out: str = _key("--out", ".", str, _path, "a directory path")
    window: int = _key("--window", 5, _parsed(int), _count, "an integer >= 1")
    grid: list | tuple = _key("--grid", tuple(DEFAULT_GRID),
                              lambda text: [_parsed(float)(g) for g in text.split(",")],
                              _grid, "a list of numbers in [0, 1]")
    trace: bool = _key("--trace", False, bool, _bool, "true or false")

    def __post_init__(self):
        resolved = {}
        for f in fields(self):
            value = getattr(self, f.name)
            resolved[f.name] = f.metadata["resolve"](value)
            if resolved[f.name] is None:
                raise ConfigError(f"{f.name}: {value!r} is not {f.metadata['doc']}")
        self.specs: tuple[PlayerSpec, ...] = tuple(
            replace(spec, p_exp=self.p_exp) if isinstance(spec, PredictorSpec) else spec
            for spec in resolved["roster"]
        )
        self.match = MatchConfig(n_turns=self.n_turns, payoff=resolved["payoffs"],
                                 randomize_opponent_initial=self.randomize_initial)

    def header(self) -> str:
        payoffs = ",".join(str(v) for v in self.payoffs)
        roster = ";".join(e if isinstance(e, str) else e["name"] for e in self.roster)
        return (
            f"# predipd run: seed={self.seed} turns={self.n_turns} iters={self.n_iter}"
            f" p_exp={self.p_exp} payoffs={payoffs} randomize_initial={self.randomize_initial}"
            f" window={self.window} roster={roster}"
        )


def _read_config(path: str) -> dict:
    import yaml  # only runs that name a config file pay for importing PyYAML

    try:
        with open(path, "rb") as fh:
            loaded = yaml.safe_load(fh) or {}
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int too long to convert
        raise ConfigError(f"config file {path}: {exc}") from None
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {path}: top level must be a mapping")
    keys = {f.name for f in fields(RunConfig)}
    for key in loaded:
        if key not in keys:
            raise ConfigError(f"config file {path}: unknown key {key!r}")
    return loaded


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then config file, then explicit overrides; every key checked."""
    values = _read_config(path) if path is not None else {}
    values.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    return RunConfig(**values)


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


def _csv(cfg: RunConfig, columns: str, rows, comments=()) -> str:
    """The run's header line, then ``comments``, the column names and the rows."""
    return "\n".join([cfg.header(), *comments, columns, *rows]) + "\n"


def _trace_csv(cfg: RunConfig, rec: engine.MatchRecord) -> str:
    rows = (
        f"{t},{a},{b},{_fmt(pa)},{_fmt(pb)}"
        for t, ((a, b), (pa, pb)) in enumerate(zip(rec.actions, rec.payoffs), start=1)
    )
    return _csv(cfg, "turn,action_a,action_b,payoff_a,payoff_b", rows)


def cmd_tournament(cfg: RunConfig) -> dict[str, str]:
    result = run_round_robin(cfg.specs, cfg.match, cfg.n_iter, cfg.seed)
    summary = _csv(cfg, "rank,name,average,stderr,wins", (
        f"{rank},{name},{_fmt(result.averages[name])},"
        f"{_fmt(result.standard_errors[name])},{result.wins[name]}"
        for rank, name in enumerate(result.ranking, start=1)
    ))
    names = result.roster
    matrix = _csv(cfg, "name," + ",".join(names), (
        a + "," + ",".join(_fmt(result.pair_means[(a, b)]) for b in names) for a in names
    ))
    files = {"summary.csv": summary, "matrix.csv": matrix}
    if cfg.trace:
        for k, rec in enumerate(result.records):
            files[f"trace_{k:04d}_{rec.player_a}_vs_{rec.player_b}.csv"] = _trace_csv(cfg, rec)
    return files


def cmd_match(cfg: RunConfig, name_a: str, name_b: str) -> dict[str, str]:
    specs = {spec.name: spec for spec in cfg.specs}
    for name in (name_a, name_b):
        if name not in specs:
            raise ConfigError(f"roster: match player {name!r} not in roster")
    match_cfg = replace(cfg.match, seed=mix_seed(cfg.seed, 0x4D41))
    rec = play_match(specs[name_a], specs[name_b], match_cfg)
    series_a = rec.cumulative_means(0, cfg.window)
    series_b = rec.cumulative_means(1, cfg.window)
    series = _csv(cfg, "turn,mean_a,mean_b", (
        f"{turn},{_fmt(ma)},{_fmt(mb)}" for (turn, ma), (_, mb) in zip(series_a, series_b)
    ))
    return {
        f"trace_{name_a}_vs_{name_b}.csv": _trace_csv(cfg, rec),
        f"series_{name_a}_vs_{name_b}.csv": series,
    }


def cmd_sweep(cfg: RunConfig) -> dict[str, str]:
    from . import analysis  # only the subcommands that use it pay for importing it

    for name in (PREDICTOR_NAME, "ZDGTFT-2"):
        if name not in (spec.name for spec in cfg.specs):
            raise ConfigError(f"roster: sweep needs {name} in the roster")
    rows = analysis.exploration_sweep(cfg.specs, cfg.match, cfg.n_iter, cfg.grid, cfg.seed)
    return {"sweep.csv": _csv(cfg, "p_exp,average,delta_vs_zdgtft2,place,wins", (
        f"{_fmt(row.p_exp)},{_fmt(row.average)},{_fmt(row.delta_vs_zdgtft2)},"
        f"{row.place},{row.wins}"
        for row in rows
    ))}


def cmd_zd_check(cfg: RunConfig) -> dict[str, str]:
    from . import analysis

    pm = cfg.match.payoff
    opponents = [spec.strategy for spec in cfg.specs if isinstance(spec, MemoryOneSpec)]
    rows = []
    for zd_name, slope, intercept in (("ZDGTFT-2", 2.0, -3.0), ("ZDEXTORT-2", 2.0, -1.0)):
        zd = builtin(zd_name)
        for opp in opponents:
            check = analysis.zd_residual(zd, opp, slope, intercept, pm)
            rows.append(
                f"{zd_name},{opp.name},{_fmt(slope)},{_fmt(intercept)},"
                f"{_fmt(check.payoff_x)},{_fmt(check.payoff_y)},{check.residual:.3e},"
                f"{check.ergodic},{check.method}"
            )
    columns = "strategy,opponent,slope,intercept,payoff_x,payoff_y,residual,ergodic,method"
    return {"zd_check.csv": _csv(cfg, columns, rows)}


def cmd_timeseries(cfg: RunConfig) -> dict[str, str]:
    from . import analysis

    if cfg.window > cfg.n_turns:
        raise ConfigError(f"window: {cfg.window} is longer than the {cfg.n_turns}-turn match")
    if PREDICTOR_NAME not in (spec.name for spec in cfg.specs):
        raise ConfigError(f"roster: timeseries needs {PREDICTOR_NAME} in the roster")
    result = run_round_robin(cfg.specs, cfg.match, cfg.n_iter, cfg.seed)
    series = time_series(result, PREDICTOR_NAME, cfg.window)
    a, b, rms = analysis.fit_inverse_sqrt(series)
    fit = f"# fit value ~ a + b/sqrt(n): a={_fmt(a)} b={_fmt(b)} rms={_fmt(rms)}"
    rows = (f"{turn},{_fmt(mean)}" for turn, mean in series)
    return {"timeseries.csv": _csv(cfg, "turn,mean", rows, comments=(fit,))}


#: subcommand -> (function, names of the positionals it takes after the config)
COMMANDS = {
    "tournament": (cmd_tournament, ()),
    "match": (cmd_match, ("player_a", "player_b")),
    "sweep": (cmd_sweep, ()),
    "zd-check": (cmd_zd_check, ()),
    "timeseries": (cmd_timeseries, ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="predipd", description=__doc__)
    parser.add_argument("--config", help="YAML config file")
    for f in fields(RunConfig):
        flag, doc = f.metadata["flag"], f.metadata["doc"]
        if f.metadata["parse"] is bool:
            parser.add_argument(flag, dest=f.name, action="store_true", default=None,
                                help=f"set {f.name} to true")
        else:
            comma = ", comma-separated" if isinstance(f.default, tuple) else ""
            parser.add_argument(flag, dest=f.name, help=doc + comma)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, positionals) in COMMANDS.items():
        command = sub.add_parser(name)
        for positional in positionals:
            command.add_argument(positional)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command, positionals = COMMANDS[args.command]
    try:
        flags = ((f, getattr(args, f.name)) for f in fields(RunConfig))
        overrides = {f.name: f.metadata["parse"](raw) for f, raw in flags if raw is not None}
        cfg = parse_config(args.config, overrides)
        files = command(cfg, *(getattr(args, name) for name in positionals))
        for path in _write_outputs(cfg.out, files):
            print(path)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
