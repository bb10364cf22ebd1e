import hashlib
import os
import re
import tempfile
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from predipd import cli
from predipd.cli import DEFAULT_ROSTER, ConfigError, RunConfig, main, parse_config, safe_filename
from predipd.core import PayoffMatrix
from predipd.engine import MatchConfig, PredictorSpec, default_roster

BASE = ["--turns", "30", "--iters", "1", "--seed", "3"]


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# predipd run:")
    header = [h for h in lines if not h.startswith("#")][0]
    data = [line for line in lines if not line.startswith("#")][1:]
    return header.split(","), [line.split(",") for line in data]


def test_defaults():
    cfg = parse_config()
    assert cfg.n_turns == 200 and cfg.n_iter == 5 and cfg.p_exp == 0.1
    assert cfg.seed == 0 and cfg.payoffs == (3, 0, 5, 1)
    assert len(cfg.roster) == 10 and "PREDICTOR" in cfg.roster
    assert cfg.specs == tuple(default_roster(p_exp=0.1))
    assert cfg.match == MatchConfig()


def test_config_file_and_flag_precedence(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("n_turns: 50\nseed: 9\np_exp: 0.3\n")
    cfg = parse_config(str(path), {"seed": 17})
    assert cfg.n_turns == 50   # from file
    assert cfg.seed == 17      # flag wins
    assert cfg.p_exp == 0.3


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("turns: 50\n")
    with pytest.raises(ConfigError, match="turns"):
        parse_config(str(path))


def test_config_custom_strategy(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "roster:\n"
        "  - TFT\n"
        "  - name: GRIMLIKE\n"
        "    probs: ['1', '0', '0', '0']\n"
        "    initial: C\n"
        "  - PREDICTOR\n"
        "p_exp: 0.3\n"
        'payoffs: ["7/2", "1/3", "9/2", "4/3"]\n'
    )
    cfg = parse_config(str(path))
    assert [s.name for s in cfg.specs] == ["TFT", "GRIMLIKE", "PREDICTOR"]
    assert cfg.specs[1].strategy.coop_prob == (1, 0, 0, 0)
    assert cfg.specs[2] == PredictorSpec(p_exp=0.3)
    assert cfg.match.payoff == PayoffMatrix(Fraction(7, 2), Fraction(1, 3), Fraction(9, 2),
                                            Fraction(4, 3))


@pytest.mark.parametrize("command", ["tournament", "zd-check", "match TFT PREDICTOR"])
def test_a_run_resolves_its_config_once(tmp_path, capsys, monkeypatch, command):
    strategies, matrices = [], []
    strategy, matrix = cli._strategy, cli.PayoffMatrix
    monkeypatch.setattr(cli, "_strategy", lambda e: strategies.append(e) or strategy(e))
    monkeypatch.setattr(cli, "PayoffMatrix", lambda *v: matrices.append(v) or matrix(*v))
    config = tmp_path / "run.yaml"
    config.write_text("roster:\n  - TFT\n  - name: GRIMLIKE\n    probs: [1, 0, 0, 0]\n"
                      "  - PREDICTOR\n")
    argv = [*BASE, "--config", str(config), "--out", str(tmp_path / "out"), *command.split()]
    assert run_cli(argv, capsys)[0] == 0
    assert len(strategies) == 2  # one per entry other than PREDICTOR
    assert len(matrices) == 1


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"n_turns": 0}, "n_turns"),
        ({"p_exp": 1.5}, "p_exp"),
        ({"payoffs": (3, 0, 5)}, "payoffs"),
        ({"payoffs": (1, 0, 5, 3)}, "payoffs"),
        ({"roster": ["TFT", "NOPE"]}, "roster"),
        ({"window": 0}, "window"),
        ({"grid": [0.5, 2.0]}, "grid"),
        ({"out": "a\0b"}, "out"),
    ],
)
def test_validation_names_the_offending_key(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(None, overrides)


def test_tournament_command(tmp_path, capsys):
    out = tmp_path / "run"
    rc, stdout, _ = run_cli(
        [*BASE, "--roster", "TFT,ALLD,ALLC,PREDICTOR", "--out", str(out), "tournament"],
        capsys,
    )
    assert rc == 0
    assert str(out / "summary.csv") in stdout
    header, rows = read_rows(out / "summary.csv")
    assert header == ["rank", "name", "average", "stderr", "wins"]
    assert [r[0] for r in rows] == ["1", "2", "3", "4"]
    header, rows = read_rows(out / "matrix.csv")
    assert len(rows) == 4 and len(rows[0]) == 5


def test_tournament_trace_files(tmp_path, capsys):
    out = tmp_path / "run"
    rc, _, _ = run_cli(
        [*BASE, "--roster", "TFT,ALLD", "--trace", "--out", str(out), "tournament"],
        capsys,
    )
    assert rc == 0
    traces = sorted(p.name for p in out.glob("trace_*.csv"))
    assert len(traces) == 3  # three pairings including self-play, one iteration


def test_match_command(tmp_path, capsys):
    out = tmp_path / "run"
    rc, _, _ = run_cli(
        [*BASE, "--window", "10", "--out", str(out), "match", "PREDICTOR", "TFT"],
        capsys,
    )
    assert rc == 0
    header, rows = read_rows(out / "trace_PREDICTOR_vs_TFT.csv")
    assert header == ["turn", "action_a", "action_b", "payoff_a", "payoff_b"]
    assert len(rows) == 30
    assert all(r[1] in "CD" and r[2] in "CD" for r in rows)
    header, rows = read_rows(out / "series_PREDICTOR_vs_TFT.csv")
    assert header == ["turn", "mean_a", "mean_b"]
    assert len(rows) == 3


def test_match_requires_roster_membership(tmp_path, capsys):
    rc, _, err = run_cli(
        [*BASE, "--roster", "TFT,ALLD", "--out", str(tmp_path), "match", "TFT", "WSLS"],
        capsys,
    )
    assert rc == 2
    assert "WSLS" in err


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "run"
    rc, _, _ = run_cli(
        [*BASE, "--roster", "TFT,ZDGTFT-2,PREDICTOR", "--grid", "0.0,0.5",
         "--out", str(out), "sweep"],
        capsys,
    )
    assert rc == 0
    header, rows = read_rows(out / "sweep.csv")
    assert header == ["p_exp", "average", "delta_vs_zdgtft2", "place", "wins"]
    assert [r[0] for r in rows] == ["0", "0.5"]


def test_zd_check_command(tmp_path, capsys):
    out = tmp_path / "run"
    rc, _, _ = run_cli(
        [*BASE, "--roster", "ZDGTFT-2,ALLD,RANDOM", "--out", str(out), "zd-check"],
        capsys,
    )
    assert rc == 0
    header, rows = read_rows(out / "zd_check.csv")
    assert header[:4] == ["strategy", "opponent", "slope", "intercept"]
    assert len(rows) == 6  # two relations x three opponents
    for row in rows:
        assert abs(float(row[6])) < 1e-9
        assert row[7] == "True"


def test_timeseries_command(tmp_path, capsys):
    out = tmp_path / "run"
    rc, _, _ = run_cli(
        [*BASE, "--roster", "TFT,ALLC,PREDICTOR", "--window", "5",
         "--out", str(out), "timeseries"],
        capsys,
    )
    assert rc == 0
    lines = (out / "timeseries.csv").read_text().splitlines()
    assert lines[1].startswith("# fit value ~ a + b/sqrt(n):")
    header, rows = read_rows(out / "timeseries.csv")
    assert header == ["turn", "mean"]
    assert len(rows) == 6


def test_identical_seeds_identical_bytes(tmp_path, capsys):
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc, _, _ = run_cli([*BASE, "--out", str(out), "tournament"], capsys)
        assert rc == 0
        outputs.append((out / "summary.csv").read_bytes() + (out / "matrix.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_error_exit_code_and_message(tmp_path, capsys):
    rc, _, err = run_cli(
        [*BASE, "--roster", "TFT,BOGUS", "--out", str(tmp_path), "tournament"], capsys
    )
    assert rc == 2
    assert "error:" in err and "BOGUS" in err

    rc, _, err = run_cli([*BASE, "--payoffs", "1,0,5,3", "--out", str(tmp_path),
                          "tournament"], capsys)
    assert rc == 2
    assert "payoffs" in err


# The parametrized cases below carry fixed ids, so that a row added anywhere
# renames no other case.  The ids of the first rows are the names pytest gave
# those cases by position before the ids were fixed; a new row takes an id
# naming its subcommand and key.
@pytest.mark.parametrize(
    "flags, yaml_text, key",
    [
        pytest.param(["--grid", "a,b"], None, "grid", id="flags0-None-grid"),
        pytest.param(["--payoffs", "3,x,5,1"], None, "payoffs", id="flags1-None-payoffs"),
        pytest.param([], "n_turns: abc\n", "n_turns", id="flags2-n_turns: abc\n-n_turns"),
        pytest.param([], "payoffs: 5\n", "payoffs", id="flags3-payoffs: 5\n-payoffs"),
    ],
)
def test_malformed_numbers_exit_2_naming_the_key(tmp_path, capsys, flags, yaml_text, key):
    if yaml_text is not None:
        path = tmp_path / "run.yaml"
        path.write_text(yaml_text)
        flags = ["--config", str(path)]
        with pytest.raises(ConfigError, match=key):
            parse_config(str(path))
    # no other flags: a flag would override the config file's value
    rc, _, err = run_cli([*flags, "--out", str(tmp_path / "out"), "tournament"], capsys)
    assert rc == 2
    assert err.startswith(f"error: {key}:")
    assert not (tmp_path / "out").exists()


CUSTOM_NAMED = "roster:\n  - TFT\n  - name: {}\n    probs: [1, 0, 1, 0]\n"


@pytest.mark.parametrize(
    "flags, yaml_text, command, key",
    [
        pytest.param(["--roster", "TFT,TFT"], None, "tournament", "roster",
                     id="flags0-None-tournament-roster"),
        pytest.param(["--roster", "TFT,ALLD"], None, "sweep", "roster",
                     id="flags1-None-sweep-roster"),
        pytest.param([], 'trace: "no"\n', "tournament", "trace",
                     id='flags2-trace: "no"\n-tournament-trace'),
        pytest.param([], "randomize_initial: 1\n", "tournament", "randomize_initial",
                     id="flags3-randomize_initial: 1\n-tournament-randomize_initial"),
        pytest.param(["--roster", ","], None, "tournament", "roster",
                     id="flags4-None-tournament-roster"),
        pytest.param(["--roster", ","], None, "timeseries", "roster",
                     id="flags5-None-timeseries-roster"),
        pytest.param(["--roster", ","], None, "zd-check", "roster",
                     id="flags6-None-zd-check-roster"),
        pytest.param(["--window", "500"], None, "timeseries", "window",
                     id="flags7-None-timeseries-window"),
        pytest.param(["--roster", "TFT,PREDICTOR"], None, "sweep", "roster",
                     id="flags8-None-sweep-roster"),
        pytest.param(["--turns", "abc"], None, "tournament", "n_turns",
                     id="flags9-None-tournament-n_turns"),
        pytest.param([], "a: [\n", "tournament", "config file {path}",
                     id="flags10-a: [\n-tournament-config file {path}"),
        pytest.param([], b"seed: \xff\n", "tournament", "config file {path}",
                     id="flags11-seed: \xff\n-tournament-config file {path}"),
        pytest.param([], CUSTOM_NAMED.format('"a,b"'), "tournament", "roster",
                     id="flags12-" + CUSTOM_NAMED.format('"a,b"') + "-tournament-roster"),
        pytest.param([], CUSTOM_NAMED.format('"a;b"'), "tournament", "roster",
                     id="flags13-" + CUSTOM_NAMED.format('"a;b"') + "-tournament-roster"),
        pytest.param([], CUSTOM_NAMED.format('"a\\nb"'), "tournament", "roster",
                     id="flags14-" + CUSTOM_NAMED.format('"a\\nb"') + "-tournament-roster"),
        pytest.param([], CUSTOM_NAMED.format('"#x"'), "tournament", "roster",
                     id="flags15-" + CUSTOM_NAMED.format('"#x"') + "-tournament-roster"),
        # payoffs past the float range, or whose squares overflow a float
        pytest.param(["--payoffs", "3e400,0,5e400,1e400"], None, "tournament", "payoffs",
                     id="flags16-None-tournament-payoffs"),
        pytest.param(["--payoffs", "1e200,0,1.5e200,1e100"], None, "tournament", "payoffs",
                     id="flags17-None-tournament-payoffs"),
        pytest.param(["--payoffs", "1e308,0,1.5e308,1"], None, "match TFT ALLD", "payoffs",
                     id="flags18-None-match TFT ALLD-payoffs"),
        pytest.param(["--payoffs", "1e308,0,1.5e308,1"], None, "sweep", "payoffs",
                     id="flags19-None-sweep-payoffs"),
        pytest.param(["--payoffs", "3e400,0,5e400,1e400"], None, "zd-check", "payoffs",
                     id="flags20-None-zd-check-payoffs"),
        pytest.param(["--payoffs", "1e308,0,1.5e308,1"], None, "timeseries", "payoffs",
                     id="flags21-None-timeseries-payoffs"),
        pytest.param([], CUSTOM_NAMED.format("X") + "    inital: D\n", "tournament", "roster: X",
                     id="flags22-" + CUSTOM_NAMED.format("X")
                     + "    inital: D\n-tournament-roster: X"),
        pytest.param([], CUSTOM_NAMED.format("PREDICTOR"), "tournament", "roster",
                     id="flags23-" + CUSTOM_NAMED.format("PREDICTOR") + "-tournament-roster"),
        # a custom entry may not take a builtin's name or alias
        pytest.param([], CUSTOM_NAMED.format("ZDGTFT-2") + "  - PREDICTOR\n", "sweep", "roster",
                     id="sweep-roster-custom-named-ZDGTFT-2"),
        pytest.param([], CUSTOM_NAMED.format("ZDGTFT-2"), "zd-check", "roster",
                     id="zd-check-roster-custom-named-ZDGTFT-2"),
        pytest.param([], CUSTOM_NAMED.format("ZD-GTFT-2") + "  - ZDGTFT-2\n", "tournament",
                     "roster", id="tournament-roster-custom-named-ZD-GTFT-2"),
        pytest.param(["--roster", "TFT,ALLD,GTFT"], None, "timeseries", "roster",
                     id="timeseries-roster-without-PREDICTOR"),
    ],
)
def test_bad_roster_and_flags_exit_2_naming_the_key(tmp_path, capsys, flags, yaml_text,
                                                     command, key):
    path = tmp_path / "run.yaml"
    if yaml_text is not None:
        path.write_bytes(yaml_text if isinstance(yaml_text, bytes) else yaml_text.encode())
        flags = ["--config", str(path)]
    rc, _, err = run_cli([*flags, "--out", str(tmp_path / "out"), *command.split()], capsys)
    assert rc == 2
    assert err.startswith(f"error: {key.format(path=path)}:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, yaml_text",
    [
        (["--grid", "0.5,a"], "grid: [0.5, a]\n"),
        (["--payoffs", "3,x,5,1"], "payoffs: [3, x, 5, 1]\n"),
        (["--turns", "abc"], "n_turns: abc\n"),
        (["--p-exp", "2"], "p_exp: 2.0\n"),
        (["--roster", ","], "roster: []\n"),
    ],
)
def test_flag_and_yaml_spellings_fail_alike(tmp_path, capsys, flags, yaml_text):
    path = tmp_path / "run.yaml"
    path.write_text(yaml_text)
    errors = []
    for argv in (flags, ["--config", str(path)]):
        rc, _, err = run_cli([*argv, "--out", str(tmp_path / "out"), "sweep"], capsys)
        assert rc == 2
        errors.append(err)
    assert errors[0] == errors[1]


@pytest.mark.parametrize("command", ["tournament", "match TFT ALLD", "sweep", "zd-check",
                                     "timeseries"])
def test_payoffs_at_the_limit_write_finite_numbers(tmp_path, capsys, command):
    # the widest matrix taken: S and T at -1e100 and 1e100
    payoffs = ["--payoffs", "9e99,-1e100,1e100,0", "--grid", "0,1"]
    out = tmp_path / "out"
    rc, _, _ = run_cli([*BASE, *payoffs, "--out", str(out), *command.split()], capsys)
    assert rc == 0
    for path in out.iterdir():
        assert not re.search(r"\b(inf|nan)\b", path.read_text(), re.IGNORECASE), path.name


EVIL_ROSTER = "roster:\n  - TFT\n  - name: ../evil\n    probs: [1, 0, 1, 0]\n"


@pytest.mark.parametrize("command", [["--trace", "tournament"], ["match", "../evil", "TFT"]])
def test_output_files_stay_inside_out(tmp_path, capsys, command):
    config = tmp_path / "run.yaml"
    config.write_text(EVIL_ROSTER)
    out = tmp_path / "deep" / "out"
    rc, stdout, _ = run_cli([*BASE, "--config", str(config), "--out", str(out), *command], capsys)
    assert rc == 0
    written = stdout.split()
    assert any("evil" in path for path in written)
    for path in written:
        assert os.path.dirname(path) == str(out)
    assert sorted(p.name for p in (tmp_path / "deep").iterdir()) == ["out"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["deep", "run.yaml"]


def test_readme_key_table_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| YAML key | flag |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    keys = [(key.strip().strip("`"), flag.strip().strip("`")) for key, flag in rows]
    assert keys == [(f.name, f.metadata["flag"]) for f in fields(RunConfig)]


def test_safe_filename_keeps_plain_names():
    for name in [*DEFAULT_ROSTER, "summary.csv", "trace_0003_ZDGTFT-2_vs_TFT.csv", "a.b_c-9"]:
        assert safe_filename(name) == name
    assert safe_filename("trace_../evil_vs_TFT.csv") == "trace_.._evil_vs_TFT.csv"
    assert safe_filename("..") == "_.."
    assert safe_filename("a b\\c") == "a_b_c"


# Every CSV of every subcommand, written once from YAML spellings and once
# from flags, pinned by sha256.  `p_exp: 1` and `--p-exp 1` print differently
# in the header (1 against 1.0), as do `payoffs: [3.0, 0, 5, 1]` and the
# default; the pins hold both spellings.
PINNED_YAML = (
    "n_turns: 30\nn_iter: 1\nseed: 3\np_exp: 1\npayoffs: [3.0, 0, 5, 1]\n"
    "window: 7\ngrid: [0, 0.5]\nrandomize_initial: true\ntrace: true\n"
    "roster:\n  - TFT\n  - ZDGTFT-2\n"
    "  - name: GRIMLIKE\n    probs: ['1', '0', 0, 0.0]\n    initial: D\n  - PREDICTOR\n"
)
PINNED_FLAGS = [
    "--turns", "30", "--iters", "1", "--seed", "3", "--p-exp", "1", "--payoffs", "3.0,0,5,1",
    "--window", "7", "--grid", "0,0.5", "--randomize-initial", "--trace",
    "--roster", "TFT, ZDGTFT-2,PREDICTOR",
]
PINNED_COMMANDS = {
    "tournament": ["tournament"],
    "match": ["match", "PREDICTOR", "ZDGTFT-2"],
    "match-window-past-the-end": ["--window", "50", "match", "TFT", "PREDICTOR"],
    "sweep": ["sweep"],
    "zd-check": ["zd-check"],
    "timeseries": ["timeseries"],
}
PINNED = {
    "yaml tournament": {
        "matrix.csv": "acdbf6fceb628a0b8e66427285c9d2a5cdf02713668480fcc63df69b8c2b5a5f",
        "summary.csv": "cb625b6ac41747ec35cc51bc0ce6897e78cc05fd0b02afc02582562f2fc6088e",
        "trace_0000_ZDGTFT-2_vs_ZDGTFT-2.csv": "0cd723097c2917ebcdd87135a91c551377d90aff6874fc7f96ee58f1e27433c6",
        "trace_0001_ZDGTFT-2_vs_GRIMLIKE.csv": "93ad45ab586f96b0ba4b51a1be421f28e1016db0da596cf7450b58ec062f7fc0",
        "trace_0002_ZDGTFT-2_vs_PREDICTOR.csv": "daf753b35f2441144503b709113a8b8a133c89c30127cd67db554a6b4ce96495",
        "trace_0003_ZDGTFT-2_vs_TFT.csv": "0cd723097c2917ebcdd87135a91c551377d90aff6874fc7f96ee58f1e27433c6",
        "trace_0004_GRIMLIKE_vs_GRIMLIKE.csv": "7d79fdb37b1a0601d4e05461210685fca511ab9210fab7109799b8da85fb1f66",
        "trace_0005_GRIMLIKE_vs_PREDICTOR.csv": "939f8b0762bf9e30fa5d527361324e1707e872ec700adeec1903290dc016b0c1",
        "trace_0006_GRIMLIKE_vs_TFT.csv": "2da8c7fe296cbe62797e7e143c329a943e17a8e731edc215732183fb5b8ccfe5",
        "trace_0007_PREDICTOR_vs_PREDICTOR.csv": "c98119cfa4ee1849dfda68ba8c5abe28f0c505cb790123d0a7fa009f5de72357",
        "trace_0008_PREDICTOR_vs_TFT.csv": "4904da79b4dbbea6420091705c1284dea3e0d6c9441e80b57b0c57c7c5d117c4",
        "trace_0009_TFT_vs_TFT.csv": "0cd723097c2917ebcdd87135a91c551377d90aff6874fc7f96ee58f1e27433c6",
    },
    "yaml match": {
        "series_PREDICTOR_vs_ZDGTFT-2.csv": "002d0498da1064c3aca4012eb23f4385f28ba225a5625ca69f93280b60c212a9",
        "trace_PREDICTOR_vs_ZDGTFT-2.csv": "8c39f952b2b44e8e7bc3b184aea5f4ceeba2fbe117574673090f65360be4e9f8",
    },
    "yaml match-window-past-the-end": {
        "series_TFT_vs_PREDICTOR.csv": "ec47832e6103036d2851ce336a8c36cb3889db402af2654e81fc798dab14628f",
        "trace_TFT_vs_PREDICTOR.csv": "0bce81803798997fa82650b1de07a7447ecce6ff0d8be476722de7f2ed3dd7b3",
    },
    "yaml sweep": {
        "sweep.csv": "06f8200c782b852452020fc38cfd78ffcad090c647bf4ae556fc2dbaeb8c18b8",
    },
    "yaml zd-check": {
        "zd_check.csv": "a1b31ca31c07727230968add3eed0707e4aeeb74ec970b556139210e85228a67",
    },
    "yaml timeseries": {
        "timeseries.csv": "652f2aa73636c8fd7175f264524d55b19fb0f5bfed6e35cb70eda5b091c70350",
    },
    "flags tournament": {
        "matrix.csv": "c303e93d86f7d29f6b4def55269c654f23c93ffb17fe72d3da541b1d9dd3a594",
        "summary.csv": "1eaf1c844a9eb8cbf9cac5bdf5f9ffd4ea00755653ddd554cf7f9facfa4dc0ca",
        "trace_0000_ZDGTFT-2_vs_ZDGTFT-2.csv": "9bd9a3546fd14f0898954f32d9b1fd56254b22c8e650c85f1eafb664c3eba1b6",
        "trace_0001_ZDGTFT-2_vs_TFT.csv": "9bd9a3546fd14f0898954f32d9b1fd56254b22c8e650c85f1eafb664c3eba1b6",
        "trace_0002_ZDGTFT-2_vs_PREDICTOR.csv": "02570cdfc8977536d0bef40fd1c83e7a5ddc5f34b14f839a38d3124def4782dd",
        "trace_0003_TFT_vs_TFT.csv": "9bd9a3546fd14f0898954f32d9b1fd56254b22c8e650c85f1eafb664c3eba1b6",
        "trace_0004_TFT_vs_PREDICTOR.csv": "cf8da04144dff186a8dcefe41b663a69b0ab473cdda040e2afc4d1410d1db211",
        "trace_0005_PREDICTOR_vs_PREDICTOR.csv": "29e638be38aa40b694ca1ace8c5ce1466c1578530d22897edc04c4da04a1e2a8",
    },
    "flags match": {
        "series_PREDICTOR_vs_ZDGTFT-2.csv": "f3e505678ef1c17a8d5a7717bc6d24a8a96a8f8ba9ce486cb2fc93b240a621df",
        "trace_PREDICTOR_vs_ZDGTFT-2.csv": "65caa49369bae8febd171c82f7a1df7791d3c00aac6378aa7f78d82d1ea58a60",
    },
    "flags match-window-past-the-end": {
        "series_TFT_vs_PREDICTOR.csv": "46d2c90c6a14b2da1134f08d2e32410a48e87905f4dbeaa87bbdc5da11448487",
        "trace_TFT_vs_PREDICTOR.csv": "2cf492bf13ef62335b35902b309906e051127c6f554187d43bc0469cce1dfd07",
    },
    "flags sweep": {
        "sweep.csv": "7418af6777abfa90f50ba97cb731d584c8bc6e5e47cee9076319caf9b1530934",
    },
    "flags zd-check": {
        "zd_check.csv": "724fb1895db0498e290668a57f1da46941531cb98ee41b96d1bc1b55e92129e2",
    },
    "flags timeseries": {
        "timeseries.csv": "adb5762d979dbc2dbbe8cb067bbd375130ec969e1a171ff56df0f54a6cc41888",
    },
}


def pinned_run(tmp_path, spelling, command):
    out = tmp_path / spelling / command
    argv = PINNED_FLAGS
    if spelling == "yaml":
        config = tmp_path / "run.yaml"
        config.write_text(PINNED_YAML)
        argv = ["--config", str(config)]
    assert main([*argv, "--out", str(out), *PINNED_COMMANDS[command]]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("spelling", ["yaml", "flags"])
@pytest.mark.parametrize("command", list(PINNED_COMMANDS))
def test_csv_bytes_are_pinned(tmp_path, capsys, spelling, command):
    assert pinned_run(tmp_path, spelling, command) == PINNED[f"{spelling} {command}"]


# Fuzz of `main`: arbitrary YAML mappings (or junk bytes) and argv lists.
# A config is a well-formed mapping with up to two keys set to arbitrary
# values, so that many runs get past the checks; numbers stay small, so that
# every accepted run is a tiny one.
NAMES = [*DEFAULT_ROSTER, "tft", "NOPE", ""]
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6), st.floats(-0.5, 1.5),
    st.sampled_from([float("nan"), float("inf"), "1/2", "0.5"]),
    st.sampled_from(NAMES), st.text(max_size=4),
)
CUSTOM = st.fixed_dictionaries(
    {"name": st.sampled_from(["X", "Y", "TFT", "ZD-GTFT-2"]),
     "probs": st.lists(st.sampled_from([0, 1, 0.25, "1/3"]), min_size=4, max_size=4)},
    optional={"initial": st.sampled_from("CDR")},
)
WILD_CUSTOM = st.fixed_dictionaries(
    {"name": SCALARS, "probs": st.lists(SCALARS, max_size=5)}, optional={"initial": SCALARS}
)
VALUES = st.one_of(SCALARS, st.lists(st.one_of(SCALARS, WILD_CUSTOM), max_size=3))
WELL_FORMED = {
    "roster": st.lists(st.one_of(st.sampled_from(DEFAULT_ROSTER), CUSTOM), min_size=1, max_size=4),
    "n_turns": st.integers(1, 6),
    "n_iter": st.integers(1, 2),
    "p_exp": st.floats(0, 1),
    "payoffs": st.sampled_from([[3, 0, 5, 1], [3.0, 0, 5, 1], ["4", "0", "7", "1"]]),
    "randomize_initial": st.booleans(),
    "seed": st.integers(-2, 6),
    "window": st.integers(1, 6),
    "grid": st.lists(st.floats(0, 1), max_size=2),
    "trace": st.booleans(),
}
SIZED = ["n_turns", "n_iter", "grid"]  # always given, so no run takes the large defaults
CONFIGS = st.one_of(
    st.tuples(
        st.fixed_dictionaries({k: WELL_FORMED[k] for k in SIZED},
                              optional={k: v for k, v in WELL_FORMED.items() if k not in SIZED}),
        st.dictionaries(st.sampled_from([f.name for f in fields(RunConfig)] + ["bogus"]),
                        VALUES, max_size=2),
    ).map(lambda pair: yaml.safe_dump({**pair[0], **pair[1]})),
    st.binary(max_size=12),
)
FLAG_TEXT = st.one_of(
    st.integers(-2, 6).map(str), st.floats(-0.5, 1.5).map(str),
    st.lists(st.sampled_from(NAMES), max_size=4).map(",".join),
    st.text(alphabet="01.,;-aT \n", max_size=6),
)
FLAGS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["--roster", "--turns", "--iters", "--p-exp", "--payoffs",
                               "--seed", "--window", "--grid"]), FLAG_TEXT),
    st.sampled_from([("--trace",), ("--randomize-initial",), ("--bogus",)]),
), max_size=3).map(lambda pairs: [token for pair in pairs for token in pair])
COMMANDS = st.one_of(
    st.sampled_from([["tournament"], ["sweep"], ["zd-check"], ["timeseries"], ["bogus"]]),
    st.lists(st.sampled_from(NAMES), min_size=2, max_size=2).map(lambda ab: ["match", *ab]),
)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(config=CONFIGS, flags=FLAGS, command=COMMANDS)
def test_fuzzed_input_exits_0_or_2_and_writes_only_inside_out(config, flags, command):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a config `out` that won over --out would land here
        try:
            with open("run.yaml", "wb") as fh:
                fh.write(config.encode() if isinstance(config, str) else config)
            if isinstance(config, bytes):  # flags alone must keep the run small too
                flags = ["--turns", "5", "--iters", "1", "--grid", "0.5", *flags]
            argv = [*flags, "--config", "run.yaml", "--out", os.path.join(tmp, "out"), *command]
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse refuses with exit 2
                rc = exc.code
            assert rc in (0, 2)
            assert set(os.listdir(tmp)) <= {"run.yaml", "out"}
            if os.path.isdir("out"):
                assert all(os.path.isfile(os.path.join("out", n)) and not n.startswith(".tmp-")
                           for n in os.listdir("out"))
        finally:
            os.chdir(cwd)
