import os

import pytest

from predipd.cli import DEFAULT_ROSTER, ConfigError, main, parse_config, safe_filename

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
    )
    cfg = parse_config(str(path))
    specs = cfg.player_specs()
    assert [s.name for s in specs] == ["TFT", "GRIMLIKE"]


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


@pytest.mark.parametrize(
    "flags, yaml_text, key",
    [
        (["--grid", "a,b"], None, "grid"),
        (["--payoffs", "3,x,5,1"], None, "payoffs"),
        ([], "n_turns: abc\n", "n_turns"),
        ([], "payoffs: 5\n", "payoffs"),
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


@pytest.mark.parametrize(
    "flags, yaml_text, command, key",
    [
        (["--roster", "TFT,TFT"], None, "tournament", "roster"),
        (["--roster", "TFT,ALLD"], None, "sweep", "roster"),
        ([], 'trace: "no"\n', "tournament", "trace"),
        ([], "randomize_initial: 1\n", "tournament", "randomize_initial"),
    ],
)
def test_bad_roster_and_flags_exit_2_naming_the_key(tmp_path, capsys, flags, yaml_text,
                                                     command, key):
    if yaml_text is not None:
        path = tmp_path / "run.yaml"
        path.write_text(yaml_text)
        flags = ["--config", str(path)]
    rc, _, err = run_cli([*flags, "--out", str(tmp_path / "out"), command], capsys)
    assert rc == 2
    assert err.startswith(f"error: {key}:")
    assert not (tmp_path / "out").exists()


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


def test_safe_filename_keeps_plain_names():
    for name in [*DEFAULT_ROSTER, "summary.csv", "trace_0003_ZDGTFT-2_vs_TFT.csv", "a.b_c-9"]:
        assert safe_filename(name) == name
    assert safe_filename("trace_../evil_vs_TFT.csv") == "trace_.._evil_vs_TFT.csv"
    assert safe_filename("..") == "_.."
    assert safe_filename("a b\\c") == "a_b_c"
