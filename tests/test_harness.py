"""Campaign configs, verdict logic, CSV determinism, CLI behavior."""
import csv
import subprocess
import sys

import pytest

from thicken import (
    Circle,
    ConfigError,
    Ellipse,
    EXPERIMENTS,
    FinitePointSet,
    Sphere,
    Torus,
    ZeroSphere,
    CampaignConfig,
    parse_config,
    run_campaign,
)
from thicken.harness import reach_validation_experiment, s0_tightness_experiment
from thicken.retraction import LEMMA_IDS

GOOD = "shape=circle radius=1\nr=0.5\nk=3\ntrials=20\nseed=7\n"


def run_cli(*args, env_extra=None, timeout=None):
    import os
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "thicken.cli", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_parse_config_happy_path():
    cfg = parse_config(GOOD)
    assert cfg.shape == Circle(1.0)
    assert cfg.rs == (0.5,)
    assert cfg.k == 3 and cfg.trials == 20 and cfg.seed == 7
    assert cfg.lemmas == LEMMA_IDS
    # multiple tokens on one line, comments, r grids, flavor filter
    cfg = parse_config("shape=torus major=3 minor=1  # tube\nr=0.3,0.6\nflavor=vr\n")
    assert cfg.shape == Torus(3.0, 1.0)
    assert cfg.rs == (0.3, 0.6)
    assert all(lemma in LEMMA_IDS for lemma in cfg.lemmas)
    assert "CechRadius" not in cfg.lemmas


def test_parse_config_all_shape_kinds():
    assert parse_config("shape=circle radius=2\nr=0.5").shape == Circle(2.0)
    assert parse_config("shape=ellipse a=2 b=1\nr=0.2").shape == Ellipse(2.0, 1.0)
    assert parse_config("shape=sphere dim=4 radius=1\nr=0.5").shape == Sphere(4, 1.0)
    assert parse_config("shape=zerosphere\nr=0.5").shape == ZeroSphere()
    fin = parse_config("shape=finite points=0,0;3,0\nr=0.5").shape
    assert fin == FinitePointSet(((0.0, 0.0), (3.0, 0.0)))


@pytest.mark.parametrize("text", (
    "r=0.5",                                    # missing shape
    "shape=circle radius=1",                    # missing r
    "shape=circle radius=1\nr=0.5\nbogus=1",    # unknown key
    "shape=circle radius=1\nr=0.5\nr=0.6",      # duplicate key
    "shape=moebius\nr=0.5",                     # unknown shape kind
    "shape=ellipse a=2\nr=0.2",                 # missing required shape param
    "shape=circle radius=1 a=2\nr=0.5",         # foreign shape param
    "shape=circle radius=1\nr=0,0.5",           # nonpositive r
    "shape=circle radius=1\nr=2.0",             # r >= reach, no tightness
    "shape=circle radius=1\nr=0.5\nk=9",        # k out of range
    "shape=circle radius=1\nr=0.5\ntrials=-1",  # negative trials
    "shape=circle radius=1\nr=0.5\nseed=-1",    # negative seed
    "shape=circle radius=1\nr=0.5\nseed=18446744073709551616",  # seed 2**64: past the key
    "shape=circle radius=1\nr=0.5\nseed=1.5",   # non-integral counts
    "shape=circle radius=1\nr=0.5\nk=2.5",
    "shape=circle radius=1\nr=0.5\ntrials=2.5",
    "shape=circle radius=1\nr=0.5\nstrict=maybe",
    "shape=circle radius=1\nr=0.5\nlemmas=NotALemma",
    "shape=circle radius=1\nr=0.5\nflavor=quantum",
    "shape=circle radius=1\nr=0.5 extra",       # token without '='
    "shape=circle radius=1\nr=0.5\nflavor=cech\nlemmas=VrTub",  # suite outside flavor
    "shape=circle radius=1\nr=0.5\nlemmas=,",  # no suite left to run
    "shape=torus major=inf minor=1 r=0.5",     # non-finite shape parameters
    "shape=circle radius=inf r=0.5",
    "shape=sphere dim=3 radius=inf r=0.5",
    "shape=sphere dim=1000000000 radius=1 r=0.5",   # above the dimension cap
    "shape=ellipse a=1e400 b=1 r=0.2 tightness=1",
))
def test_parse_config_rejections(text):
    with pytest.raises(ConfigError):
        parse_config(text)


@pytest.mark.parametrize("field", ({"seed": 1.5}, {"k": 2.5}, {"trials": 2.5}))
def test_campaign_config_rejects_non_integral_counts(field):
    # the config parser makes ints, but library callers can pass floats
    with pytest.raises(ConfigError, match="must be an integer"):
        CampaignConfig(shape=Circle(1.0), rs=(0.5,), lemmas=("VrTub",), **field)


def test_tightness_mode_allows_boundary_and_skips_reach_gap_suites():
    cfg = parse_config("shape=circle radius=1\nr=2.0\ntrials=10\ntightness=1")
    res = run_campaign(cfg)
    assert res.verdict in ("PASS", "SKIP", "WARN")
    skipped = [row for row in res.rows if row["trials"] == "0"]
    ran = [row for row in res.rows if row["trials"] != "0"]
    assert {row["lemma_id"] for row in skipped} == {
        "VrSimplex", "CechSimplexAmbient", "CechSimplexIntrinsic", "FedererLipschitz"}
    assert ran  # the precondition-free suites still execute


def test_r_independent_suite_runs_once_per_campaign(monkeypatch):
    import thicken.retraction as retraction

    calls = []
    real = retraction.check_empty_ball

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(retraction, "check_empty_ball", counting)
    cfg = CampaignConfig(shape=Circle(1.0), rs=(0.3, 0.6, 0.9), trials=20,
                         lemmas=("EmptyBall",))
    res = run_campaign(cfg)
    assert len(calls) == 1
    assert len(res.rows) == 3 and res.rows[0] == res.rows[1] == res.rows[2]


def test_campaign_rows_cover_grid_in_order():
    cfg = CampaignConfig(shape=Circle(1.0), rs=(0.3, 0.6), trials=10,
                         lemmas=("Convex", "VrTub"))
    res = run_campaign(cfg)
    assert res.verdict == "PASS"
    assert [(row["lemma_id"], row["r"]) for row in res.rows] == [
        ("Convex", "0.3"), ("VrTub", "0.3"), ("Convex", "0.6"), ("VrTub", "0.6")]


def test_zero_trials_campaign_is_skip():
    cfg = CampaignConfig(shape=Circle(1.0), rs=(0.3,), trials=0, lemmas=("Convex",))
    assert run_campaign(cfg).verdict == "SKIP"


def test_csv_identical_across_worker_counts(monkeypatch):
    cfg = parse_config("shape=circle radius=1\nr=0.5\ntrials=128\nlemmas=Convex,VrTub,CechRadius")
    monkeypatch.setenv("THICKEN_THREADS", "1")
    one = run_campaign(cfg).to_csv()
    monkeypatch.setenv("THICKEN_THREADS", "4")
    four = run_campaign(cfg).to_csv()
    monkeypatch.setenv("THICKEN_THREADS", "3")
    three = run_campaign(cfg).to_csv()
    assert one == four == three


@pytest.mark.parametrize("shape", [Ellipse(2.0, 1.0), Torus(3.0, 1.0)], ids=["ellipse", "torus"])
def test_campaign_csv_reads_back_as_fields(shape):
    # the shape labels hold commas, e.g. ellipse(a=2,b=1)
    res = run_campaign(CampaignConfig(shape=shape, rs=(0.3,), k=2, trials=5, seed=1,
                                      lemmas=("Convex",)))
    rows = list(csv.reader(res.to_csv().splitlines()))
    assert rows[0] == list(res.columns)
    assert rows[1:] == [list(row.values()) for row in res.rows]


def test_experiment_registry_metadata():
    assert EXPERIMENTS == {"s0-tightness": s0_tightness_experiment,
                           "reach-validation": reach_validation_experiment}


def test_s0_tightness_passes():
    res = s0_tightness_experiment(trials=60, seed=1)
    assert res.verdict == "PASS"
    facts = {row["fact"] for row in res.rows}
    assert "pair-in-minball-complex-at-2" in facts
    assert "balanced-pair-projects-to-tie" in facts
    assert any(f.startswith("pair-not-member-below-2") for f in facts)
    assert all(row["ok"] == "True" for row in res.rows)


# ---------------------------------------------------------------------------
# CLI


def test_cli_verify_pass_and_fail_paths(tmp_path):
    conf = tmp_path / "ok.txt"
    conf.write_text(GOOD)
    res = run_cli("verify", str(conf))
    assert res.returncode == 0
    assert res.stdout.splitlines()[0].startswith("lemma_id,shape,")
    assert "verdict: PASS" in res.stderr

    bad = tmp_path / "bad.txt"
    bad.write_text("shape=circle radius=1\nr=5\n")
    res = run_cli("verify", str(bad))
    assert res.returncode == 2
    assert "config error" in res.stderr

    res = run_cli("verify", str(tmp_path / "missing.txt"))
    assert res.returncode == 2

    big = tmp_path / "big-seed.txt"
    big.write_text(GOOD.replace("seed=7", f"seed={2**64}"))
    res = run_cli("verify", str(big))
    assert res.returncode == 2
    assert "seed" in res.stderr


def test_cli_verify_out_file_and_json(tmp_path):
    conf = tmp_path / "ok.txt"
    conf.write_text(GOOD)
    out = tmp_path / "rows.csv"
    res = run_cli("verify", str(conf), "--out", str(out))
    assert res.returncode == 0
    assert out.read_text().startswith("lemma_id,")
    res = run_cli("verify", str(conf), "--json-lines")
    first = res.stdout.splitlines()[0]
    assert first.startswith("{") and '"experiment_id": "campaign"' in first


def test_cli_verify_unwritable_out_is_config_error(tmp_path, capsys):
    import thicken.cli as cli

    conf = tmp_path / "ok.txt"
    conf.write_text(GOOD)
    out = tmp_path / "missing" / "x.csv"
    assert cli.main(["verify", str(conf), "--out", str(out)]) == 2
    assert "cannot write" in capsys.readouterr().err
    conf.write_text(GOOD + f"out={out}\n")
    assert cli.main(["verify", str(conf)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_cli_byte_determinism_across_thread_env(tmp_path):
    conf = tmp_path / "ok.txt"
    conf.write_text("shape=ellipse a=2 b=1\nr=0.4\ntrials=96\nlemmas=Convex,CechTub\n")
    a = run_cli("verify", str(conf), env_extra={"THICKEN_THREADS": "1"})
    b = run_cli("verify", str(conf), env_extra={"THICKEN_THREADS": "5"})
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_cli_wasserstein_and_skeleton(tmp_path):
    mu = tmp_path / "mu.txt"
    nu = tmp_path / "nu.txt"
    mu.write_text("0.5 0 0\n0.5 1 0\n")
    nu.write_text("1 0.5 0\n")
    res = run_cli("wasserstein", str(mu), str(nu))
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "value,0.5"

    pts = tmp_path / "pts.txt"
    pts.write_text("0 0\n1 0\n0.5 0.8\n")
    res = run_cli("skeleton", str(pts), "--scale", "1.0", "--max-dim", "2")
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "dim 2 scale 1 flavor vr strict 0"
    assert "0 1 2" in res.stdout.splitlines()

    res = run_cli("skeleton", str(pts), "--scale", "1.0", "--flavor", "cech-intrinsic",
                  "--shape", "shape=circle", "--witnesses", "0")
    assert res.returncode == 2
    assert "--witnesses" in res.stderr
    res = run_cli("skeleton", str(pts), "--scale", "1.0", "--flavor", "cech-intrinsic",
                  "--shape", "shape=circle", "--seed", "-1")
    assert res.returncode == 2
    assert "--seed" in res.stderr
    # an infinite ellipse's sampler would never accept a witness: the
    # command must stop at the descriptor, promptly
    res = run_cli("skeleton", str(pts), "--scale", "0.5", "--flavor", "cech-intrinsic",
                  "--shape", "shape=ellipse a=inf b=1", "--witnesses", "4", timeout=60)
    assert res.returncode == 2
    assert "finite" in res.stderr


def test_cli_rejects_bad_input_files(tmp_path, capsys):
    import thicken.cli as cli

    good = tmp_path / "good.txt"
    good.write_text("1 0\n")
    bad = tmp_path / "bad.txt"
    for text in ("0.9 0\n", "0.5 0\n0.5 x\n", "0.5 0\n0.5 0\n", "# nothing\n",
                 "0.5 0 0\n0.5 1\n"):
        bad.write_text(text)
        assert cli.main(["wasserstein", str(bad), str(good)]) in (1, 2)
        assert cli.main(["wasserstein", str(good), str(bad)]) in (1, 2)
        assert "internal error" not in capsys.readouterr().err
    bad.write_text("0 0\n0 0\n1 0\n")
    assert cli.main(["skeleton", str(bad), "--scale", "1.5"]) in (1, 2)
    assert "points 0 and 1 coincide" in capsys.readouterr().err
    bad.write_text("0 0\n1\n")
    assert cli.main(["skeleton", str(bad), "--scale", "1.5"]) in (1, 2)
    assert "internal error" not in capsys.readouterr().err


def test_cli_project_exit_codes():
    ok = run_cli("project", "shape=circle radius=1", "2,0")
    assert ok.returncode == 0
    assert ok.stdout.split() == ["1", "0"]
    tie = run_cli("project", "shape=circle radius=1", "0,0")
    assert tie.returncode == 1
    assert "medial-axis" in tie.stderr
    bad = run_cli("project", "shape=circle radius=1", "0,0,0")
    assert bad.returncode == 2
    foreign = run_cli("project", "shape=circle radius=1 trials=5", "2,0")
    assert foreign.returncode == 2
    assert "trials" in foreign.stderr


def test_cli_experiment_unknown_name():
    res = run_cli("experiment", "nope")
    assert res.returncode == 2
    assert "unknown experiment" in res.stderr


def test_cli_unexpected_exception_is_internal_error(tmp_path, monkeypatch, capsys):
    import thicken.cli as cli

    conf = tmp_path / "ok.txt"
    conf.write_text(GOOD)

    def boom(config):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "run_campaign", boom)
    assert cli.main(["verify", str(conf)]) == 3
    assert "internal error" in capsys.readouterr().err
