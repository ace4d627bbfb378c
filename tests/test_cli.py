"""Config resolution, pipeline wiring, and the command-line interface,
including the exit-code taxonomy."""

import os

import numpy as np
import pytest

from tncse import checkpoint as ckpt
from tncse import pipeline as pl
from tncse.cli import main
from tncse.errors import CheckpointError, ConfigError


# -- config resolution -----------------------------------------------------

def test_parse_config_file_comments_and_whitespace(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# a comment\n  train.steps = 42  # trailing\n\nseed=9\n")
    assert pl.parse_config_file(path) == {"train.steps": "42", "seed": "9"}


def test_parse_config_file_rejects_malformed_line(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("train.steps 42\n")
    with pytest.raises(ConfigError, match=":1:"):
        pl.parse_config_file(path)


def test_parse_config_file_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        pl.parse_config_file(tmp_path / "absent.txt")


def test_resolve_config_precedence_and_coercion():
    cfg = pl.resolve_config({"train.steps": "50", "train.lr": "0.01"},
                            {"train.steps": "60"}, seed=7)
    assert cfg["train.steps"] == 60 and isinstance(cfg["train.steps"], int)
    assert cfg["train.lr"] == pytest.approx(0.01)
    assert cfg["seed"] == 7


def test_resolve_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        pl.resolve_config({"train.nonsense": "1"})


def test_resolve_config_rejects_unparseable_value():
    with pytest.raises(ConfigError, match="cannot parse"):
        pl.resolve_config({"train.steps": "many"})


def test_write_resolved_config_is_sorted_and_complete(tmp_path):
    cfg = pl.resolve_config()
    pl.write_resolved_config(cfg, tmp_path)
    lines = (tmp_path / "resolved-config.txt").read_text().splitlines()
    keys = [line.split(" = ")[0] for line in lines]
    assert keys == sorted(cfg)


# -- workspace / model loading ---------------------------------------------

@pytest.fixture
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["gen-data", "--out", str(out), "--seed", "1"]) == 0
    return out


def data_args(data_dir):
    return ["--set", f"data.corpus={data_dir}/corpus.txt",
            "--set", f"data.sts_dev={data_dir}/sts_dev.tsv",
            "--set", f"data.sts_test={data_dir}/sts_test.tsv"]


@pytest.fixture
def pair_dir(data_dir, tmp_path):
    """Untrained encoders I and II over ``data_dir``'s vocabulary and their
    ensemble manifest."""
    cfg = pl.resolve_config({"data.corpus": f"{data_dir}/corpus.txt",
                             "data.sts_dev": f"{data_dir}/sts_dev.tsv"})
    ws = pl.load_workspace(cfg)
    pair = tmp_path / "pair"
    pair.mkdir()
    for which, name in ((1, "I"), (2, "II")):
        ckpt.save_encoder(pl.new_encoder(cfg, ws, 1, which, name),
                          str(pair / f"encoder_{name}"))
    ckpt.save_ensemble_manifest(["encoder_I", "encoder_II"],
                                str(pair / "ensemble.manifest"))
    return pair


def test_load_workspace_requires_paths():
    with pytest.raises(ConfigError, match="data.corpus"):
        pl.load_workspace(pl.resolve_config())


def test_load_model_missing_checkpoint(data_dir):
    cfg = pl.resolve_config({"data.corpus": f"{data_dir}/corpus.txt",
                             "data.sts_dev": f"{data_dir}/sts_dev.tsv"})
    ws = pl.load_workspace(cfg)
    with pytest.raises(CheckpointError):
        pl.load_model(str(data_dir / "missing"), ws)


def test_load_model_resolves_prefix_and_manifest_spellings(data_dir, pair_dir):
    cfg = pl.resolve_config({"data.corpus": f"{data_dir}/corpus.txt",
                             "data.sts_dev": f"{data_dir}/sts_dev.tsv"})
    ws = pl.load_workspace(cfg)
    encs = [pl.new_encoder(cfg, ws, 1, which, name)
            for which, name in ((1, "I"), (2, "II"))]
    encoder, ensemble = str(pair_dir / "encoder_I"), str(pair_dir / "ensemble")
    for spelling, expected in ((encoder, encs[:1]), (encoder + ".manifest", encs[:1]),
                               (ensemble, encs), (ensemble + ".manifest", encs)):
        model = pl.load_model(spelling, ws)
        assert [e.name for e in model.encoders] == [e.name for e in expected], spelling
        for got, want in zip(model.encoders, expected):
            for k in want.params:
                np.testing.assert_array_equal(got.params[k].data, want.params[k].data)
    with pytest.raises(CheckpointError):
        pl.load_model(str(pair_dir / "missing.manifest"), ws)


# -- CLI behavior ----------------------------------------------------------

def test_gen_data_writes_corpus_sts_and_run_records(data_dir):
    for name in ("corpus.txt", "sts_dev.tsv", "sts_test.tsv",
                 "resolved-config.txt", "run-metadata.txt"):
        assert (data_dir / name).exists(), name
    meta = (data_dir / "run-metadata.txt").read_text()
    assert "command gen-data" in meta and "seed 1" in meta


def test_gen_data_is_reproducible(tmp_path, data_dir):
    out2 = tmp_path / "again"
    assert main(["gen-data", "--out", str(out2), "--seed", "1"]) == 0
    assert (out2 / "corpus.txt").read_text() == (data_dir / "corpus.txt").read_text()
    assert (out2 / "sts_dev.tsv").read_text() == (data_dir / "sts_dev.tsv").read_text()


def test_cli_unknown_config_key_exits_2(tmp_path, capsys):
    rc = main(["gen-data", "--out", str(tmp_path / "x"), "--set", "bogus.key=1"])
    assert rc == 2
    assert "config-error:" in capsys.readouterr().err


def test_cli_malformed_set_exits_2(tmp_path, capsys):
    rc = main(["gen-data", "--out", str(tmp_path / "x"), "--set", "no-equals"])
    assert rc == 2
    assert "config-error:" in capsys.readouterr().err


def test_cli_refuses_non_empty_out_dir_without_force(tmp_path, capsys):
    out = tmp_path / "occupied"
    out.mkdir()
    (out / "file.txt").write_text("x")
    assert main(["gen-data", "--out", str(out)]) == 2
    assert main(["gen-data", "--out", str(out), "--force"]) == 0


@pytest.mark.parametrize("command, settings", [
    ("pretrain", ["encoder.num_heads=3"]),
    ("pretrain", ["pretrain.steps=0"]),
    ("pretrain", ["pretrain.batch_size=0"]),
    ("pretrain", ["loss.tau=0"]),
    ("train", ["train.encoder_i={pair}/encoder_I", "train.encoder_ii={pair}/encoder_II",
               "loss.terms="]),
    ("distill", ["distill.teacher={pair}/ensemble.manifest", "distill.steps=10"]),
    ("distill", ["distill.teacher={pair}/ensemble.manifest", "distill.eval_interval=0"]),
    ("norm-probe", ["probe.checkpoint={pair}/encoder_I", "probe.strip_counts=9"]),
    ("norm-probe", ["probe.checkpoint={pair}/encoder_I", "probe.strip_counts=a"]),
    ("eval", ["eval.checkpoint={pair}/encoder_I", "data.sts_dev={pair}/missing.tsv"]),
    ("eval", ["eval.checkpoint={pair}/encoder_I", "data.sts_test={pair}/missing.tsv"]),
    ("gen-data", "out is a file"),
], ids=lambda v: v if isinstance(v, str) else v[-1].replace("{pair}/", ""))
def test_cli_config_mistakes_exit_2_with_one_line(data_dir, pair_dir, tmp_path,
                                                  capsys, command, settings):
    out = tmp_path / "out"
    if settings == "out is a file":
        out.write_text("x")
        settings = []
    argv = [command, "--out", str(out)] + data_args(data_dir)
    for s in settings:
        argv += ["--set", s.format(pair=pair_dir)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config-error: "), err


def test_cli_missing_checkpoint_exits_4(data_dir, tmp_path, capsys):
    rc = main(["eval", "--out", str(tmp_path / "ev")] + data_args(data_dir)
              + ["--set", f"eval.checkpoint={tmp_path}/nothing"])
    assert rc == 4
    assert "checkpoint-error:" in capsys.readouterr().err


def test_cli_corrupt_sts_file_exits_3(data_dir, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tb\tnot-a-number\n")
    rc = main(["eval", "--out", str(tmp_path / "ev"),
               "--set", f"data.corpus={data_dir}/corpus.txt",
               "--set", f"data.sts_dev={bad}"])
    assert rc == 3
    assert "data-error:" in capsys.readouterr().err


def test_cli_eval_without_checkpoint_exits_2(data_dir, tmp_path):
    assert main(["eval", "--out", str(tmp_path / "ev")] + data_args(data_dir)) == 2


def test_cli_default_out_dir_env_root(data_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("TNCSE_OUT_ROOT", str(tmp_path / "root"))
    assert main(["gen-data", "--seed", "1"]) == 0
    runs = os.listdir(tmp_path / "root")
    assert len(runs) == 1 and runs[0].startswith("gen-data-")


def test_cli_short_training_pipeline_end_to_end(data_dir, tmp_path, capsys):
    """pretrain -> train -> eval -> norm-probe on tiny budgets."""
    pre = tmp_path / "pre"
    args = data_args(data_dir)
    assert main(["pretrain", "--out", str(pre), "--seed", "1"] + args
                + ["--set", "pretrain.steps=4", "--set", "pretrain.eval_interval=2"]) == 0
    dual = tmp_path / "dual"
    assert main(["train", "--out", str(dual), "--seed", "1"] + args
                + ["--set", f"train.encoder_i={pre}/encoder_I",
                   "--set", f"train.encoder_ii={pre}/encoder_II",
                   "--set", "train.steps=4", "--set", "train.eval_interval=2"]) == 0
    assert (dual / "ensemble.manifest").exists()
    assert (dual / "trainlog.csv").read_text().startswith("step,nce_i")
    ev = tmp_path / "ev"
    assert main(["eval", "--out", str(ev)] + args
                + ["--set", f"eval.checkpoint={dual}/ensemble.manifest"]) == 0
    report = (ev / "report.txt").read_text()
    assert "spearman dev" in report and "uniformity" in report
    probe = tmp_path / "probe"
    assert main(["norm-probe", "--out", str(probe)] + args
                + ["--set", f"probe.checkpoint={dual}/encoder_I"]) == 0
    csv = (probe / "norm_probe.csv").read_text()
    assert csv.splitlines()[0].startswith("stripped,")
    assert len(csv.splitlines()) == 2 + 2 * pl.DEFAULTS["encoder.num_layers"]


def test_cli_vocab_mismatch_between_data_and_checkpoint_exits_3(
        data_dir, tmp_path, capsys):
    pre = tmp_path / "pre"
    args = data_args(data_dir)
    assert main(["pretrain", "--out", str(pre), "--seed", "1"] + args
                + ["--set", "pretrain.steps=2",
                   "--set", "pretrain.eval_interval=1"]) == 0
    other = tmp_path / "other-data"
    assert main(["gen-data", "--out", str(other), "--seed", "77"]) == 0
    rc = main(["eval", "--out", str(tmp_path / "ev2"),
               "--set", f"data.corpus={other}/corpus.txt",
               "--set", f"data.sts_dev={other}/sts_dev.tsv",
               "--set", f"eval.checkpoint={pre}/encoder_I"])
    assert rc == 3
    assert "different vocabulary" in capsys.readouterr().err
