"""Config resolution, pipeline wiring, and the command-line interface,
including the exit-code taxonomy."""

import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tncse import __version__, cli
from tncse import checkpoint as ckpt
from tncse import pipeline as pl
from tncse.cli import main
from tncse.data import make_batch
from tncse.encoder import Encoder
from tncse.ensemble import EnsembleModel
from tncse.errors import CheckpointError, ConfigError, DataError, TncseError
from tncse.evaluation import alignment, sts_eval, uniformity
from tncse.training import _member_sums
from test_checkpoint import as_format_version_2

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


def test_resolve_config_rejects_a_negative_seed_after_the_seed_override():
    with pytest.raises(ConfigError, match="seed"):
        pl.resolve_config(seed=-1)
    assert pl.resolve_config({"seed": "-1"}, seed=2)["seed"] == 2


def test_resolve_config_rejects_unparseable_value():
    with pytest.raises(ConfigError, match="cannot parse"):
        pl.resolve_config({"train.steps": "many"})


@given(key=st.sampled_from(sorted(pl.DEFAULTS)),
       value=st.one_of(st.text(), st.integers().map(str), st.floats().map(str)))
@settings(max_examples=300, deadline=None)
def test_any_set_pair_builds_every_config_or_is_a_config_error(small_vocab, key, value):
    """``--set key=value`` with any key and any text: the resolved config
    builds the encoder, the three train sections and the loss, or a
    ConfigError says why not."""
    try:
        cfg = pl.resolve_config(overrides={key: value})
        pl.encoder_config(cfg, small_vocab)
        for section in ("pretrain", "train", "distill"):
            pl.train_config(cfg, section, cfg["seed"])
        pl.loss_config(cfg)
    except ConfigError:
        pass


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


def test_load_model_opens_an_ensemble_manifest_once(data_dir, pair_dir, monkeypatch):
    cfg = pl.resolve_config({"data.corpus": f"{data_dir}/corpus.txt",
                             "data.sts_dev": f"{data_dir}/sts_dev.tsv"})
    ws = pl.load_workspace(cfg)
    opened, real_open = [], open

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recording_open)
    model = pl.load_model(str(pair_dir / "ensemble.manifest"), ws)
    monkeypatch.undo()
    assert len(model.encoders) == 2
    assert opened.count(str(pair_dir / "ensemble.manifest")) == 1


# -- evaluation requests ---------------------------------------------------

@pytest.fixture(params=["dev+test", "dev"])
def eval_setup(request, small_data, small_vocab, small_config, synonyms):
    """A workspace with or without a test set, and an untrained pair."""
    corpus, dev, test = small_data
    ws = pl.Workspace(corpus=corpus, sts_dev=dev,
                      sts_test=test if request.param == "dev+test" else None,
                      vocab=small_vocab, synonyms=synonyms)
    model = EnsembleModel([Encoder(small_config, seed=1, name="I"),
                           Encoder(small_config, seed=2, name="II")])
    return ws, model


def test_run_eval_embeds_each_distinct_sentence_once(eval_setup, eval_rows):
    ws, model = eval_setup
    pl.run_eval({}, ws, model)
    pairs = ws.sts_dev + (ws.sts_test or [])
    wanted = list(dict.fromkeys(s for p in pairs for s in (p.sentence_a, p.sentence_b)))
    assert len(wanted) < 2 * len(pairs)
    ids = make_batch(ws.vocab, wanted, model.encoders[0].config.max_seq_len)
    expected = sorted(map(tuple, ids.tolist()))
    assert sorted(eval_rows) == ["I", "II"]
    for rows in eval_rows.values():
        assert sorted(rows) == expected


def test_run_eval_equals_the_per_call_metrics(eval_setup):
    """The reference embeds each request as one batch, repeats included, with
    no memo shared between requests."""
    ws, model = eval_setup
    max_len = model.encoders[0].config.max_seq_len

    def embed(sentences):
        return _member_sums(model.encoders, [make_batch(ws.vocab, sentences, max_len)])[0]

    positives = [p for p in ws.sts_dev if p.gold_score >= 4.0]
    assert positives
    expected = {"spearman.dev": sts_eval(embed, ws.sts_dev)}
    if ws.sts_test:
        expected["spearman.test"] = sts_eval(embed, ws.sts_test)
    expected["spearman.avg"] = float(np.mean(list(expected.values())))
    expected["alignment"] = alignment(embed([p.sentence_a for p in positives]),
                                      embed([p.sentence_b for p in positives]))
    expected["uniformity"] = uniformity(
        embed(list(dict.fromkeys(p.sentence_a for p in ws.sts_dev))))
    assert pl.run_eval({}, ws, model).to_kv() == expected


# -- independent runs ------------------------------------------------------

@pytest.fixture
def fake_dual_runs(monkeypatch):
    """Stand-ins for the pretrain pair and the dual run; ``fail`` maps a
    (seed, loss terms) pair to the exception its dual run raises, and each
    other run validates at 0.1 before training and at seed / 10 after."""
    fail = {}
    monkeypatch.setattr(pl, "run_pretrain_pair", lambda cfg, ws, out_dir: ("I", "II"))

    def run_tncse(cfg, ws, prefix_i, prefix_ii, out_dir):
        exc = fail.get((cfg["seed"], cfg["loss.terms"]))
        if exc is not None:
            raise exc
        rho = cfg["seed"] / 10.0
        return None, SimpleNamespace(evals=[(0, 0.1)], best_spearman=rho)

    monkeypatch.setattr(pl, "run_tncse", run_tncse)
    return fail


def test_run_significance_rows_summary_and_csv(fake_dual_runs, tmp_path):
    rows, summary = pl.run_significance(pl.resolve_config(), None, str(tmp_path))
    assert rows == [(1, 0.1), (2, 0.2), (3, 0.3), (4, 0.4), (5, 0.5)]
    assert summary["mean"] == pytest.approx(0.3)
    assert summary["min"] == pytest.approx(0.1)
    assert summary["max"] == pytest.approx(0.5)
    assert summary["std"] == pytest.approx(np.std([0.1, 0.2, 0.3, 0.4, 0.5]))
    assert (tmp_path / "significance.csv").read_text() == (
        "seed,val_spearman\n1,0.100000\n2,0.200000\n3,0.300000\n4,0.400000\n"
        "5,0.500000\nmean,0.300000\nstd,0.141421\nmin,0.100000\nmax,0.500000\n")


def test_run_significance_finds_a_blocked_run_directory_before_any_run(
        fake_dual_runs, monkeypatch, tmp_path):
    (tmp_path / "seed_4").write_text("x")
    monkeypatch.setattr(pl, "run_pretrain_pair",
                        lambda cfg, ws, out_dir: pytest.fail("a run started"))
    with pytest.raises(ConfigError) as info:
        pl.run_significance(pl.resolve_config(), None, str(tmp_path))
    assert str(info.value) == (f"significance run seed 4 failed: output file "
                               f"{tmp_path / 'seed_4' / 'encoder_I.bin'}: File exists")


# a TncseError keeps its class, and so its CLI exit status; any other
# exception becomes a TncseError
RUN_FAILURES = [(ValueError, TncseError), (DataError, DataError)]


@pytest.mark.parametrize("raised, expected", RUN_FAILURES)
def test_run_significance_names_a_failed_seed(fake_dual_runs, tmp_path, raised,
                                              expected):
    cfg = pl.resolve_config()
    fake_dual_runs[(2, cfg["loss.terms"])] = raised("exploded")
    with pytest.raises(expected,
                       match="significance run seed 2 failed: exploded") as info:
        pl.run_significance(cfg, None, str(tmp_path))
    assert type(info.value) is expected


@pytest.mark.parametrize("raised, expected", RUN_FAILURES)
def test_run_ablation_names_a_failed_subset(fake_dual_runs, tmp_path, raised,
                                            expected):
    cfg = pl.resolve_config()
    fake_dual_runs[(cfg["seed"], "ICTN")] = raised("exploded")
    with pytest.raises(expected, match="ablation run ICTN failed: exploded") as info:
        pl.run_ablation(cfg, None, str(tmp_path))
    assert type(info.value) is expected


# -- CLI behavior ----------------------------------------------------------

def test_gen_data_writes_corpus_sts_and_run_records(data_dir):
    for name in ("corpus.txt", "sts_dev.tsv", "sts_test.tsv",
                 "resolved-config.txt", "run-metadata.txt"):
        assert (data_dir / name).exists(), name
    meta = (data_dir / "run-metadata.txt").read_text()
    assert "command gen-data" in meta and "seed 1" in meta


# two steps, validating after each, in every training section
SMALL_BUDGETS = [f"{section}.{key}={value}"
                 for section in ("pretrain", "train", "distill")
                 for key, value in (("steps", 2), ("eval_interval", 1))]


# each command, its settings and the run-metadata keys it adds after version
COMMAND_RECORDS = [
    ("gen-data", [], ["sentences", "pairs"]),
    ("pretrain", [], ["encoder_i", "encoder_ii"]),
    ("train", ["train.encoder_i={pair}/encoder_I", "train.encoder_ii={pair}/encoder_II"],
     ["best_step", "best_val_spearman"]),
    ("train-single-tn", [], ["best_step", "best_val_spearman"]),
    ("distill", ["distill.teacher={pair}/ensemble.manifest"],
     ["probe_loss_step0", "probe_loss_best", "spearman_untrained", "spearman_best"]),
    ("eval", ["eval.checkpoint={pair}/ensemble.manifest"], []),
    ("norm-probe", ["probe.checkpoint={pair}/encoder_I"], ["rows"]),
    ("ablate", [], ["rows"]),
    ("significance", [], ["mean", "std", "min", "max"]),
    ("grad-check", [], ["checks", "all_passed"]),
]


@pytest.mark.parametrize("command, settings, keys", COMMAND_RECORDS,
                         ids=[command for command, _, _ in COMMAND_RECORDS])
def test_every_command_writes_its_run_records(data_dir, pair_dir, tmp_path, capsys,
                                              command, settings, keys):
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--seed", "4"] + data_args(data_dir)
    for s in SMALL_BUDGETS + settings:
        argv += ["--set", s.format(pair=pair_dir)]
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.strip()
    assert (out / "resolved-config.txt").read_text().startswith("data.corpus = ")
    lines = (out / "run-metadata.txt").read_text().splitlines()
    assert lines[:4] == [f"command {command}", "seed 4", "precision float32",
                         f"version {__version__}"]
    assert [line.split(" ", 1)[0] for line in lines[4:]] == keys


# each command that reads a checkpoint key, and the checkpoints it names
NAMED_CHECKPOINTS = [
    ("train", {"train.encoder_i": "encoder_I", "train.encoder_ii": "encoder_II"}),
    ("eval", {"eval.checkpoint": "encoder_I"}),
    ("eval", {"eval.checkpoint": "ensemble"}),
    ("distill", {"distill.teacher": "encoder_I"}),
    ("distill", {"distill.teacher": "ensemble"}),
    ("norm-probe", {"probe.checkpoint": "encoder_I"}),
]


@pytest.mark.parametrize("suffix", ["", ".manifest"], ids=["prefix", "manifest-path"])
@pytest.mark.parametrize("command, names", NAMED_CHECKPOINTS,
                         ids=[f"{c}-{'-'.join(n.values())}" for c, n in NAMED_CHECKPOINTS])
def test_every_checkpoint_key_takes_a_prefix_or_a_manifest_path(
        data_dir, pair_dir, tmp_path, capsys, command, names, suffix):
    argv = [command, "--out", str(tmp_path / "out")] + data_args(data_dir)
    for s in SMALL_BUDGETS + [f"{key}={pair_dir}/{name}{suffix}"
                              for key, name in names.items()]:
        argv += ["--set", s]
    assert main(argv) == 0, capsys.readouterr().err


@pytest.mark.parametrize("suffix", ["", ".manifest"], ids=["prefix", "manifest-path"])
@pytest.mark.parametrize("command, settings", [
    ("norm-probe", ["probe.checkpoint={ensemble}"]),
    ("train", ["train.encoder_i={ensemble}", "train.encoder_ii={pair}/encoder_II"]),
], ids=["norm-probe", "train"])
def test_an_ensemble_named_where_one_encoder_is_expected_exits_4_with_one_line(
        data_dir, pair_dir, tmp_path, capsys, command, settings, suffix):
    argv = [command, "--out", str(tmp_path / "out")] + data_args(data_dir)
    for s in SMALL_BUDGETS + settings:
        argv += ["--set", s.format(pair=pair_dir, ensemble=f"{pair_dir}/ensemble{suffix}")]
    capsys.readouterr()
    assert main(argv) == 4
    assert capsys.readouterr().err.splitlines() == [
        f"checkpoint-error: {pair_dir}/ensemble.manifest: an ensemble manifest, "
        "not one encoder"]


def test_a_failed_gradient_check_exits_5_after_writing_its_records(
        monkeypatch, tmp_path, capsys):
    failed = SimpleNamespace(passed=False, name="broken", worst_error=1.0, detail="")
    monkeypatch.setattr(cli, "run_gradient_suite", lambda: [failed])
    out = tmp_path / "grad"
    assert main(["grad-check", "--out", str(out)]) == 5
    text = "FAIL broken worst_rel_err=1.000e+00 \n"
    assert capsys.readouterr().out == text
    assert (out / "grad_check.txt").read_text() == text
    assert (out / "run-metadata.txt").read_text().splitlines()[-2:] == [
        "checks 1", "all_passed False"]
    assert (out / "resolved-config.txt").exists()


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
    # a one-sentence batch trains nothing: InfoNCE has no negatives, the
    # distill loss no off-diagonal pair
    ("pretrain", ["pretrain.batch_size=1"]),
    ("train", ["train.encoder_i={pair}/encoder_I", "train.encoder_ii={pair}/encoder_II",
               "train.batch_size=1"]),
    pytest.param("train-single-tn", ["pretrain.batch_size=1"],
                 id="train-single-tn-pretrain.batch_size=1"),
    ("distill", ["distill.teacher={pair}/ensemble.manifest", "distill.batch_size=1"]),
    ("ablate", ["train.batch_size=1"]),
    pytest.param("train", ["train.encoder_i={pair}/missing", "train.encoder_ii={pair}/missing",
                           "train.batch_size=1"], id="train-missing-checkpoints-batch_size=1"),
    ("pretrain", ["loss.tau=0"]),
    ("train", ["train.encoder_i={pair}/encoder_I", "train.encoder_ii={pair}/encoder_II",
               "loss.terms="]),
    ("distill", ["distill.teacher={pair}/ensemble.manifest", "distill.steps=10"]),
    ("distill", ["distill.teacher={pair}/ensemble.manifest", "distill.eval_interval=0"]),
    ("eval", ["eval.checkpoint={pair}/encoder_I", "data.sts_dev={pair}/missing.tsv"]),
    ("eval", ["eval.checkpoint={pair}/encoder_I", "data.sts_test={pair}/missing.tsv"]),
    ("pretrain", ["encoder.num_heads=0"]),
    ("pretrain", ["encoder.num_layers=0"]),
    ("pretrain", ["encoder.hidden_dim=0"]),
    ("pretrain", ["encoder.num_heads=1", "encoder.hidden_dim=1"]),
    ("train-single-tn", ["encoder.hidden_dim=1", "encoder.num_heads=1"]),
    ("pretrain", ["encoder.max_seq_len=1"]),
    ("pretrain", ["encoder.dropout_p=1.5"]),
    ("gen-data", ["seed=-1"]),
    ("train", ["train.encoder_i={pair}/encoder_I", "train.encoder_ii={pair}/encoder_II",
               "train.lr=-1"]),
    ("train", ["train.encoder_i={pair}/encoder_I", "train.encoder_ii={pair}/encoder_II",
               "train.lr=nan"]),
    ("pretrain", ["loss.tau=nan"]),
    ("pretrain", ["loss.tau=inf"]),
    # keys that no longer exist
    ("gen-data", ["encoder.pooling_mode=cls"]),
    ("gen-data", ["data.max_vocab=10"]),
    ("gen-data", ["loss.sim_clamp_eps=0.001"]),
    ("gen-data", ["loss.norm_eps=0"]),
    ("gen-data", ["distill.objective=regression"]),
    ("gen-data", ["probe.sentences=50"]),
    ("gen-data", ["pretrain.augment_p=0.5"]),
    ("gen-data", ["train.single_tn_weight=0.3"]),
    ("gen-data", ["probe.strip_counts=0,4"]),
    ("pretrain", ["data.corpus={pair}"]),
    ("gen-data", "out is a file"),
    ("gen-data", "out is below a file"),
    ("gen-data", "out name is too long"),
    ("gen-data", "config is not UTF-8"),
], ids=lambda v: v if isinstance(v, str) else v[-1].replace("{pair}/", ""))
def test_cli_config_mistakes_exit_2_with_one_line(data_dir, pair_dir, tmp_path,
                                                  capsys, command, settings):
    out = tmp_path / "out"
    extra = []
    if settings == "config is not UTF-8":
        config = tmp_path / "cfg.txt"
        config.write_bytes(b"seed = \xff\n")
        extra = ["--config", str(config)]
    elif settings == "out name is too long":
        out = tmp_path / ("x" * 300)
    elif isinstance(settings, str):
        out.write_text("x")
        if settings == "out is below a file":
            out = out / "sub"
    argv = [command, "--out", str(out)] + extra + data_args(data_dir)
    for s in [] if isinstance(settings, str) else settings:
        argv += ["--set", s.format(pair=pair_dir)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config-error: "), err
    if not isinstance(settings, str) and settings[-1].endswith("batch_size=1"):
        # found before the output directory is made or a run starts
        assert err == ["config-error: batch_size must be >= 2, got 1"]
        assert not out.exists()


def test_cli_non_finite_loss_exits_5_with_one_line(data_dir, tmp_path, capsys):
    """numpy's overflow warnings do not precede the message.  A subprocess
    sees them on stderr; pytest's warning capture would hide them.  The failed
    run records its config but no run metadata, and its directory is not empty."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = tmp_path / "pre"
    argv = (["pretrain", "--out", str(out)] + data_args(data_dir)
            + ["--set", "pretrain.lr=1e30", "--set", "pretrain.steps=4",
               "--set", "pretrain.eval_interval=2"])
    proc = subprocess.run([sys.executable, "-m", "tncse.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 5
    assert proc.stderr.splitlines() == [
        "numeric-error: pretrain run I failed: non-finite loss term nce_i at step 2"]
    assert "pretrain.lr = 1e+30" in (out / "resolved-config.txt").read_text().splitlines()
    assert not (out / "run-metadata.txt").exists()
    assert main(argv) == 2
    assert "use --force" in capsys.readouterr().err


def test_cli_non_finite_dual_loss_prints_no_worker_warning(data_dir, pair_dir, tmp_path):
    """Encoder II's passes run in a worker process under the caller's
    ``np.errstate``, so its overflow prints no warning either."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    argv = (["train", "--out", str(tmp_path / "train")] + data_args(data_dir)
            + ["--set", f"train.encoder_i={pair_dir}/encoder_I",
               "--set", f"train.encoder_ii={pair_dir}/encoder_II",
               "--set", "train.lr=1e30", "--set", "train.steps=4",
               "--set", "train.eval_interval=2"])
    proc = subprocess.run([sys.executable, "-m", "tncse.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 5
    assert proc.stderr.splitlines() == [
        "numeric-error: non-finite loss term nce_i at step 2"]


@pytest.mark.parametrize("command, first", [("pretrain", "pretrain run I failed: "),
                                            ("train-single-tn", ""), ("train", "")])
def test_cli_zero_norm_training_row_exits_5_with_one_line(data_dir, tmp_path, capsys,
                                                          command, first):
    """At dropout 0.99 a training view loses every unit of some row, which
    has no direction for a loss to compare: a numeric error naming the step
    and the trainlog column.  ``train`` takes the dropout of its checkpoints."""
    settings = SMALL_BUDGETS + ["encoder.dropout_p=0.99"]
    if command == "train":
        cfg = pl.resolve_config({"data.corpus": f"{data_dir}/corpus.txt",
                                 "data.sts_dev": f"{data_dir}/sts_dev.tsv",
                                 "encoder.dropout_p": "0.99"})
        ws = pl.load_workspace(cfg)
        for which, name in ((1, "I"), (2, "II")):
            prefix = str(tmp_path / f"encoder_{name}")
            ckpt.save_encoder(pl.new_encoder(cfg, ws, 1, which, name), prefix)
            settings.append(f"train.encoder_{name.lower()}={prefix}")
    argv = [command, "--out", str(tmp_path / "out")] + data_args(data_dir)
    for s in settings:
        argv += ["--set", s]
    capsys.readouterr()
    assert main(argv) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"numeric-error: {first}"), err
    assert err[0].endswith("has a zero-norm row in nce_i at step 1"), err


def test_cli_missing_checkpoint_exits_4(data_dir, tmp_path, capsys):
    rc = main(["eval", "--out", str(tmp_path / "ev")] + data_args(data_dir)
              + ["--set", f"eval.checkpoint={tmp_path}/nothing"])
    assert rc == 4
    assert "checkpoint-error:" in capsys.readouterr().err


def test_cli_eval_on_a_broken_manifest_exits_4_with_one_line(data_dir, pair_dir,
                                                             tmp_path, capsys):
    manifest = pair_dir / "encoder_II.manifest"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    manifest.write_text("".join(f"{line}\n" for line in lines
                                if not line.startswith("tensor pooler_w ")),
                        encoding="utf-8")
    capsys.readouterr()
    rc = main(["eval", "--out", str(tmp_path / "ev")] + data_args(data_dir)
              + ["--set", f"eval.checkpoint={pair_dir}/ensemble.manifest"])
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("checkpoint-error: "), err
    assert "pooler_w" in err[0]


def test_cli_eval_on_a_format_version_2_manifest_exits_4_with_one_line(
        data_dir, pair_dir, tmp_path, capsys):
    as_format_version_2(str(pair_dir / "encoder_I"))
    capsys.readouterr()
    rc = main(["eval", "--out", str(tmp_path / "ev")] + data_args(data_dir)
              + ["--set", f"eval.checkpoint={pair_dir}/ensemble.manifest"])
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert err == [f"checkpoint-error: {pair_dir}/encoder_I.manifest: "
                   "unsupported format-version '2'"], err


def test_cli_train_from_a_manifest_with_a_negative_seed_exits_4_with_one_line(
        data_dir, pair_dir, tmp_path, capsys):
    # the blob SHA-256 does not cover the manifest, so the loader checks the seed
    manifest = pair_dir / "encoder_I.manifest"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    manifest.write_text("".join("seed -5\n" if line.startswith("seed ") else f"{line}\n"
                                for line in lines), encoding="utf-8")
    capsys.readouterr()
    rc = main(["train", "--out", str(tmp_path / "tr")] + data_args(data_dir)
              + ["--set", f"train.encoder_i={pair_dir}/encoder_I",
                 "--set", f"train.encoder_ii={pair_dir}/encoder_II",
                 "--set", "train.steps=2", "--set", "train.eval_interval=1"])
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("checkpoint-error: "), err
    assert f"{manifest}: seed -5" in err[0]


@pytest.mark.parametrize("directory, checkpoint", [
    ("encoder_II.manifest", "ensemble.manifest"),
    ("encoder_II.bin", "ensemble.manifest"),
    ("encoder_II.manifest", "encoder_II"),   # read by model_members first
])
def test_cli_eval_on_a_checkpoint_file_that_is_a_directory_exits_4_with_one_line(
        data_dir, pair_dir, tmp_path, capsys, directory, checkpoint):
    path = pair_dir / directory
    path.unlink()
    path.mkdir()
    capsys.readouterr()
    rc = main(["eval", "--out", str(tmp_path / "ev")] + data_args(data_dir)
              + ["--set", f"eval.checkpoint={pair_dir}/{checkpoint}"])
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("checkpoint-error: "), err
    assert str(path) in err[0]


@pytest.mark.parametrize("command, blocked", [
    ("gen-data", "corpus.txt"),
    ("eval", "report.txt"),
    ("gen-data", "resolved-config.txt"),
    ("eval", "resolved-config.txt"),
    ("pretrain", "encoder_I.bin"),
])
def test_cli_output_file_that_is_a_directory_exits_2_with_one_line(
        data_dir, pair_dir, tmp_path, capsys, command, blocked):
    """Like an output directory that cannot be created; a failed checkpoint
    write leaves no temp file behind."""
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    argv = [command, "--out", str(out), "--force"] + data_args(data_dir)
    argv += {"eval": ["--set", f"eval.checkpoint={pair_dir}/ensemble.manifest"],
             "pretrain": ["--set", "pretrain.steps=2", "--set", "pretrain.eval_interval=1"],
             }.get(command, [])
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config-error: "), err
    assert f"output file {out / blocked}: Is a directory" in err[0]
    assert not list(out.glob("*.tmp"))


def test_cli_ablate_into_a_blocked_run_directory_exits_2_with_one_line(
        data_dir, tmp_path, capsys):
    """A file where a loss subset's run directory goes is a blocked output
    file, not a failed run."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "subset_NCE").write_text("x")
    argv = ["ablate", "--out", str(out), "--force"] + data_args(data_dir)
    for s in SMALL_BUDGETS:
        argv += ["--set", s]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config-error: ablation run NCE failed: output file "
                   f"{out / 'subset_NCE' / 'encoder_I.bin'}: File exists"], err
    # found before the pretrained pair trains
    assert not list(out.rglob("*.bin")) and not list(out.rglob("*.manifest"))


@pytest.mark.parametrize("argv", [["gen-data", "--seed", "x"], ["gen-data", "--bogus"], []],
                         ids=["bad-value", "unknown-flag", "no-command"])
def test_cli_argument_errors_exit_2_with_one_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("config-error: "), err
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_cli_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_cli_eval_on_mixed_hidden_dims_exits_3_with_one_line(data_dir, pair_dir,
                                                             tmp_path, capsys):
    cfg = pl.resolve_config({"data.corpus": f"{data_dir}/corpus.txt",
                             "data.sts_dev": f"{data_dir}/sts_dev.tsv",
                             "encoder.hidden_dim": "32"})
    ws = pl.load_workspace(cfg)
    ckpt.save_encoder(pl.new_encoder(cfg, ws, 1, 3, "N"), str(pair_dir / "encoder_N"))
    ckpt.save_ensemble_manifest(["encoder_I", "encoder_N"],
                                str(pair_dir / "mixed.manifest"))
    capsys.readouterr()
    rc = main(["eval", "--out", str(tmp_path / "ev")] + data_args(data_dir)
              + ["--set", f"eval.checkpoint={pair_dir}/mixed.manifest"])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data-error: "), err
    assert "differ in hidden_dim: [32, 64]" in err[0]


@pytest.mark.parametrize("key, value, expected", [
    ("encoder.hidden_dim", "32", "differ in hidden_dim: [32, 64]"),
    ("encoder.max_seq_len", "24", "differ in max_seq_len: [16, 24]"),
])
def test_cli_train_on_encoders_of_different_shapes_exits_3_with_one_line(
        data_dir, pair_dir, tmp_path, capsys, key, value, expected):
    cfg = pl.resolve_config({"data.corpus": f"{data_dir}/corpus.txt",
                             "data.sts_dev": f"{data_dir}/sts_dev.tsv", key: value})
    ws = pl.load_workspace(cfg)
    ckpt.save_encoder(pl.new_encoder(cfg, ws, 1, 2, "II"), str(pair_dir / "encoder_N"))
    capsys.readouterr()
    rc = main(["train", "--out", str(tmp_path / "tr")] + data_args(data_dir)
              + ["--set", f"train.encoder_i={pair_dir}/encoder_I",
                 "--set", f"train.encoder_ii={pair_dir}/encoder_N",
                 "--set", "train.steps=2", "--set", "train.eval_interval=1"])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data-error: "), err
    assert expected in err[0]


def test_cli_distill_with_a_student_of_another_length_succeeds(
        data_dir, pair_dir, tmp_path):
    """The teacher embeds at its own length, 16; the student at 24."""
    out = tmp_path / "ds"
    rc = main(["distill", "--out", str(out)] + data_args(data_dir)
              + ["--set", f"distill.teacher={pair_dir}/ensemble.manifest",
                 "--set", "encoder.max_seq_len=24", "--set", "encoder.hidden_dim=32",
                 "--set", "distill.steps=2", "--set", "distill.eval_interval=1"])
    assert rc == 0
    manifest = (out / "student.manifest").read_text().splitlines()
    assert "config max_seq_len 24" in manifest


def test_cli_corrupt_sts_file_exits_3(data_dir, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tb\tnot-a-number\n")
    rc = main(["eval", "--out", str(tmp_path / "ev"),
               "--set", f"data.corpus={data_dir}/corpus.txt",
               "--set", f"data.sts_dev={bad}"])
    assert rc == 3
    assert "data-error:" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["data.corpus", "data.sts_dev"])
def test_cli_non_utf8_data_file_exits_3_with_one_line(data_dir, tmp_path, capsys,
                                                      key):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("the caf\xe9 sits near the park\tthe caf\xe9\t4.0\n"
                    .encode("latin-1"))
    capsys.readouterr()
    rc = main(["pretrain", "--out", str(tmp_path / "pre")] + data_args(data_dir)
              + ["--set", f"{key}={bad}"])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data-error: "), err
    assert str(bad) in err[0]


def test_cli_eval_without_checkpoint_exits_2(data_dir, tmp_path):
    assert main(["eval", "--out", str(tmp_path / "ev")] + data_args(data_dir)) == 2


def test_cli_default_out_dir_env_root(data_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("TNCSE_OUT_ROOT", str(tmp_path / "root"))
    assert main(["gen-data", "--seed", "1"]) == 0
    runs = os.listdir(tmp_path / "root")
    assert len(runs) == 1 and runs[0].startswith("gen-data-")


@pytest.mark.parametrize("preset, first", [(None, "tncse"), ("2", "tncse"), (None, "numpy")],
                         ids=["None", "2", "numpy-first"])
def test_importing_tncse_defaults_blas_to_one_thread(preset, first):
    """A fresh process that imports tncse before numpy runs its GEMMs on one
    BLAS thread, unless OPENBLAS_NUM_THREADS was set.  Imported after numpy,
    whose OpenBLAS has fixed its thread count by then, tncse leaves the
    variable unset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    second = "numpy" if first == "tncse" else "tncse"
    script = (f"import os, {first}, {second}\n"
              "import numpy as np\n"
              "a = np.ones((512, 512), np.float32)\n"
              "a @ a\n"
              "t = '/proc/self/task'\n"
              "tasks = len(os.listdir(t)) if os.path.isdir(t) else 1\n"
              "print(os.environ.get('OPENBLAS_NUM_THREADS'), tasks)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    value, tasks = proc.stdout.split()
    if first == "numpy":
        assert value == "None"
    elif preset is None:
        assert (value, tasks) == ("1", "1")
    else:
        assert value == preset


def test_importing_tncse_loads_no_scipy():
    """Only the tests and the benchmark need scipy; where it is installed, a
    fresh process that imports the package and its CLI loads none of it."""
    pytest.importorskip("scipy")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    script = ("import sys, tncse, tncse.cli, tncse.pipeline\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
    csv = (probe / "norm_probe.csv").read_text().splitlines()
    assert csv[0].startswith("stripped,")
    assert [int(line.split(",")[0]) for line in csv[1:]] == list(
        range(0, 2 * pl.DEFAULTS["encoder.num_layers"] + 1))


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
