"""Tests for the ``biggerfish data`` CLI and its runner dispatch."""

import pytest

from repro.data import DatasetConfig, ShardedDataset, build_dataset
from repro.data.cli import main as data_main
from repro.experiments.runner import main as runner_main

CONFIG_ARGS = ["--sites", "3", "--traces", "2", "--trace-seconds", "0.4"]


def test_build_ls_verify(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert data_main(["build", store, *CONFIG_ARGS, "--shard-sites", "2"]) == 0
    out = capsys.readouterr().out
    assert "6 rows" in out

    assert data_main(["ls", store, "--shards"]) == 0
    out = capsys.readouterr().out
    assert "status:         complete" in out
    assert "shard-0000.npz" in out and "shard-0001.npz" in out

    assert data_main(["verify", store]) == 0
    assert "OK" in capsys.readouterr().out


def test_build_resumes(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert data_main(["build", store, *CONFIG_ARGS, "--shard-sites", "1"]) == 0
    capsys.readouterr()
    assert data_main(["build", store, *CONFIG_ARGS, "--shard-sites", "1"]) == 0
    err = capsys.readouterr().err
    assert "skipping" in err


def test_verify_fails_on_corruption(tmp_path, capsys):
    store = tmp_path / "store"
    assert data_main(["build", str(store), *CONFIG_ARGS]) == 0
    shard = store / "shard-0000.npz"
    blob = bytearray(shard.read_bytes())
    blob[-1] ^= 0xFF
    shard.write_bytes(bytes(blob))
    assert data_main(["verify", str(store)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_merge_command(tmp_path, capsys):
    a, b, out = str(tmp_path / "a"), str(tmp_path / "b"), str(tmp_path / "m")
    assert data_main(["build", a, *CONFIG_ARGS]) == 0
    assert data_main(["build", b, *CONFIG_ARGS]) == 0
    assert data_main(["merge", out, a, b]) == 0
    assert "12 rows" in capsys.readouterr().out


def test_config_mismatch_is_usage_error(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert data_main(["build", store, *CONFIG_ARGS]) == 0
    assert data_main(["build", store, "--sites", "5", "--traces", "2"]) == 2
    assert "different" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, jobs_env",
    [
        (["--jobs", "0"], None),
        (["--jobs", "-3"], None),
        (["--retries", "-1"], None),
        (["--task-timeout", "0"], None),
        (["--task-timeout", "nan"], None),
        (["--task-timeout", "inf"], None),
        ([], "abc"),
    ],
    ids=["jobs-zero", "jobs-negative", "retries-negative", "timeout-zero",
         "timeout-nan", "timeout-inf", "jobs-env-garbage"],
)
def test_bad_engine_settings_are_usage_errors(
    tmp_path, capsys, monkeypatch, flags, jobs_env
):
    """Bad engine settings exit 2 with one error line, even for a
    serial build, and nothing is collected."""
    if jobs_env is None:
        monkeypatch.delenv("BIGGERFISH_JOBS", raising=False)
    else:
        monkeypatch.setenv("BIGGERFISH_JOBS", jobs_env)
    store = tmp_path / "store"
    argv = ["build", str(store), "--sites", "2", "--traces", "1",
            "--trace-seconds", "0.2", *flags]
    assert data_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (store / "dataset.json").exists()


def test_ls_on_non_store_fails(tmp_path, capsys):
    assert data_main(["ls", str(tmp_path)]) == 1
    assert "not a dataset store" in capsys.readouterr().err


def test_no_subcommand_prints_help(capsys):
    assert data_main([]) == 2
    assert "build" in capsys.readouterr().out


def test_runner_dispatches_data(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert runner_main(["data", "build", store, *CONFIG_ARGS]) == 0
    assert runner_main(["data", "verify", store]) == 0


def test_train_from_store(tmp_path, capsys):
    from repro.ml.artifact import load_artifact, load_info
    from repro.serve.cli import main as serve_main

    store = tmp_path / "store"
    config = DatasetConfig(n_sites=3, traces_per_site=4, trace_seconds=0.4)
    build_dataset(store, config, shard_sites=1)
    out = tmp_path / "model"
    assert serve_main(["train", "--out", str(out), "--dataset", str(store)]) == 0
    info = load_info(out)
    assert info.provenance["dataset_config"] == config.as_dict()
    assert info.provenance["n_traces"] == 12
    assert sorted(info.classes) == ShardedDataset(store).classes
    # The artifact is usable end to end.
    model = load_artifact(out)
    x, _ = ShardedDataset(store).stacked()
    assert model.predict_proba(x).shape == (12, 3)

