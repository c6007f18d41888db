import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedmpq.checkpoint import write_checkpoint
from fedmpq.cli import build_parser, main
from fedmpq.config import (
    OVERRIDE_KEYS,
    ConfigError,
    apply_overrides,
    parse_config,
    parse_config_text,
    serialize_config,
)
from fedmpq.data import IDX_PATHS as IDX_KEYS
from fedmpq.quant import plane_density, quantize
from fedmpq.simulation import ExperimentConfig, read_partition, run_experiment

SRC = Path(__file__).resolve().parent.parent / "src"
BLOBS = SRC.parent / "configs" / "blobs.ini"

MINIMAL = """
[experiment]
algorithm = fp32
clients = 1
participation = 1.0
rounds = 1
budgets = 8
alpha = 0.5
seed = 0

[train]
local_epochs = 1
batch_size = 16

[model]
kind = mlp
hidden = 8

[data]
kind = blobs
train_samples = 120
test_samples = 40
features = 5
classes = 3
cluster_std = 1.0
"""


class TestConfigParsing:
    def test_defaults_round_trip(self):
        config = ExperimentConfig()
        text = serialize_config(config)
        assert parse_config_text(text) == config

    def test_minimal_parses(self):
        config = parse_config_text(MINIMAL)
        assert config.algorithm == "fp32"
        assert config.clients == 1
        assert config.budgets == (8,)

    def test_parse_serialize_parse_identity(self):
        config = parse_config_text(MINIMAL)
        again = parse_config_text(serialize_config(config))
        assert again == config

    def test_unknown_key_is_named_with_line(self):
        bad = MINIMAL + "\nwrong_key = 3\n"
        with pytest.raises(ConfigError, match="wrong_key"):
            parse_config_text(bad)
        try:
            parse_config_text(bad)
        except ConfigError as exc:
            assert "line" in str(exc)

    def test_unknown_section_rejected(self):
        # configparser would merge [DEFAULT]'s keys into every section.
        for text, section in (
            (MINIMAL + "\n[mystery]\nx = 1\n", "mystery"),
            ("[DEFAULT]\nseed = 3\n" + MINIMAL, "DEFAULT"),
        ):
            with pytest.raises(ConfigError) as err:
                parse_config_text(text)
            assert str(err.value) == f"unknown section [{section}]"

    def test_bad_value_reports_key(self):
        bad = MINIMAL.replace("alpha = 0.5", "alpha = fast")
        with pytest.raises(ConfigError, match="alpha"):
            parse_config_text(bad)

    def test_validation_errors_surface(self):
        bad = MINIMAL.replace("alpha = 0.5", "alpha = -1")
        with pytest.raises(ConfigError, match="alpha"):
            parse_config_text(bad)

    @pytest.mark.parametrize("key, value", [("channels", "4,0"), ("kernel_size", "0")])
    def test_conv_sizes_below_one_rejected(self, key, value):
        bad = MINIMAL.replace("kind = mlp", f"kind = conv\n{key} = {value}")
        with pytest.raises(ConfigError, match="at least 1"):
            parse_config_text(bad)

    # SHA-256 prefixes of serialize_config's text. It is the manifest's
    # `config`, so any change to it changes every run's `config_sha256`.
    @pytest.mark.parametrize(
        "source, flags, digest",
        [
            (None, {}, "f88eaf5f1a4ce788"),
            (BLOBS, {}, "18efbfeb79c13599"),
            (
                BLOBS,
                {
                    "seed": "2",
                    "algorithm": "aqfl",
                    "partition": "x.json",
                    "learning_rate": "0.05",
                },
                "c4fa19c04f910bc3",
            ),
        ],
        ids=["defaults", "blobs", "blobs-with-flags"],
    )
    def test_serialized_text_is_pinned(self, source, flags, digest):
        config = ExperimentConfig() if source is None else parse_config_text(source.read_text(), flags)
        assert hashlib.sha256(serialize_config(config).encode()).hexdigest()[:16] == digest

    def test_overrides_rewrite_keys(self):
        text = apply_overrides(MINIMAL, {"alpha": "0.25", "budgets": "2,2,4,4,4,6,6,6,8,8", "clients": "10"})
        config = parse_config_text(text)
        assert config.alpha == 0.25
        assert config.budgets == (2, 2, 4, 4, 4, 6, 6, 6, 8, 8)


# flag, raw value, the dataclass it lands in (None: ExperimentConfig itself),
# and the parsed value; each differs from MINIMAL's.
FLAG_CASES = [
    ("algorithm", "aqfl", None, "aqfl"),
    ("clients", "2", None, 2),
    ("participation", "0.25", None, 0.25),
    ("rounds", "4", None, 4),
    ("budgets", "4", None, (4,)),
    ("alpha", "0.25", None, 0.25),
    ("seed", "7", None, 7),
    ("fpq_bits", "4", None, 4),
    ("use_bit_reallocation", "off", None, False),
    ("local_epochs", "2", "train", 2),
    ("learning_rate", "0.05", "train", 0.05),
    ("lasso_coeff", "0.5", "train", 0.5),
    ("prune_threshold", "0.1", "train", 0.1),
    ("partition", "x.json", "data", "x.json"),
]


def test_flag_cases_cover_every_override_flag():
    assert [case[0] for case in FLAG_CASES] == list(OVERRIDE_KEYS)


@pytest.mark.parametrize("flag, raw, section, value", FLAG_CASES, ids=[c[0] for c in FLAG_CASES])
def test_override_flag_sets_its_field(flag, raw, section, value):
    def field(config):
        return getattr(config if section is None else getattr(config, section), flag)

    assert field(parse_config_text(MINIMAL)) != value
    # Two clients need two budgets.
    companion = {"budgets": "8,8"} if flag == "clients" else {}
    assert field(parse_config_text(MINIMAL, {flag: raw, **companion})) == value


@pytest.mark.parametrize("how", ["ini", "flag", "serialized"])
def test_prune_threshold_none(how, tmp_path):
    # "none" is the one way to turn MSB pruning off.
    if how == "ini":
        config = parse_config_text(MINIMAL.replace("batch_size = 16", "batch_size = 16\nprune_threshold = none"))
    elif how == "flag":
        path = tmp_path / "exp.ini"
        path.write_text(MINIMAL)
        assert main(["run", str(path), "--out", str(tmp_path / "o"), "--prune-threshold", "none"]) == 0
        config = parse_config_text(json.loads((tmp_path / "o" / "manifest.json").read_text())["config"])
    else:
        text = serialize_config(parse_config_text(MINIMAL, {"prune_threshold": "none"}))
        assert "prune_threshold = none" in text.splitlines()
        config = parse_config_text(text)
    assert config.train.prune_threshold is None


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(MINIMAL)
    return path


class TestCmdRun:
    def test_minimal_run_exits_zero_with_one_metrics_row(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out)]) == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + one round
        assert (out / "rounds.jsonl").exists()
        assert (out / "checkpoints/final.fmpq").exists()
        # The manifest lists every file the run wrote, apart from itself.
        listed = json.loads((out / "manifest.json").read_text())["files"]
        written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert sorted(listed) == sorted(written - {"manifest.json"})

    def test_seed_past_32_bits_runs(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out), "--seed", "99999999999"]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 99999999999
        assert len((out / "metrics.csv").read_text().strip().splitlines()) == 2

    def test_override_flags_accepted(self, config_file, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "run",
                str(config_file),
                "--out",
                str(out),
                "--alpha",
                "0.5",
                "--clients",
                "10",
                "--budgets",
                "2,2,4,4,4,6,6,6,8,8",
                "--algorithm",
                "aqfl",
                "--rounds",
                "1",
                "--seed",
                "7",
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["algorithm"] == "aqfl"
        assert manifest["seed"] == 7
        assert manifest["budgets"] == [2, 2, 4, 4, 4, 6, 6, 6, 8, 8]

    @pytest.mark.parametrize("command", ["run", "partition"])
    def test_every_override_key_has_a_flag(self, command):
        for flag in OVERRIDE_KEYS:
            argv = [command, "exp.ini", "--out", "o", "--" + flag.replace("_", "-"), "v"]
            assert getattr(build_parser().parse_args(argv), flag) == "v"

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(MINIMAL + "\nmystery_key = 1\n")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "mystery_key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, entry",
        [([], "mystery = 3"), (["--seed", "2"], "mystery = 3"), ([], "Mystery = 3"), ([], "mystery: 3")],
        ids=["file", "with-flag", "capitalised", "colon"],
    )
    def test_unknown_key_line_is_the_file_line(self, tmp_path, capsys, flags, entry):
        text = MINIMAL + f"\n{entry}\n"
        path = tmp_path / "bad.ini"
        path.write_text(text)
        line = text.splitlines().index(entry) + 1
        assert main(["run", str(path), "--out", str(tmp_path / "o"), *flags]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: unknown key 'mystery' in section [data] (line {line})\n"

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("train", "scale_policy", "range-covering"),
            ("data", "feature_scale", "1.0"),
            ("experiment", "use_lasso", "true"),
            ("experiment", "use_msb_pruning", "true"),
        ],
        ids=["scale_policy", "feature_scale", "use_lasso", "use_msb_pruning"],
    )
    def test_removed_key_is_unknown(self, tmp_path, capsys, section, key, value):
        # Keys the config no longer has fail as unknown, even at what was their default.
        entry = f"{key} = {value}"
        text = MINIMAL.replace(f"[{section}]\n", f"[{section}]\n{entry}\n")
        path = tmp_path / "old.ini"
        path.write_text(text)
        line = text.splitlines().index(entry) + 1
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: unknown key '{key}' in section [{section}] (line {line})\n"
        assert not (tmp_path / "o").exists()

    def test_bad_flag_value_names_the_flag(self, config_file, tmp_path, capsys):
        assert main(["run", str(config_file), "--out", str(tmp_path / "o"), "--seed", "x"]) == 2
        err = capsys.readouterr().err
        assert "bad value for 'seed' in section [experiment] (--seed)" in err
        assert "line" not in err

    def test_manifest_config_round_trips(self, config_file, tmp_path):
        out = tmp_path / "out"
        main(["run", str(config_file), "--out", str(out), "--seed", "9"])
        manifest = json.loads((out / "manifest.json").read_text())
        config = parse_config_text(manifest["config"])
        assert config.seed == 9
        assert serialize_config(config) == manifest["config"]

    def test_library_run_writes_the_cli_manifest(self, config_file, tmp_path):
        assert main(["run", str(config_file), "--out", str(tmp_path / "cli"), "--seed", "9"]) == 0
        run_experiment(parse_config(config_file, {"seed": "9"}), tmp_path / "lib")
        manifests = [(tmp_path / d / "manifest.json").read_bytes() for d in ("cli", "lib")]
        assert manifests[0] == manifests[1]


class TestCmdInspect:
    def test_uniform_four_bit_average(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        layers = [quantize(rng.normal(size=(6, 5)), 4), quantize(rng.normal(size=(3, 2)), 4)]
        path = tmp_path / "m.fmpq"
        write_checkpoint(path, layers)
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "average bit-width: 4.000" in out

    def test_densities_match_plane_density(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        layer = quantize(rng.normal(size=(4, 4)), 3)
        path = tmp_path / "m.fmpq"
        write_checkpoint(path, [layer])
        main(["inspect", str(path)])
        out = capsys.readouterr().out
        for d in plane_density(layer):
            assert f"{d:.4f}" in out

    def test_truncated_checkpoint_fails(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        path = tmp_path / "m.fmpq"
        write_checkpoint(path, [quantize(rng.normal(size=(4, 4)), 3)])
        path.write_bytes(path.read_bytes()[:-2])
        assert main(["inspect", str(path)]) == 1
        assert "truncated" in capsys.readouterr().err


class TestCmdPartition:
    def partition_args(self, config_file, out, extra=()):
        return ["partition", str(config_file), "--out", str(out), *extra]

    def test_same_seed_identical_files(self, config_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        common = ["--clients", "4", "--budgets", "2,4,6,8"]
        assert main(self.partition_args(config_file, a, common)) == 0
        assert main(self.partition_args(config_file, b, common)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_client_gets_all_indices(self, config_file, tmp_path):
        out = tmp_path / "p.json"
        assert main(self.partition_args(config_file, out)) == 0
        record = json.loads(out.read_text())
        assert len(record["shards"]) == 1
        assert sorted(record["shards"][0]) == list(range(120))

    def test_lower_alpha_more_skew(self, config_file, tmp_path):
        def mean_tv(path):
            # Mean total-variation distance of client label histograms
            # from uniform; the dataset is deterministic given the config.
            from fedmpq.data import load_dataset

            record = json.loads(path.read_text())
            config = parse_config(config_file)
            data = load_dataset(config.data, record["seed"])
            classes = data.num_classes
            tvs = []
            for shard in record["shards"]:
                hist = np.bincount(data.train_y[np.asarray(shard, dtype=int)], minlength=classes)
                p = hist / hist.sum()
                tvs.append(0.5 * np.abs(p - 1 / classes).sum())
            return float(np.mean(tvs))

        low, high = tmp_path / "low.json", tmp_path / "high.json"
        common = ["--clients", "4", "--budgets", "2,4,6,8"]
        assert main(self.partition_args(config_file, low, common + ["--alpha", "0.1"])) == 0
        assert main(self.partition_args(config_file, high, common + ["--alpha", "10.0"])) == 0
        assert mean_tv(low) > mean_tv(high)

    def test_run_reuses_partition_file(self, config_file, tmp_path):
        shards = tmp_path / "p.json"
        assert main(self.partition_args(config_file, shards)) == 0
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out), "--partition", str(shards)]) == 0

    def test_library_run_reads_the_partition_file(self, tmp_path):
        # A hand-made 119/1 split, which the Dirichlet draw at this seed is not.
        split = tmp_path / "p.json"
        split.write_text(json.dumps({"shards": [list(range(119)), [119]]}))
        text = MINIMAL.replace("clients = 1", "clients = 2").replace("budgets = 8", "budgets = 8,8")
        config_file = tmp_path / "split.ini"
        config_file.write_text(text.replace("algorithm = fp32", "algorithm = aqfl") + f"partition = {split}\n")
        assert main(["run", str(config_file), "--out", str(tmp_path / "cli")]) == 0
        run_experiment(parse_config(config_file), tmp_path / "lib")
        for name in ("metrics.csv", "rounds.jsonl"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes(), name

    def two_client_split_ini(self, folder: Path, partition: str) -> Path:
        folder.mkdir(exist_ok=True)
        text = MINIMAL.replace("clients = 1", "clients = 2").replace("budgets = 8", "budgets = 8,8")
        config_file = folder / "split.ini"
        config_file.write_text(text + f"partition = {partition}\n")
        return config_file

    def test_relative_partition_in_the_ini_is_next_to_it(self, tmp_path, monkeypatch, capsys):
        # relcheck/split.ini names p.json, which sits beside it; the run is
        # started from relcheck's parent folder.
        config_file = self.two_client_split_ini(tmp_path / "relcheck", "p.json")
        (tmp_path / "relcheck" / "p.json").write_text(json.dumps({"shards": [list(range(119)), [119]]}))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "relcheck/split.ini", "--out", "o"]) == 0
        assert parse_config("relcheck/split.ini").data.partition == str(Path("relcheck", "p.json"))
        capsys.readouterr()
        # A flag's path stays relative to the working directory.
        assert main(["run", "relcheck/split.ini", "--out", "o2", "--partition", "p.json"]) == 1
        assert capsys.readouterr().err.startswith("run failed: cannot read partition file p.json:")

    @pytest.mark.parametrize("key", ["partition", *IDX_KEYS])
    def test_ini_paths_resolve_against_the_ini_folder(self, tmp_path, key):
        ini = tmp_path / "sub" / "c.ini"
        ini.parent.mkdir()
        ini.write_text(MINIMAL + f"{key} = data/{key}.bin\n")
        assert getattr(parse_config(ini).data, key) == str(tmp_path / "sub" / "data" / f"{key}.bin")
        # Absolute and empty values are kept as written; an empty one stays unset.
        for value in (str(tmp_path / "abs.bin"), ""):
            ini.write_text(MINIMAL + f"{key} = {value}\n")
            assert getattr(parse_config(ini).data, key) == value

    def test_manifest_names_the_shards(self, tmp_path):
        # Two split files written in turn to one path: the same config text,
        # different shards, different manifests.
        config_file = self.two_client_split_ini(tmp_path, "p.json")
        manifests = []
        for run, shards in enumerate(([list(range(119)), [119]], [list(range(60)), list(range(60, 120))])):
            (tmp_path / "p.json").write_text(json.dumps({"shards": shards}))
            assert main(["run", str(config_file), "--out", str(tmp_path / f"cli{run}")]) == 0
            run_experiment(parse_config(config_file), tmp_path / f"lib{run}")
            cli, lib = ((tmp_path / f"{d}{run}" / "manifest.json").read_bytes() for d in ("cli", "lib"))
            assert cli == lib
            manifest = json.loads(cli)
            assert manifest["shards_sha256"] == hashlib.sha256(json.dumps(shards).encode()).hexdigest()
            manifests.append(manifest)
        assert manifests[0]["config"] == manifests[1]["config"]
        assert manifests[0]["shards_sha256"] != manifests[1]["shards_sha256"]

    def test_manifest_names_dirichlet_shards(self, config_file, tmp_path):
        # A Dirichlet split is named by the same digest as the file
        # `fedmpq partition` writes for it.
        flags = ["--clients", "4", "--budgets", "2,4,6,8"]
        assert main(self.partition_args(config_file, tmp_path / "p.json", flags)) == 0
        assert main(["run", str(config_file), "--out", str(tmp_path / "o"), *flags]) == 0
        shards = json.loads((tmp_path / "p.json").read_text())["shards"]
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["shards_sha256"] == hashlib.sha256(json.dumps(shards).encode()).hexdigest()


class TestCmdCompare:
    def test_tabulates_runs(self, config_file, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["run", str(config_file), "--out", str(out_a)])
        main(["run", str(config_file), "--out", str(out_b), "--seed", "1"])
        capsys.readouterr()
        assert main(["compare", str(out_a), str(out_b)]) == 0
        out = capsys.readouterr().out
        assert "fp32" in out
        assert "medians:" in out


class TestMalformedInputs:
    """Bad partition and IDX files end with one stderr line and exit code 1,
    a bad config with one line and exit code 2."""

    def one_line_error(self, capsys) -> str:
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and "Traceback" not in err
        return err

    def run_with_partition(self, config_file, tmp_path, record, extra=()) -> int:
        shards = tmp_path / "p.json"
        shards.write_text(json.dumps(record))
        out = tmp_path / "o"
        return main(
            ["run", str(config_file), "--out", str(out), "--partition", str(shards), *extra]
        )

    def test_partition_without_shards_key(self, config_file, tmp_path, capsys):
        assert self.run_with_partition(config_file, tmp_path, {"clients": 1}) == 1
        assert "'shards'" in self.one_line_error(capsys)

    def test_partition_index_out_of_range(self, config_file, tmp_path, capsys):
        assert self.run_with_partition(config_file, tmp_path, {"shards": [[0, 1, 99999]]}) == 1
        assert "outside the 120 training samples" in self.one_line_error(capsys)

    @pytest.mark.parametrize(
        "shards, message",
        [
            ([[0, 1, 2, 3, 4], [0, 1, 2, 3, 4]], "training sample 0 is in 2 shards"),
            ([list(range(60)), list(range(61, 120))], "training sample 60 is in 0 shards"),
        ],
        ids=["overlap", "gap"],
    )
    def test_partition_must_split_the_samples(self, config_file, tmp_path, capsys, shards, message):
        two_clients = ["--clients", "2", "--budgets", "8,8"]
        assert self.run_with_partition(config_file, tmp_path, {"shards": shards}, two_clients) == 1
        assert message in self.one_line_error(capsys)
        assert not (tmp_path / "o").exists()

    def test_partition_shard_count_must_match_clients(self, config_file, tmp_path, capsys):
        shards = [list(range(0, 40)), list(range(40, 80)), list(range(80, 120))]
        two_clients = ["--clients", "2", "--budgets", "8,8"]
        assert self.run_with_partition(config_file, tmp_path, {"shards": shards}, two_clients) == 1
        err = self.one_line_error(capsys)
        assert err == "run failed: partition holds 3 shards but the config has 2 clients"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "shards, message",
        [
            ([[i + 0.5 for i in range(120)]], "every shard must be a list of integers"),
            ([[True, *range(2, 60)], [0, *range(60, 120)]], "every shard must be a list of integers"),
            ([[10**20]], "too large"),
        ],
        ids=["floats", "bools", "beyond-int64"],
    )
    def test_partition_indices_must_be_integers(self, config_file, tmp_path, capsys, shards, message):
        # Cast to int64, 0.5 and true would pass as indices 0 and 1.
        flags = ["--clients", str(len(shards)), "--budgets", ",".join(["8"] * len(shards))]
        assert self.run_with_partition(config_file, tmp_path, {"shards": shards}, flags) == 1
        err = self.one_line_error(capsys)
        assert err.startswith("run failed: ") and message in err
        assert not (tmp_path / "o" / "metrics.csv").exists()

    def test_partition_empty_shard_is_int64(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"shards": [[], [0, 1]]}))
        empty, full = read_partition(str(path))
        assert empty.dtype == full.dtype == np.int64 and empty.size == 0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_diverged_run_names_round_and_client(self, config_file, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["run", str(config_file), "--out", str(out), "--rounds", "2", "--learning-rate", "1e100"]
        assert main(args) == 1
        assert "round 1, client 0: trained model is not finite" in self.one_line_error(capsys)
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("algorithm", ["fp32", "fedmpq"])
    def test_diverged_run_prints_only_the_failure(self, config_file, tmp_path, algorithm):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        command = [sys.executable, "-m", "fedmpq.cli", "run", str(config_file), "--out", str(tmp_path / "o"),
                   "--algorithm", algorithm, "--rounds", "2", "--learning-rate", "1e100"]
        proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("run failed: round 1, client 0: ")

    @pytest.mark.parametrize("hidden", ["0", "-3"])
    def test_model_size_below_one(self, tmp_path, capsys, hidden):
        config = tmp_path / "bad.ini"
        config.write_text(MINIMAL.replace("hidden = 8", f"hidden = {hidden}"))
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 2
        assert self.one_line_error(capsys).startswith("config error: ")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("learning_rate", "nan"),
            ("learning_rate", "inf"),
            ("momentum", "-1"),
            ("momentum", "1"),
            ("weight_decay", "nan"),
            ("weight_decay", "inf"),
            ("weight_decay", "-0.1"),
            ("lasso_coeff", "nan"),
            ("lasso_coeff", "inf"),
            ("prune_threshold", "nan"),
            ("prune_threshold", "1.5"),
            ("activation_bits", "0"),
            ("activation_bits", "9"),
        ],
    )
    def test_optimizer_setting_out_of_range(self, tmp_path, capsys, key, value):
        config = tmp_path / "bad.ini"
        config.write_text(MINIMAL.replace("batch_size = 16", f"batch_size = 16\n{key} = {value}"))
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 2
        err = self.one_line_error(capsys)
        assert err.startswith("config error: ") and key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("alpha", "nan"),
            ("alpha", "inf"),
            ("cluster_std", "nan"),
            ("cluster_std", "inf"),
            ("cluster_std", "-1"),
            ("seed", "-1"),
        ],
    )
    def test_data_setting_out_of_range(self, tmp_path, capsys, key, value):
        # Unchecked, each of these fails only later, in the partition, the
        # data or the first gradient, with a line that does not name it.
        config = tmp_path / "bad.ini"
        config.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", MINIMAL, flags=re.MULTILINE))
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 2
        err = self.one_line_error(capsys)
        assert err.startswith("config error: ") and key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", IDX_KEYS)
    def test_idx_path_missing(self, tmp_path, capsys, key):
        # Unchecked, the empty path reads as '.' and the run fails on a
        # directory, with a line that names neither the key nor its section.
        idx = tmp_path / "data.idx"
        idx.write_bytes(b"")
        paths = "".join(f"{k} = {idx}\n" for k in IDX_KEYS if k != key)
        config = tmp_path / "bad.ini"
        config.write_text(MINIMAL.split("[data]")[0] + "[data]\nkind = idx\n" + paths)
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 2
        err = self.one_line_error(capsys)
        assert err.startswith("config error: ") and key in err
        assert not (tmp_path / "o").exists()

    def test_malformed_ini_names_its_file(self, tmp_path, capsys):
        config = tmp_path / "twice.ini"
        config.write_text(MINIMAL.replace("clients = 1", "clients = 1\nclients = 2"))
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 2
        err = self.one_line_error(capsys)
        assert err.startswith("config error: ") and str(config) in err and "'clients'" in err

    def test_partition_out_under_a_file(self, config_file, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["partition", str(config_file), "--out", str(afile / "shards.json")]) == 1
        assert self.one_line_error(capsys).startswith("partition failed: ")

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("metrics.csv", "round,test_accuracy\n", "metrics.csv has no final test_accuracy"),
            ("metrics.csv", "round,test_loss\n1,0.5\n", "metrics.csv has no final test_accuracy"),
            ("manifest.json", "{not json", "unreadable manifest.json"),
        ],
        ids=["no-rows", "no-accuracy-column", "manifest-not-json"],
    )
    def test_compare_skips_unreadable_runs(self, tmp_path, capsys, name, text, message):
        run = tmp_path / "r"
        run.mkdir()
        (run / "metrics.csv").write_text("round,test_accuracy\n1,0.5\n")
        (run / name).write_text(text)
        assert main(["compare", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"skipping {run}: {message}")
        assert "Traceback" not in err

    def test_compare_mixes_runs_with_and_without_manifest(self, tmp_path, capsys):
        # A run without manifest.json is named after its directory, here an
        # algorithm name that a run with a manifest (and an int seed) shares.
        for name, manifest in (("fp32", None), ("r", {"algorithm": "fp32", "seed": 3})):
            (tmp_path / name).mkdir()
            (tmp_path / name / "metrics.csv").write_text("round,test_accuracy\n1,0.5\n")
            if manifest:
                (tmp_path / name / "manifest.json").write_text(json.dumps(manifest))
        assert main(["compare", str(tmp_path / "fp32"), str(tmp_path / "r")]) == 0
        assert "fp32            3" in capsys.readouterr().out

    def test_truncated_idx_header(self, tmp_path, capsys):
        idx = tmp_path / "six.idx"
        idx.write_bytes(b"\x00\x00\x08\x03\x00\x00")
        config = tmp_path / "idx.ini"
        data = "[data]\nkind = idx\n" + "".join(f"{k} = {idx}\n" for k in IDX_KEYS)
        config.write_text(MINIMAL.split("[data]")[0] + data)
        for command in (
            ["run", str(config), "--out", str(tmp_path / "o")],
            ["partition", str(config), "--out", str(tmp_path / "p.json")],
        ):
            assert main(command) == 1
            assert "truncated IDX header" in self.one_line_error(capsys)


# A tiny fedmpq run: 2 clients, 1 round, 40 training samples, hidden 4.
FUZZ_BASE = """[experiment]
algorithm = fedmpq
clients = 2
participation = 1.0
rounds = 1
budgets = 4,8
alpha = 0.5
seed = 0
fpq_bits = 8
use_bit_reallocation = true

[train]
local_epochs = 1
batch_size = 16
learning_rate = 0.1
momentum = 0.9
weight_decay = 0.0005
lasso_coeff = 0.01
prune_threshold = 0.03
activation_bits = 4

[model]
kind = mlp
hidden = 4
channels = 2
kernel_size = 2

[data]
kind = blobs
train_samples = 40
test_samples = 20
features = 4
classes = 2
cluster_std = 1.0
""".splitlines()

FUZZ_VALUES = ("", "-1", "0", "1.5", "nan", "inf", "none", "abc", "true", "2,2", "conv", "idx")

_line = st.integers(0, len(FUZZ_BASE) - 1)
_key_line = st.sampled_from([i for i, line in enumerate(FUZZ_BASE) if "=" in line])
_mutation = st.one_of(
    st.tuples(st.just("drop"), _line),
    st.tuples(st.just("duplicate"), _line),
    st.tuples(st.just("swap"), _line, _line),
    st.tuples(st.just("replace"), _key_line, st.sampled_from(FUZZ_VALUES)),
)


def _mutate(lines: list[str], mutation) -> list[str]:
    """One mutation; indices wrap, since earlier ones may have moved lines."""
    op, i, *rest = mutation
    lines = list(lines)
    i %= len(lines)
    if op == "drop":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "swap":
        j = rest[0] % len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    else:
        key, eq, _ = lines[i].partition("=")
        lines[i] = f"{key}= {rest[0]}" if eq else rest[0]
    return lines


def _small_run(text: str) -> bool:
    """Whether the config fails to parse, or its run is a few seconds at most:
    a dropped line restores a default, and the defaults of rounds, epochs and
    training samples multiply to a run far longer than the base's."""
    try:
        config = parse_config_text(text)
    except ConfigError:
        return True
    return config.rounds * config.train.local_epochs * config.data.train_samples <= 4000


@given(st.lists(_mutation, min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_mutated_config_runs_or_fails_in_one_line(mutations):
    """However a valid INI is mangled, ``fedmpq run`` exits 0, or 2 with one
    ``config error:`` line, or 1 with one ``run failed:`` line; it never raises."""
    lines = FUZZ_BASE
    for mutation in mutations:
        lines = _mutate(lines, mutation)
    text = "\n".join(lines) + "\n"
    assume(_small_run(text))
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "fuzz.ini"
        ini.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(ini), "--out", str(Path(tmp) / "o")])
    lines = err.getvalue().splitlines()
    if code == 0:
        return
    prefix = {2: "config error: ", 1: "run failed: "}.get(code)
    assert prefix is not None, f"exit {code}"
    assert len(lines) == 1 and lines[0].startswith(prefix), (code, lines)
