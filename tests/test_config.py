"""Config-file parsing."""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from jointnet import ConfigError, RunConfig, parse_config, parse_config_text
from jointnet.kvio import format_kv, parse_kv

README = Path(__file__).resolve().parent.parent / "README.md"


class TestKvLines:
    def test_comments_and_blanks_ignored(self):
        values = parse_kv("# header\n\nlr = 0.1  # inline\n")
        assert values == {"lr": "0.1"}

    def test_duplicate_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="2: duplicate key 'a'"):
            parse_kv("a = 1\na = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_kv("just words\n")

    def test_format_round_trips(self):
        pairs = [("alpha", 1), ("beta", "x y")]
        assert parse_kv(format_kv(pairs)) == {"alpha": "1", "beta": "x y"}


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        run = parse_config_text("")
        assert run.arch.n_stages == 2
        assert run.train.phi == 0.5
        assert run.mode == "joint"

    def test_values_applied(self):
        run = parse_config_text("epochs = 7\nphi = 0.25\nmode = backbone\n")
        assert (run.train.epochs, run.train.phi, run.mode) == (7, 0.25, "backbone")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'momentum'"):
            parse_config_text("momentum = 0.9\n")

    def test_type_error_names_key(self):
        with pytest.raises(ConfigError, match="'epochs' needs a int"):
            parse_config_text("epochs = soon\n")

    def test_cross_field_validation_runs(self):
        with pytest.raises(ConfigError, match="input_size"):
            parse_config_text("n_stages = 3\ninput_size = 20\n")

    def test_pairs_resolve_floats_via_repr(self):
        pairs = dict(parse_config_text("lr = 0.0001\n").pairs())
        assert pairs["lr"] == "0.0001"
        assert pairs["epochs"] == 30

    def test_pairs_order_pinned(self):
        """The train log header lists these pairs in this order; it follows
        the field order of ArchConfig, then TrainConfig, then mode."""
        assert parse_config_text("").pairs() == [
            ("n_stages", 2), ("input_channels", 3), ("input_size", 32),
            ("base_channels", 8), ("n_classes", 3), ("phi", "0.5"),
            ("lr", "0.0001"), ("kappa", "0.1"), ("patience", 4),
            ("epochs", 30), ("batch_size", 4), ("seed", 0), ("folds", 5),
            ("mode", "joint")]

    def test_replace_validates(self):
        run = parse_config_text("")
        with pytest.raises(ConfigError, match="mode"):
            replace(run, mode="both")
        with pytest.raises(ConfigError, match="phi"):
            replace(run, train=replace(run.train, phi=2.0))

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"epochs = 3\nphi = 0.\xff\n")
        with pytest.raises(ConfigError, match=r"run\.cfg: config is not UTF-8 at byte 19"):
            parse_config(path)


class TestReadmeTable:
    def test_defaults_match_config(self):
        """README's config table lists every key with its default, in
        RunConfig order."""
        text = README.read_text(encoding="utf-8")
        table = re.search(r"^\| key +\| default +\|.*\n\|-[-|]*\n((?:\|.*\n)+)",
                          text, flags=re.MULTILINE)
        rows = [tuple(cell.strip() for cell in line.split("|")[1:3])
                for line in table.group(1).splitlines()]
        assert rows == [(key, str(value)) for key, value in RunConfig().pairs()]
