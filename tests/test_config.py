"""Config-file parsing."""

import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("pairs, key", [
        ([("model", "runs/#3/m.ckpt")], "model"),
        ([("class.A=B.sensitivity", "1.0")], "class.A=B.sensitivity"),
        ([("data", "runs/a\nb = 1")], "data"),
        ([("data", "ends in a space ")], "data"),
        ([(" padded", "1")], " padded"),
        ([("", "1")], ""),
        ([("a", 1), ("a", 2)], "a"),
    ])
    def test_format_refuses_a_pair_that_would_not_read_back(self, pairs, key):
        with pytest.raises(ConfigError, match=f"key {key!r}"):
            format_kv(pairs)

    # characters that end a line, start a comment, split a pair or are stripped
    _TRICKY = st.sampled_from("ab=# \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2028")
    _TEXT = st.text(_TRICKY | st.characters(), max_size=5)

    @given(st.lists(st.tuples(st.text(st.sampled_from("ab=# \n"), max_size=3) | _TEXT,
                              _TEXT), max_size=4))
    @example([("model", "runs/#3/m.ckpt"), ("class.A=B.sensitivity", "1.0")])
    def test_format_accepts_exactly_the_pairs_that_read_back(self, pairs):
        """A pair list is accepted exactly when its lines, written plainly,
        read back as the same pairs in the same order; what is accepted
        reads back as written, and what is not raises ``ConfigError``."""
        plain = "".join(f"{key} = {value}\n" for key, value in pairs)
        try:
            reads_back = list(parse_kv(plain).items()) == pairs
        except ConfigError:
            reads_back = False
        if reads_back:
            text = format_kv(pairs)
            assert text == plain
            assert list(parse_kv(text).items()) == pairs
        else:
            with pytest.raises(ConfigError):
                format_kv(pairs)


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        run = parse_config_text("")
        assert run.arch.n_stages == 2
        assert run.train.phi == 0.5
        assert run.train.mode == "joint"

    def test_values_applied(self):
        run = parse_config_text("epochs = 7\nphi = 0.25\nmode = backbone\n")
        assert (run.train.epochs, run.train.phi, run.train.mode) == (7, 0.25, "backbone")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'momentum'"):
            parse_config_text("momentum = 0.9\n")

    def test_type_error_names_key(self):
        with pytest.raises(ConfigError, match="'epochs' needs a int"):
            parse_config_text("epochs = soon\n")

    @pytest.mark.parametrize("key,value,kind", [
        ("epochs", "1_0", "int"), ("epochs", "\u0663", "int"),
        ("phi", "\u0660.5", "float"), ("lr", "1_0e-4", "float"),
        ("seed", "\uff17", "int")])
    def test_number_that_is_not_ascii_without_underscores_rejected(self, key, value, kind):
        """Python reads ``1_0`` as 10 and other scripts' digits as their
        values; a config number is ASCII without underscores."""
        with pytest.raises(ConfigError, match=f"config: key '{key}' needs a {kind}, "
                                              f"got '{value}'"):
            parse_config_text(f"{key} = {value}\n")

    @pytest.mark.parametrize("key,value,expected", [("epochs", "+3", 3), ("lr", "1E-3", 1e-3),
                                                    ("seed", "007", 7)])
    def test_sign_exponent_and_leading_zeros_read(self, key, value, expected):
        assert getattr(parse_config_text(f"{key} = {value}\n").train, key) == expected

    def test_negative_number_reaches_the_range_check(self):
        with pytest.raises(ConfigError, match="^config: epochs must be >= 1, got -3$"):
            parse_config_text("epochs = -3\n")

    def test_range_error_names_the_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lr = 0.001\nepochs = -3\n", encoding="utf-8")
        with pytest.raises(ConfigError) as caught:
            parse_config(path)
        assert str(caught.value) == f"{path}: epochs must be >= 1, got -3"

    def test_cross_field_validation_runs(self):
        with pytest.raises(ConfigError, match="input_size"):
            parse_config_text("n_stages = 3\ninput_size = 20\n")

    def test_huge_n_stages_rejected_before_the_power(self):
        """2^(n_stages+1) of this n_stages would need about 2^40 bits; the
        bound is checked first, so nothing large is allocated."""
        with pytest.raises(ConfigError, match=r"2\^1000000000001, got 32"):
            parse_config_text("n_stages = 1000000000000\n")

    def test_n_stages_past_the_print_limit_rejected(self):
        """n_stages + 1 here has 4,301 digits, one more than Python will
        convert to text; the message names the power instead of printing
        it."""
        with pytest.raises(ConfigError, match=r"2\^\(n_stages\+1\), got 32"):
            parse_config_text("n_stages = " + "9" * 4300 + "\n")

    @pytest.mark.parametrize("value", ["inf", "1e999", "nan"])
    def test_non_finite_lr_rejected(self, value):
        with pytest.raises(ConfigError, match="lr must be >= 1e-07 and finite"):
            parse_config_text(f"lr = {value}\n")

    def test_non_positive_input_size_rejected(self):
        with pytest.raises(ConfigError, match="input_size must be a positive multiple"):
            parse_config_text("input_size = -64\n")

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
            replace(run, train=replace(run.train, mode="both"))
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
