"""Config parsing: defaults, file format, precedence, validation."""
import pytest

from entroscope.cli import main
from entroscope.config import RunConfig, parse_config, read_config_file, validate
from entroscope.errors import ConfigError


def test_defaults():
    cfg = RunConfig(experiment="shell-average")
    assert cfg.n_sites == 16
    assert cfg.n_up == 8
    assert cfg.delta2_list == (0.0, 0.5)
    assert cfg.n_bins == 50
    assert cfg.min_shell_count == 10
    assert cfg.l1 == 6
    assert cfg.seed == 42
    assert cfg.out_dir == "out"
    assert cfg.cache == "use"
    assert cfg.format == "csv"
    assert cfg.bits is False
    assert validate(cfg) is cfg


def test_read_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment line\n"
        "n_sites = 12\n"
        "\n"
        "delta2_list = 0, 0.5, 1.0\n"
        "cache = off\n"
    )
    values = read_config_file(str(p))
    assert values == {
        "n_sites": 12,
        "delta2_list": (0.0, 0.5, 1.0),
        "cache": "off",
    }


def test_flag_overrides_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("n_sites = 16\nn_up = 8\nl1 = 6\nseed = 7\n")
    cfg = parse_config(str(p), {"experiment": "shell-average", "n_sites": 12, "n_up": 6, "l1": 4})
    assert cfg.n_sites == 12
    assert cfg.n_up == 6
    assert cfg.l1 == 4
    assert cfg.seed == 7  # file value survives where no flag given


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("n_sties = 12\n")
    with pytest.raises(ConfigError):
        read_config_file(str(p))


def test_duplicate_key_rejected(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("n_sites = 12\nn_sites = 14\n")
    with pytest.raises(ConfigError):
        read_config_file(str(p))


def test_type_mismatch_rejected(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("n_bins = lots\n")
    with pytest.raises(ConfigError):
        read_config_file(str(p))


def test_missing_file():
    with pytest.raises(ConfigError):
        read_config_file("/nonexistent/run.cfg")


@pytest.mark.parametrize(
    "overrides",
    [
        {"l1": 0},
        {"l1": 16},
        {"n_sites": 1},
        {"n_sites": 25},
        {"n_up": 17},
        {"n_bins": 0},
        {"min_shell_count": 0},
        {"cache": "maybe"},
        {"format": "xml"},
        {"delta2_list": (float("nan"),)},
        {"experiment": "mystery"},
    ],
)
def test_validation_failures(overrides):
    base = {"experiment": "shell-average"}
    base.update(overrides)
    with pytest.raises(ConfigError):
        parse_config(None, base)


@pytest.mark.parametrize(
    "couplings", [(0.1, 0.1000001), (0.5, 0.5), (0.0, 1.0, 1.00000001)]
)
def test_delta2_values_sharing_a_file_name_rejected(couplings):
    # Tables and cache files are named by f"{d2:g}"; a collision would let
    # one coupling overwrite the other.
    with pytest.raises(ConfigError, match="delta2"):
        parse_config(None, {"experiment": "shell-average", "delta2_list": couplings})


def test_delta2_collision_exits_2_before_writing(tmp_path):
    out = tmp_path / "o"
    rc = main(["shell-average", "--n-sites", "6", "--delta2", "0.1",
               "--delta2", "0.1000001", "--cache", "off", "--out", str(out)])
    assert rc == 2
    assert not out.exists() or not any(out.iterdir())


def test_delta2_values_with_distinct_names_accepted():
    cfg = parse_config(
        None, {"experiment": "shell-average", "delta2_list": (0.1, 0.100001, 1e-7)}
    )
    assert cfg.delta2_list == (0.1, 0.100001, 1e-7)


def test_l1_and_range_conflict():
    with pytest.raises(ConfigError):
        parse_config(
            None,
            {"experiment": "volume-law", "l1": 3, "l1_range": (1, 2, 3)},
        )


def test_volume_law_promotes_l1():
    cfg = parse_config(None, {"experiment": "volume-law", "l1": 3})
    assert cfg.l1_range == (3,)
    assert cfg.volume_law_range() == (3,)


def test_volume_law_default_range():
    cfg = parse_config(None, {"experiment": "volume-law", "n_sites": 10})
    assert cfg.l1_range is None
    assert tuple(cfg.volume_law_range()) == (1, 2, 3, 4, 5)


def test_n_sites_override_couples_derived_defaults():
    cfg = parse_config(None, {"experiment": "shell-average", "n_sites": 12})
    assert cfg.n_up == 6
    assert cfg.l1 == 4
    cfg = parse_config(None, {"experiment": "shell-average", "n_sites": 14})
    assert cfg.n_up == 7
    assert cfg.l1 == 5
    # explicit values are never second-guessed
    cfg = parse_config(
        None, {"experiment": "shell-average", "n_sites": 12, "n_up": 4, "l1": 2}
    )
    assert cfg.n_up == 4
    assert cfg.l1 == 2


def test_l1_range_with_small_chain():
    # the unused l1 scalar must not block a valid explicit sweep
    cfg = parse_config(
        None,
        {"experiment": "volume-law", "n_sites": 6, "l1_range": (1, 2)},
    )
    assert cfg.l1_range == (1, 2)
    assert 1 <= cfg.l1 <= 5


def test_l1_range_entries_validated():
    with pytest.raises(ConfigError):
        parse_config(
            None,
            {"experiment": "volume-law", "n_sites": 8, "l1_range": (1, 9)},
        )


def test_experiment_required():
    with pytest.raises(ConfigError):
        parse_config(None, {})
