"""Run configuration: defaults, flat key=value config files, and flag
overrides with file < flag precedence."""
import math
from dataclasses import dataclass, fields, replace

from .basis import N_SITES_CAP
from .errors import ConfigError
from .hamiltonian import DENSE_DIM_CAP

EXPERIMENTS = (
    "eigenket-scan",
    "shell-average",
    "volume-law",
    "gamma-fit",
    "degeneracy-census",
    "property-suite",
)

CACHE_POLICIES = ("use", "rebuild", "off")
FORMATS = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment run depends on."""

    experiment: str = ""
    n_sites: int = 16
    n_up: int = 8
    delta2_list: tuple[float, ...] = (0.0, 0.5)
    n_bins: int = 50
    min_shell_count: int = 10
    l1: int = 6
    l1_range: tuple[int, ...] | None = None
    seed: int = 42
    out_dir: str = "out"
    cache: str = "use"
    format: str = "csv"
    bits: bool = False

    def volume_law_range(self) -> tuple[int, ...]:
        """l1 sweep: l1_range when set, else the default 1..N/2.

        parse_config promotes an explicitly given l1 into a one-point
        l1_range for volume-law runs.
        """
        if self.l1_range is not None:
            return self.l1_range
        return tuple(range(1, self.n_sites // 2 + 1))


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from None


def _parse_int_list(key: str, raw: str) -> tuple[int, ...]:
    return tuple(_parse_int(key, tok.strip()) for tok in raw.split(",") if tok.strip())


def _parse_float_list(key: str, raw: str) -> tuple[float, ...]:
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(float(tok))
        except ValueError:
            raise ConfigError(f"key {key!r}: expected a float, got {tok!r}") from None
    return tuple(out)


def _parse_bool(key: str, raw: str) -> bool:
    if raw in ("1", "true"):
        return True
    if raw in ("0", "false"):
        return False
    raise ConfigError(f"key {key!r}: expected 0, 1, true or false, got {raw!r}")


_FILE_PARSERS = {
    "experiment": lambda k, v: v,
    "n_sites": _parse_int,
    "n_up": _parse_int,
    "delta2_list": _parse_float_list,
    "n_bins": _parse_int,
    "min_shell_count": _parse_int,
    "l1": _parse_int,
    "l1_range": _parse_int_list,
    "seed": _parse_int,
    "out_dir": lambda k, v: v,
    "cache": lambda k, v: v,
    "format": lambda k, v: v,
    "bits": _parse_bool,
}


def read_config_file(path: str) -> dict:
    """Parse a flat `key = value` file; unknown keys fail, never ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FILE_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = _FILE_PARSERS[key](key, raw)
    return out


def validate(cfg: RunConfig) -> RunConfig:
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {cfg.experiment!r}; choose from {', '.join(EXPERIMENTS)}"
        )
    if not 2 <= cfg.n_sites <= N_SITES_CAP:
        raise ConfigError(f"n_sites={cfg.n_sites} out of range [2, {N_SITES_CAP}]")
    if not 0 <= cfg.n_up <= cfg.n_sites:
        raise ConfigError(f"n_up={cfg.n_up} out of range [0, {cfg.n_sites}]")
    if cfg.experiment != "property-suite":
        # Every table needs a dense solve of sector n_up; the census solves
        # sectors up to n_up = N // 2, the largest of them.
        n_up = cfg.n_sites // 2 if cfg.experiment == "degeneracy-census" else cfg.n_up
        dim = math.comb(cfg.n_sites, n_up)
        if dim > DENSE_DIM_CAP:
            raise ConfigError(
                f"sector n_sites={cfg.n_sites}, n_up={n_up} has dim {dim}, "
                f"above the dense eigensolver cap {DENSE_DIM_CAP}"
            )
        # One state has no spread of energies to bin and ln D = 0 in
        # gamma_predicted; the census ignores n_up.
        dim = math.comb(cfg.n_sites, cfg.n_up)
        if dim < 2 and cfg.experiment != "degeneracy-census":
            raise ConfigError(
                f"sector n_sites={cfg.n_sites}, n_up={cfg.n_up} has dim {dim}; "
                f"{cfg.experiment} needs at least 2 states"
            )
    if not cfg.delta2_list:
        raise ConfigError("delta2_list is empty")
    names: dict[str, float] = {}
    for d2 in cfg.delta2_list:
        if not math.isfinite(d2):
            raise ConfigError(f"delta2 value {d2!r} is not finite")
        # Output tables and cache files are named by f"{d2:g}"; two
        # couplings with one name would overwrite each other.
        name = f"{d2:g}"
        if name in names:
            raise ConfigError(
                f"delta2 values {names[name]!r} and {d2!r} both render as "
                f"{name!r} in file names; give distinct couplings"
            )
        names[name] = d2
    if cfg.seed < 0:
        # numpy seeds each check's stream with [seed, i]: no negative entry.
        raise ConfigError(f"seed={cfg.seed} must be >= 0")
    if cfg.n_bins < 1:
        raise ConfigError(f"n_bins={cfg.n_bins} must be >= 1")
    if cfg.min_shell_count < 1:
        raise ConfigError(f"min_shell_count={cfg.min_shell_count} must be >= 1")
    if not 1 <= cfg.l1 <= cfg.n_sites - 1:
        raise ConfigError(f"l1={cfg.l1} out of range [1, {cfg.n_sites - 1}]")
    if cfg.l1_range is not None:
        if not cfg.l1_range:
            raise ConfigError("l1_range is empty")
        if len(set(cfg.l1_range)) != len(cfg.l1_range):
            # Each entry is one volume-law row; a repeat would scan twice
            # and write two rows for one l1.
            raise ConfigError(f"l1_range {list(cfg.l1_range)} repeats an entry")
        for l1 in cfg.l1_range:
            if not 1 <= l1 <= cfg.n_sites - 1:
                raise ConfigError(
                    f"l1_range entry {l1} out of range [1, {cfg.n_sites - 1}]"
                )
    if cfg.cache not in CACHE_POLICIES:
        raise ConfigError(f"cache={cfg.cache!r}; choose from {', '.join(CACHE_POLICIES)}")
    if cfg.format not in FORMATS:
        raise ConfigError(f"format={cfg.format!r}; choose from {', '.join(FORMATS)}")
    if not cfg.out_dir:
        raise ConfigError("out_dir is empty")
    return cfg


def parse_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Merge defaults, config file, and flag overrides (flags win).

    `overrides` holds only keys the caller explicitly set.  Setting both l1
    and l1_range anywhere is a conflict.
    """
    overrides = dict(overrides or {})
    file_values = read_config_file(path) if path else {}
    merged = {**file_values, **overrides}
    unknown = set(merged) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    user_l1 = "l1" in merged
    if user_l1 and "l1_range" in merged:
        raise ConfigError("l1 and l1_range are mutually exclusive; set one")
    # The stock defaults (n_sites=16, n_up=8, l1=6) describe the half-filled
    # Sz=0 sector with a subsystem two sites under half the chain; keep both
    # couplings when only n_sites is given.
    if "n_sites" in merged and "n_up" not in merged:
        merged["n_up"] = merged["n_sites"] // 2
    if merged.get("experiment") == "volume-law" and user_l1:
        merged["l1_range"] = (merged["l1"],)
    if "n_sites" in merged and not user_l1:
        merged["l1"] = max(1, merged["n_sites"] // 2 - 2)
    if "l1_range" in merged:
        merged["l1_range"] = tuple(merged["l1_range"])
    if "delta2_list" in merged:
        # -0.0 + 0.0 is 0.0: a signed zero is coupling 0, named "0".
        merged["delta2_list"] = tuple(float(x) + 0.0 for x in merged["delta2_list"])
    cfg = replace(RunConfig(), **merged)
    return validate(cfg)
