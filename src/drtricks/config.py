"""Run configuration: strict INI-style parsing and semantic digests.

Config files are flat key=value pairs under section headers. Parsing is
strict: an unknown section or key is an error, so typos cannot silently
fall back to defaults. The accepted sections and keys, their types, their
defaults and the tasks that read them all come from the ``RunConfig`` fields.
"""
from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path
from typing import Optional

from .data import SYNTH_DIM, SYNTH_NOISE, SYNTH_SIZE, TASKS
from .models import TrainConfig


class ConfigError(ValueError):
    pass


TTA_MODES = ("none", "rotate")
SEG, ORDINAL = ("segmentation",), ("quality", "grading")


def _ini(section: str, default=MISSING, key: Optional[str] = None, tasks=TASKS):
    """A field set under ``[section]`` by ``key`` (the field name if None).

    The value's type, used to parse the INI text, is the default's type;
    fields without a default or defaulting to None take strings. Only the
    ``tasks`` read the field: under another, a value but the default is an error.
    """
    return field(default=default, metadata={"section": section, "key": key, "tasks": tasks})


def check_task(task: str, setting: str, tasks: tuple[str, ...]) -> None:
    """A ConfigError naming ``setting`` unless ``task`` is one of the ``tasks`` that read it."""
    if task not in tasks:
        raise ConfigError(f"{setting} applies to {' and '.join(tasks)} only, not task {task!r}")


@dataclass(frozen=True)
class RunConfig:
    """One experiment's full settings; seed and output dir come from the CLI."""

    task: str = _ini("run")
    train_path: Optional[str] = _ini("data", None, key="train")
    dev_path: Optional[str] = _ini("data", None, key="dev")
    unlabeled_path: Optional[str] = _ini("data", None, key="unlabeled")
    model_path: Optional[str] = _ini("data", None, key="model")
    predictions_path: Optional[str] = _ini("data", None, key="predictions")
    dim: int = _ini("synth", SYNTH_DIM, tasks=ORDINAL)
    noise: float = _ini("synth", SYNTH_NOISE, tasks=ORDINAL)
    size: int = _ini("synth", SYNTH_SIZE, tasks=SEG)
    n_labeled: int = _ini("synth", 60)
    n_unlabeled: int = _ini("synth", 600, tasks=ORDINAL)
    n_dev: int = _ini("synth", 10, tasks=SEG)
    split_ratio: float = _ini("synth", 0.8, tasks=ORDINAL)
    lr: float = _ini("train", TrainConfig.lr)
    weight_decay: float = _ini("train", TrainConfig.weight_decay)
    batch_size: int = _ini("train", TrainConfig.batch_size)
    epochs: int = _ini("train", TrainConfig.epochs)
    alpha: float = _ini("train", TrainConfig.alpha, tasks=SEG)
    aux: str = _ini("train", TrainConfig.aux, tasks=SEG)
    hidden: int = _ini("train", TrainConfig.hidden, tasks=ORDINAL)
    dropout: float = _ini("train", TrainConfig.dropout, tasks=ORDINAL)
    augment: bool = _ini("train", TrainConfig.augment, tasks=SEG)
    ensemble_k: int = _ini("pipeline", 1)
    rpl_rounds: int = _ini("pipeline", 5, tasks=ORDINAL)
    tta: str = _ini("pipeline", "none", tasks=SEG)
    postprocess: bool = _ini("pipeline", False, tasks=("segmentation", "quality"))

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.tta not in TTA_MODES:
            raise ConfigError(f"unknown tta mode {self.tta!r}; expected one of {TTA_MODES}")
        for name in ("ensemble_k", "rpl_rounds"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError("split_ratio must be in (0, 1)")
        for f in fields(self):
            value, section, key = getattr(self, f.name), f.metadata["section"], f.metadata["key"]
            if value != f.default:
                check_task(self.task, f"[{section}] {key or f.name}", f.metadata["tasks"])
            if section == "data" and value is not None and "\0" in value:
                raise ConfigError(f"[data] {key}: a path cannot hold a NUL byte")

    def train_config(self, seed: int) -> TrainConfig:
        """The [train] settings, each under its own name, and the run's seed."""
        values = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.metadata["section"] == "train"}
        try:
            return TrainConfig(seed=seed, **values)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def digest(self) -> str:
        """Hex digest over every semantic field, in a canonical order.

        The [data] paths are excluded: two runs pointing at different copies
        of the same data are the same experiment.
        """
        payload = {f.name: getattr(self, f.name) for f in fields(self)
                   if f.metadata["section"] != "data"}
        blob = json.dumps(payload, sort_keys=True).encode("ascii")
        return hashlib.sha256(blob).hexdigest()[:16]


def _schema() -> dict[str, dict[str, Field]]:
    """Section -> INI key -> the RunConfig field that key sets."""
    schema: dict[str, dict[str, Field]] = {}
    for f in fields(RunConfig):
        schema.setdefault(f.metadata["section"], {})[f.metadata["key"] or f.name] = f
    return schema


_SCHEMA = _schema()


def _coerce(section: str, key: str, raw: str):
    default = _SCHEMA[section][key].default
    typ = str if default is MISSING or default is None else type(default)
    raw = raw.strip()
    if typ is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def load_config(path: Path | str) -> RunConfig:
    """Parse a config file strictly; unknown sections or keys are errors."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(path.read_text(encoding="utf-8"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}] of {path}")
            values[_SCHEMA[section][key].name] = _coerce(section, key, raw)
    if "task" not in values:
        raise ConfigError(f"config {path} must set task under [run]")
    return RunConfig(**values)
