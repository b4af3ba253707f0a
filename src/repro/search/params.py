"""GA parameter file (§3.2.4).

The optimization algorithm is configured by a parameter file: population,
genetic operators, generations and constraints.  A default file is provided
(values chosen empirically, as in the paper); the programmer can amend it
and point the pipeline at the edited copy, or select a custom objective
function registered via :func:`repro.search.objective.register_objective`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..errors import ConfigError, SearchError
from .penalty import PenaltyParams


_ISLANDS = "the island model was removed in 4.0 and the search runs one population"

#: parameters of deleted mechanisms -> (the values earlier versions wrote
#: for them by default, ``None``: any value; what was removed).
#: Parameter files, config files and ``repro.service/1`` requests written
#: by those versions still carry them.  The evaluation pool and second
#: fitness cache (``fitness_cache`` / ``workers`` / ``executor``) never
#: changed a result, so any value is dropped; the island model's knobs
#: did, so only their old defaults are (a config's top level wrote
#: ``null``).
RETIRED_GA_FIELDS: Dict[str, Tuple[Optional[Tuple[Any, ...]], str]] = {
    "fitness_cache": (None, ""),
    "workers": (None, ""),
    "executor": (None, ""),
    "islands": ((1, None), _ISLANDS),
    "migration_interval": ((5, None), _ISLANDS),
    "migration_size": ((2, None), _ISLANDS),
}


def drop_retired(
    name: str,
    value: Any,
    retired: Mapping[str, Tuple[Optional[Tuple[Any, ...]], str]] = RETIRED_GA_FIELDS,
) -> bool:
    """True when ``name`` is a ``retired`` parameter whose ``value`` loads
    as if absent; False when ``name`` is not retired.  Any other value of
    a retired parameter raises :class:`ConfigError` naming the removal."""
    if name not in retired:
        return False
    defaults, removal = retired[name]
    if defaults is None or value in defaults:
        return True
    raise ConfigError(f"{name}={value!r}: {removal}; drop {name!r}")


@dataclass
class GAParams:
    """Parameters of the grouped genetic algorithm."""

    population: int = 100
    generations: int = 500
    tournament_size: int = 3
    crossover_rate: float = 0.8
    #: probability of each mutation operator per offspring
    mutate_merge: float = 0.30
    mutate_split: float = 0.15
    mutate_move: float = 0.20
    mutate_fission: float = 0.10
    #: elite individuals copied unchanged each generation
    elitism: int = 2
    seed: int = 12345
    objective: str = "projected_gflops"
    #: stop early when the best fitness has not improved for this many
    #: generations (0 disables early stopping)
    stall_generations: int = 0
    #: fraction of bred offspring admitted to exact fitness evaluation
    #: after the analytic-model-only surrogate ranking pass (1.0 disables
    #: the pre-filter and is bit-identical to the classic GGA)
    surrogate_topk: float = 1.0
    penalties: PenaltyParams = field(default_factory=PenaltyParams)

    def write(self, path: Union[str, Path]) -> None:
        lines = ["# GA parameter file (amend and pass back to the framework)"]
        for f in fields(self):
            if f.name == "penalties":
                continue
            lines.append(f"{f.name} = {getattr(self, f.name)!r}")
        for f in fields(self.penalties):
            lines.append(f"penalty.{f.name} = {getattr(self.penalties, f.name)!r}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def read(cls, path: Union[str, Path]) -> "GAParams":
        params = cls()
        penalty_kwargs = {}
        for raw in Path(path).read_text().splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SearchError(f"malformed parameter line: {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key.startswith("penalty."):
                penalty_kwargs[key[len("penalty."):]] = float(value)
                continue
            if drop_retired(key, _literal(value)):
                continue
            if not hasattr(params, key):
                raise SearchError(f"unknown GA parameter {key!r}")
            current = getattr(params, key)
            if isinstance(current, bool):
                setattr(params, key, value in ("True", "true", "1"))
            elif isinstance(current, int):
                setattr(params, key, int(value))
            elif isinstance(current, float):
                setattr(params, key, float(value))
            else:
                setattr(params, key, value.strip("'\""))
        if penalty_kwargs:
            params.penalties = PenaltyParams(**penalty_kwargs)
        return params


def _literal(value: str) -> Any:
    """A parameter-file value as :meth:`GAParams.write` wrote it."""
    try:
        return ast.literal_eval(value)
    except (ValueError, SyntaxError):
        return value


def default_params() -> GAParams:
    """The default parameter set (paper: 500 generations, population 100)."""
    return GAParams()


def fast_params(seed: int = 12345) -> GAParams:
    """Reduced parameters for interactive runs / CI (documented deviation:
    the paper's C++/OpenMP GGA runs 500x100 in ~11 min; the pure-Python
    reproduction defaults to a smaller budget with early stopping)."""
    return GAParams(
        population=36,
        generations=60,
        stall_generations=15,
        seed=seed,
    )
