"""Experiment configuration: INI-style files with strict key validation.

One config file fully determines one experiment.  Sections group the
knobs of each module (grid, weight, stepper, schedule, ...); unknown
sections or keys are rejected with a field-path diagnostic so a typo
cannot silently fall back to a default.  Flag overrides arrive as
"section.key=value" strings and are validated the same way.  KNOWN_KEYS
declares the kind of every key once, and ExperimentConfig.get parses each
value as its kind; the kind is the whole rule for the value.  Every number
is finite except lplq p and q.  The range kinds COUNT (int >= 1), SEED
(int >= 0), POSITIVE (finite float > 0) and NONNEGATIVE (finite float
>= 0) carry their bound, a Choice kind is the set of words a key accepts,
and a record kind, a tuple of (field, kind) pairs, parses each non-empty
line into a tuple of fields.  A list (FINITES or records) is never empty.
A key left unset takes the default of the layer that reads it:
ExperimentConfig.kwargs forwards only the keys a config sets.
"""

from __future__ import annotations

import configparser
import io
import math
from typing import Dict

import numpy as np

from .errors import ConfigError
from .grid import GridSpec, sample
from .weights import PolynomialWeight, get_weight

__all__ = ["KNOWN_KEYS", "ExperimentConfig", "load_config", "config_from_text"]

_REQUIRED = object()

# The kinds of value a key can hold; a parse error names the kind.  A
# record kind is a tuple of (field, kind) pairs, one record per line.
WORD = "word"
INT = "int"
COUNT = "int >= 1"
SEED = "int >= 0"
BOOL = "bool"
FLOAT = "float"            # inf allowed; NaN never parses
FINITE = "finite float"
POSITIVE = "finite float > 0"
NONNEGATIVE = "finite float >= 0"
FINITES = "finite floats"  # whitespace/comma separated
RATE = "oracle or finite float"


class Choice(frozenset):
    """The word kind that accepts only these words."""

    def __str__(self):
        return "one of " + ", ".join(sorted(self))


KNOWN_KEYS = {
    "experiment": {"command": WORD, "description": WORD, "seed": SEED},
    "grid": {"extent": FINITE, "points": INT},
    "weight": {"kind": Choice({"catalog", "polynomial"}), "name": WORD,
               "terms": (("j", INT), ("k", INT), ("re", FINITE),
                         ("im", FINITE))},
    "stepper": {"dt": FINITE, "tol": FINITE, "max_iterations": INT,
                "scheme": Choice({"crank_nicolson", "backward_euler"})},
    "schedule": {"t_final": POSITIVE, "count": COUNT, "snapshots": FINITES},
    "datum": {"kind": Choice({"gaussian", "heavy_tail"}),
              "amplitude": FINITE, "width": POSITIVE,
              "center_re": FINITE, "center_im": FINITE},
    "delta": {"extent": FINITE, "resolution": INT, "refine_rounds": INT,
              "j_max": INT},
    "audit": {"trials": COUNT, "lambda_min": BOOL, "matrix_dump": BOOL},
    "kernel": {"times": FINITES, "source_re": FINITE, "source_im": FINITE,
               "mode": Choice({"general", "polynomial"}),
               "slack": NONNEGATIVE, "tail_floor": NONNEGATIVE},
    "picard": {"m": FINITE, "q": FINITE, "tol": FINITE, "max_iter": INT},
    "perturb": {"m": FINITE, "q": FINITE, "rel_perturbation": FINITE,
                "solver": Choice({"picard", "imex"}), "picard_tol": FINITE,
                "window_lo": POSITIVE, "window_hi": FINITE, "subsample": INT,
                "target_rate": RATE},
    # p or q = inf is the max norm
    "lplq": {"p": FLOAT, "q": FLOAT, "n_probes": COUNT,
             "probe_width": POSITIVE, "window_lo": POSITIVE,
             "window_hi": FINITE, "target_rate": RATE},
    "beta": {"pairs": (("k", FINITE), ("l", FINITE)), "t_values": FINITES},
    "output": {"directory": WORD},
}

_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _parse(text, kind, path):
    """text as a value of the given kind; path names the key in errors."""
    if isinstance(kind, tuple) or kind == FINITES:
        entries = []
        for line in text.splitlines():
            toks = line.replace(",", " ").split()
            if kind == FINITES:
                entries += [_parse(tok, FINITE, path) for tok in toks]
            elif toks:
                if len(toks) != len(kind):
                    raise ConfigError("%s: each record is %r, got %r" % (
                        path, " ".join(name for name, _ in kind),
                        line.strip()))
                entries.append(tuple(
                    _parse(tok, field, "%s %s" % (path, name))
                    for tok, (name, field) in zip(toks, kind)))
        if not entries:
            raise ConfigError("%s: the list has no entry" % path)
        return entries
    if kind == WORD:
        return text.strip()
    try:
        if kind == BOOL:
            return _BOOLS[text.strip().lower()]
        if kind == RATE and text.strip() == "oracle":
            return "oracle"
        if isinstance(kind, Choice):
            if text.strip() not in kind:
                raise ValueError
            return text.strip()
        v = float(text)
        if kind in (INT, COUNT, SEED):
            if (v != int(v) or (kind == COUNT and v < 1)
                    or (kind == SEED and v < 0)):
                raise ValueError
            return int(v)
        if (math.isnan(v) or (kind != FLOAT and math.isinf(v))
                or (kind == POSITIVE and v <= 0)
                or (kind == NONNEGATIVE and v < 0)):
            raise ValueError
        return v
    except (KeyError, ValueError, OverflowError):
        raise ConfigError("%s: cannot parse %r as %s" % (path, text, kind))


class ExperimentConfig:
    """Validated view over one experiment's key = value sections."""

    def __init__(self, data: Dict[str, Dict[str, str]], source="<memory>"):
        self.source = source
        self.data = {}
        for section, keys in data.items():
            if section not in KNOWN_KEYS:
                raise ConfigError("[%s]: unknown section (in %s)"
                                  % (section, source))
            for key in keys:
                if key not in KNOWN_KEYS[section]:
                    raise ConfigError("[%s] %s: unknown key (in %s)"
                                      % (section, key, source))
            self.data[section] = dict(keys)

    def has(self, section, key):
        return section in self.data and key in self.data[section]

    def get(self, section, key, default=_REQUIRED):
        """[section] key parsed as its kind in KNOWN_KEYS; an unset key
        gives default, and with no default it is required."""
        if self.has(section, key):
            return _parse(self.data[section][key], KNOWN_KEYS[section][key],
                          "[%s] %s" % (section, key))
        if default is _REQUIRED:
            raise ConfigError("[%s] %s: required key missing (in %s)"
                              % (section, key, self.source))
        return default

    def kwargs(self, section, *keys, **renamed):
        """{parameter: parsed value} for the keys of section the config
        sets.  Each key in keys names its parameter; renamed maps a
        parameter to its key.  An unset key is left out, so the callee's
        own default applies."""
        params = dict(zip(keys, keys), **renamed)
        return {param: self.get(section, key)
                for param, key in params.items() if self.has(section, key)}

    def set(self, section, key, value):
        if section not in KNOWN_KEYS or key not in KNOWN_KEYS[section]:
            raise ConfigError("[%s] %s: unknown key (override)"
                              % (section, key))
        self.data.setdefault(section, {})[key] = str(value)

    def apply_overrides(self, pairs):
        """pairs: iterable of 'section.key=value' strings."""
        for item in pairs:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ConfigError(
                    "override %r must look like section.key=value" % item)
            path, value = item.split("=", 1)
            section, key = path.split(".", 1)
            self.set(section.strip(), key.strip(), value.strip())

    # -- typed object builders ----------------------------------------
    def grid(self):
        return GridSpec(
            extent=self.get("grid", "extent"),
            points=self.get("grid", "points"),
        )

    def weight(self):
        kind = self.get("weight", "kind", "catalog")
        if kind == "catalog":
            try:
                return get_weight(self.get("weight", "name"))
            except KeyError as exc:
                raise ConfigError("[weight] name: %s" % exc.args[0])
        coeffs = {}
        for j, k, re, im in self.get("weight", "terms"):
            coeffs[(j, k)] = coeffs.get((j, k), 0.0) + complex(re, im)
        name = self.get("weight", "name", "custom_polynomial")
        try:
            return PolynomialWeight(coeffs, name=name)
        except ValueError as exc:
            raise ConfigError("[weight] terms: %s" % exc)

    def stepper(self):
        from .semigroup import StepperConfig  # only stepping commands load it

        return StepperConfig(
            dt=self.get("stepper", "dt"),
            **self.kwargs("stepper", "scheme", "tol", "max_iterations"))

    def schedule(self):
        """Snapshot times including t = 0.

        Either an explicit snapshots list or t_final with a uniform
        interval count.
        """
        snaps = self.get("schedule", "snapshots", None)
        if snaps is not None:
            times = np.array(sorted({0.0, *snaps}))
            if times[0] < 0 or times.size < 2:
                raise ConfigError("[schedule] snapshots: need times >= 0, "
                                  "one of them > 0")
            return times
        return np.linspace(0.0, self.get("schedule", "t_final"),
                           self.get("schedule", "count", 20) + 1)

    def datum(self, spec):
        """Initial field on the grid.

        gaussian:    amplitude * exp(-|z - c|^2 / width^2)
        heavy_tail:  amplitude * (width^2 + |z - c|^2)^(-1/2)
        """
        kind = self.get("datum", "kind", "gaussian")
        amp = self.get("datum", "amplitude", 1.0)
        width = self.get("datum", "width", 1.0)
        center = complex(self.get("datum", "center_re", 0.0),
                         self.get("datum", "center_im", 0.0))
        if kind == "gaussian":
            fn = lambda z: amp * np.exp(-np.abs(z - center) ** 2 / width**2)
        else:
            fn = lambda z: amp * (width**2 + np.abs(z - center) ** 2) ** -0.5
        with np.errstate(all="ignore"):
            u0 = sample(spec, fn)
        if not np.all(np.isfinite(u0.values)):
            raise ConfigError("the %s datum is not finite on the grid nodes"
                              % kind)
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(u0.values)
        if not math.isfinite(norm):
            raise ConfigError("the L^2 norm of the %s datum overflows "
                              "(amplitude %g)" % (kind, amp))
        return u0

    def seed(self):
        """[experiment] seed, else 0."""
        return self.get("experiment", "seed", 0)

    # -- reproduction -------------------------------------------------
    def echo(self):
        """Exact INI text of the validated config for the manifest."""
        cp = configparser.ConfigParser(interpolation=None)
        for section in sorted(self.data):
            cp[section] = {k: self.data[section][k]
                           for k in sorted(self.data[section])}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()


def config_from_text(text, source="<memory>"):
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError("cannot parse %s: %s" % (source, exc))
    data = {s: dict(cp[s]) for s in cp.sections()}
    return ExperimentConfig(data, source=source)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    return config_from_text(text, source=str(path))
