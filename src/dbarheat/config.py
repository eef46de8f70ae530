"""Experiment configuration: INI-style files with strict key validation.

One config file fully determines one experiment.  Sections group the
knobs of each module (grid, weight, stepper, schedule, ...); unknown
sections or keys are rejected with a field-path diagnostic so a typo
cannot silently fall back to a default.  Flag overrides arrive as
"section.key=value" strings and are validated the same way.
"""

from __future__ import annotations

import configparser
import io
import math
from typing import Dict, List, Optional

import numpy as np

from .errors import ConfigError
from .grid import ComplexField, GridSpec, sample
from .weights import PolynomialWeight, WEIGHT_CATALOG, get_weight

__all__ = ["KNOWN_KEYS", "ExperimentConfig", "load_config", "config_from_text"]

_REQUIRED = object()

KNOWN_KEYS = {
    "experiment": {"command", "description", "seed"},
    "grid": {"extent", "points"},
    "weight": {"kind", "name", "terms"},
    "stepper": {"dt", "scheme", "tol", "max_iterations"},
    "schedule": {"t_final", "count", "snapshots"},
    "datum": {"kind", "amplitude", "width", "center_re", "center_im"},
    "delta": {"extent", "resolution", "refine_rounds", "j_max"},
    "audit": {"trials", "lambda_min", "matrix_dump"},
    "kernel": {"times", "source_re", "source_im", "mode", "slack",
               "tail_floor"},
    "picard": {"m", "q", "tol", "max_iter"},
    "perturb": {"m", "q", "rel_perturbation", "solver", "picard_tol",
                "window_lo", "window_hi", "subsample", "target_rate"},
    "lplq": {"p", "q", "n_probes", "probe_width", "window_lo", "window_hi",
             "model", "target_rate"},
    "beta": {"pairs", "t_values"},
    "output": {"directory"},
}


def _parse_scalar(text, kind, path):
    try:
        if kind in ("float", "finite float"):
            v = float(text)
            if math.isnan(v) or (kind == "finite float" and math.isinf(v)):
                raise ValueError
            return v
        if kind == "int":
            v = float(text)
            if v != int(v):
                raise ValueError
            return int(v)
        if kind == "bool":
            low = text.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError
    except (ValueError, OverflowError):
        raise ConfigError("%s: cannot parse %r as %s" % (path, text, kind))
    raise ConfigError("%s: unknown scalar kind %s" % (path, kind))


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

    # -- raw access ---------------------------------------------------
    def has(self, section, key):
        return section in self.data and key in self.data[section]

    def _raw(self, section, key, default):
        if self.has(section, key):
            return self.data[section][key]
        if default is _REQUIRED:
            raise ConfigError("[%s] %s: required key missing (in %s)"
                              % (section, key, self.source))
        return None

    def get_raw(self, section, key, default=_REQUIRED):
        """Unparsed value, preserving newlines of multi-line records."""
        return self._raw(section, key, default)

    def get_str(self, section, key, default=_REQUIRED):
        raw = self._raw(section, key, default)
        return default if raw is None else raw.strip()

    def get_float(self, section, key, default=_REQUIRED, finite=False):
        """Real value; NaN never parses, and finite=True also refuses inf."""
        raw = self._raw(section, key, default)
        if raw is None:
            return default
        return _parse_scalar(raw, "finite float" if finite else "float",
                             "[%s] %s" % (section, key))

    def get_int(self, section, key, default=_REQUIRED):
        raw = self._raw(section, key, default)
        if raw is None:
            return default
        return _parse_scalar(raw, "int", "[%s] %s" % (section, key))

    def get_bool(self, section, key, default=_REQUIRED):
        raw = self._raw(section, key, default)
        if raw is None:
            return default
        return _parse_scalar(raw, "bool", "[%s] %s" % (section, key))

    def get_floats(self, section, key, default=_REQUIRED, finite=False):
        """Whitespace/comma separated list of reals, checked as get_float."""
        raw = self._raw(section, key, default)
        if raw is None:
            return default
        toks = raw.replace(",", " ").split()
        return [_parse_scalar(t, "finite float" if finite else "float",
                              "[%s] %s" % (section, key))
                for t in toks]

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
            extent=self.get_float("grid", "extent", finite=True),
            points=self.get_int("grid", "points"),
        )

    def weight(self):
        kind = self.get_str("weight", "kind", "catalog")
        if kind == "catalog":
            try:
                return get_weight(self.get_str("weight", "name"))
            except KeyError as exc:
                raise ConfigError("[weight] name: %s" % exc.args[0])
        if kind == "polynomial":
            raw = self.get_raw("weight", "terms")
            coeffs = {}
            for line in raw.splitlines():
                line = line.strip()
                if not line:
                    continue
                toks = line.replace(",", " ").split()
                if len(toks) != 4:
                    raise ConfigError(
                        "[weight] terms: each record is 'j k re im', got %r"
                        % line)
                j = _parse_scalar(toks[0], "int", "[weight] terms j")
                k = _parse_scalar(toks[1], "int", "[weight] terms k")
                re = _parse_scalar(toks[2], "float", "[weight] terms re")
                im = _parse_scalar(toks[3], "float", "[weight] terms im")
                coeffs[(j, k)] = coeffs.get((j, k), 0.0) + complex(re, im)
            name = self.get_str("weight", "name", "custom_polynomial")
            try:
                return PolynomialWeight(coeffs, name=name)
            except ValueError as exc:
                raise ConfigError("[weight] terms: %s" % exc)
        raise ConfigError("[weight] kind: expected catalog or polynomial, "
                          "got %r" % kind)

    def stepper(self):
        from .semigroup import StepperConfig  # keeps config free of scipy

        return StepperConfig(
            dt=self.get_float("stepper", "dt", finite=True),
            scheme=self.get_str("stepper", "scheme", "crank_nicolson"),
            tol=self.get_float("stepper", "tol", 1e-10, finite=True),
            max_iterations=self.get_int("stepper", "max_iterations", 500),
        )

    def schedule(self):
        """Snapshot times including t = 0.

        Either an explicit snapshots list or t_final with a uniform
        interval count.
        """
        snaps = self.get_floats("schedule", "snapshots", None, finite=True)
        if snaps is not None:
            times = np.array(sorted({0.0, *snaps}))
            if times[0] < 0 or times.size < 2:
                raise ConfigError("[schedule] snapshots: need times >= 0, "
                                  "one of them > 0")
            return times
        t_final = self.get_float("schedule", "t_final", finite=True)
        count = self.get_int("schedule", "count", 20)
        if t_final <= 0 or count < 1:
            raise ConfigError("[schedule]: t_final > 0 and count >= 1 needed")
        return np.linspace(0.0, t_final, count + 1)

    def datum(self, spec):
        """Initial field on the grid.

        gaussian:    amplitude * exp(-|z - c|^2 / width^2)
        heavy_tail:  amplitude * (width^2 + |z - c|^2)^(-1/2)
        """
        kind = self.get_str("datum", "kind", "gaussian")
        amp = self.get_float("datum", "amplitude", 1.0)
        width = self.get_float("datum", "width", 1.0)
        center = complex(self.get_float("datum", "center_re", 0.0),
                         self.get_float("datum", "center_im", 0.0))
        if width <= 0:
            raise ConfigError("[datum] width: must be positive")
        if kind == "gaussian":
            fn = lambda z: amp * np.exp(-np.abs(z - center) ** 2 / width**2)
        elif kind == "heavy_tail":
            fn = lambda z: amp * (width**2 + np.abs(z - center) ** 2) ** -0.5
        else:
            raise ConfigError("[datum] kind: expected gaussian or heavy_tail,"
                              " got %r" % kind)
        return sample(spec, fn)

    def seed(self, override=None):
        if override is not None:
            return int(override)
        return self.get_int("experiment", "seed", 0)

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
