"""Config parsing: strict validation, typed getters, object builders."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbarheat import ConfigError, GridSpec, config_from_text, get_preset
from dbarheat import preset_names
from dbarheat.cli import _resolve_config, build_parser
from dbarheat.cli import main as cli_main
from dbarheat.config import (COUNT, FINITES, KNOWN_KEYS, POSITIVE,
                             ExperimentConfig)

MINIMAL = """
[experiment]
command = evolve
seed = 3

[grid]
extent = 6.0
points = 33

[weight]
kind = catalog
name = modsq

[stepper]
dt = 0.01

[schedule]
t_final = 1.0
count = 4
"""


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"\[gird\]"):
        config_from_text("[gird]\nextent = 6\n")


def test_unknown_key_rejected_with_field_path():
    with pytest.raises(ConfigError, match=r"\[grid\] extnet"):
        config_from_text("[grid]\nextnet = 6\n")


def test_malformed_ini_rejected():
    with pytest.raises(ConfigError, match="cannot parse"):
        config_from_text("grid]\nextent = 6\n")


def test_typed_getters():
    cfg = config_from_text(MINIMAL)
    assert cfg.get("grid", "points") == 33
    assert cfg.get("grid", "extent") == 6.0
    assert cfg.get("experiment", "command") == "evolve"
    assert cfg.get("experiment", "seed") == 3
    assert cfg.get("kernel", "slack", 0.05) == 0.05
    with pytest.raises(ConfigError, match="required key missing"):
        cfg.get("kernel", "slack")
    with pytest.raises(ConfigError, match="cannot parse"):
        config_from_text("[grid]\npoints = 3.5\n").get("grid", "points")


def test_bool_and_float_list_parsing():
    cfg = config_from_text(
        "[audit]\nlambda_min = yes\nmatrix_dump = off\n"
        "[kernel]\ntimes = 0.1, 0.5 1\n")
    assert cfg.get("audit", "lambda_min") is True
    assert cfg.get("audit", "matrix_dump") is False
    assert cfg.get("kernel", "times") == [0.1, 0.5, 1.0]
    with pytest.raises(ConfigError):
        config_from_text("[audit]\nlambda_min = maybe\n").get(
            "audit", "lambda_min")
    rates = config_from_text("[perturb]\ntarget_rate = oracle\n"
                             "[lplq]\ntarget_rate = 1.5\n")
    assert rates.get("perturb", "target_rate") == "oracle"
    assert rates.get("lplq", "target_rate") == 1.5
    with pytest.raises(ConfigError, match="'inf' as oracle or finite float"):
        config_from_text("[lplq]\ntarget_rate = inf\n").get(
            "lplq", "target_rate")


def test_float_getters_refuse_nan_and_inf_where_finite():
    cfg = config_from_text("[lplq]\np = inf\nq = nan\n"
                           "[kernel]\ntimes = 0.5 inf\n")
    assert cfg.get("lplq", "p") == math.inf
    with pytest.raises(ConfigError, match=r"\[lplq\] q: cannot parse 'nan'"):
        cfg.get("lplq", "q")
    with pytest.raises(ConfigError, match="'inf' as finite float"):
        cfg.get("kernel", "times")
    with pytest.raises(ConfigError, match="cannot parse 'inf' as int"):
        config_from_text("[grid]\npoints = inf\n").get("grid", "points")


RANGE_AND_RECORD_KEYS = [
    "%s.%s" % (section, key) for section, keys in KNOWN_KEYS.items()
    for key, kind in keys.items()
    if kind in (COUNT, POSITIVE) or isinstance(kind, tuple)]


@pytest.mark.parametrize("path", RANGE_AND_RECORD_KEYS)
def test_range_and_record_kinds_refuse_values_outside_their_rule(path):
    section, key = path.split(".")
    kind = KNOWN_KEYS[section][key]
    if isinstance(kind, tuple):
        good = " ".join(["1"] * len(kind))
        bad = [good + " 1", " ".join(["1"] * (len(kind) - 1))]
    else:
        good, bad = "1", ["0", "-1"]
    assert ExperimentConfig({section: {key: good}}).get(section, key)
    for text in bad:
        with pytest.raises(ConfigError,
                           match=r"^\[%s\] %s" % (section, key)):
            ExperimentConfig({section: {key: text}}).get(section, key)


LIST_KEYS = [
    "%s.%s" % (section, key) for section, keys in KNOWN_KEYS.items()
    for key, kind in keys.items() if kind == FINITES or isinstance(kind, tuple)]


@pytest.mark.parametrize("path", LIST_KEYS)
def test_list_kinds_refuse_a_list_with_no_entry(path):
    section, key = path.split(".")
    for text in ("", " , \n  \n"):
        with pytest.raises(ConfigError, match=r"^\[%s\] %s: the list has no "
                           "entry$" % (section, key)):
            ExperimentConfig({section: {key: text}}).get(section, key)


def test_seed_is_an_int_of_at_least_zero_from_the_config_or_the_flag(
        tmp_path, capsys):
    cfg = ExperimentConfig({"experiment": {"seed": "0"}})
    assert cfg.seed() == 0
    assert ExperimentConfig({"experiment": {"seed": "7"}}).seed() == 7
    assert ExperimentConfig({}).seed() == 0
    with pytest.raises(ConfigError, match=r"^\[experiment\] seed: cannot "
                       "parse '-2' as int >= 0$"):
        ExperimentConfig({"experiment": {"seed": "-2"}}).seed()
    # the flag is the same key, so it is refused in the same words
    assert cli_main(["lplq", "--preset", "lplq-free", "--seed", "-1",
                     "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ("config error: [experiment] seed: "
                                       "cannot parse '-1' as int >= 0\n")


def test_choice_and_nonnegative_kinds():
    cfg = config_from_text("[kernel]\nmode = bogus\nslack = -0.1\n"
                           "tail_floor = 0\n[datum]\nkind = heavy_tail\n")
    with pytest.raises(ConfigError, match=r"^\[kernel\] mode: cannot parse "
                       "'bogus' as one of general, polynomial$"):
        cfg.get("kernel", "mode")
    with pytest.raises(ConfigError, match=r"^\[kernel\] slack: cannot parse "
                       "'-0.1' as finite float >= 0$"):
        cfg.get("kernel", "slack")
    assert cfg.get("kernel", "tail_floor") == 0.0
    assert cfg.get("datum", "kind") == "heavy_tail"


def test_choice_kinds_match_the_library():
    from dbarheat.semigroup import THETA

    assert KNOWN_KEYS["stepper"]["scheme"] == set(THETA)


def test_kwargs_forwards_only_the_keys_a_config_sets():
    cfg = config_from_text("[audit]\ntrials = 3\n"
                           "[kernel]\nmode = polynomial\nslack = 0\n")
    assert cfg.kwargs("delta", "extent", "j_max") == {}
    assert cfg.kwargs("audit", "trials",
                      compute_lambda_min="lambda_min") == {"trials": 3}
    cfg.set("audit", "lambda_min", "no")
    got = cfg.kwargs("audit", "trials", compute_lambda_min="lambda_min")
    assert got == {"trials": 3, "compute_lambda_min": False}
    got = cfg.kwargs("kernel", "mode", "slack", "tail_floor")
    assert got == {"mode": "polynomial", "slack": 0.0}
    assert type(got["slack"]) is float
    with pytest.raises(ConfigError, match=r"\[audit\] trials: cannot parse"):
        ExperimentConfig({"audit": {"trials": "0"}}).kwargs("audit", "trials")


def test_overrides():
    cfg = config_from_text(MINIMAL)
    cfg.apply_overrides(["grid.points=65", "stepper.tol = 1e-9"])
    assert cfg.get("grid", "points") == 65
    assert cfg.get("stepper", "tol") == 1e-9
    with pytest.raises(ConfigError, match="section.key=value"):
        cfg.apply_overrides(["points=65"])
    with pytest.raises(ConfigError, match="unknown key"):
        cfg.apply_overrides(["grid.size=65"])


def test_grid_and_stepper_builders():
    cfg = config_from_text(MINIMAL)
    assert cfg.grid() == GridSpec(extent=6.0, points=33)
    st = cfg.stepper()
    assert st.dt == 0.01 and st.scheme == "crank_nicolson"
    assert st.tol == 1e-10 and st.max_iterations == 500


def test_schedule_builders():
    cfg = config_from_text(MINIMAL)
    assert np.allclose(cfg.schedule(), np.linspace(0.0, 1.0, 5))
    explicit = config_from_text("[schedule]\nsnapshots = 0.5 0.25 1.0\n")
    assert np.allclose(explicit.schedule(), [0.0, 0.25, 0.5, 1.0])
    with pytest.raises(ConfigError):
        config_from_text("[schedule]\nt_final = -1\n").schedule()


def test_datum_formulas():
    spec = GridSpec(extent=6.0, points=33)
    g = config_from_text(
        "[datum]\nkind = gaussian\namplitude = 0.5\nwidth = 2.0\n"
        "center_re = 1.0\ncenter_im = -1.0\n").datum(spec)
    zz = spec.nodes()
    want = 0.5 * np.exp(-np.abs(zz - (1 - 1j)) ** 2 / 4.0)
    assert np.max(np.abs(g.values - want)) == 0.0
    h = config_from_text(
        "[datum]\nkind = heavy_tail\namplitude = 0.05\nwidth = 0.2\n"
    ).datum(spec)
    want = 0.05 * (0.2**2 + np.abs(zz) ** 2) ** -0.5
    assert np.max(np.abs(h.values - want)) == 0.0
    with pytest.raises(ConfigError, match="kind"):
        config_from_text("[datum]\nkind = box\n").datum(spec)
    with pytest.raises(ConfigError, match="width"):
        config_from_text("[datum]\nwidth = 0\n").datum(spec)


def test_weight_builders():
    cfg = config_from_text(MINIMAL)
    assert cfg.weight().name == "modsq"
    poly = config_from_text(
        "[weight]\nkind = polynomial\nname = custom\n"
        "terms = 1 1 1.0 0.0\n    2 2 0.25 0.0\n")
    w = poly.weight()
    assert w.name == "custom"
    assert w.coeffs == {(1, 1): 1.0 + 0j, (2, 2): 0.25 + 0j}
    with pytest.raises(ConfigError, match="name"):
        config_from_text("[weight]\nname = nope\n").weight()
    with pytest.raises(ConfigError, match="terms"):
        config_from_text(
            "[weight]\nkind = polynomial\nterms = 1 1 1.0\n").weight()
    with pytest.raises(ConfigError, match="terms re: cannot parse 'inf'"):
        config_from_text(
            "[weight]\nkind = polynomial\nterms = 1 1 inf 0.0\n").weight()
    with pytest.raises(ConfigError, match="non-real"):
        config_from_text(
            "[weight]\nkind = polynomial\nterms = 2 0 1.0 0.0\n").weight()
    with pytest.raises(ConfigError, match="kind"):
        config_from_text("[weight]\nkind = table\n").weight()


def test_seed_override_precedence():
    cfg = config_from_text(MINIMAL)
    assert cfg.seed() == 3
    assert config_from_text("[grid]\nextent = 1\n").seed() == 0
    # --seed is applied after every --set, and the config echo records it
    args = build_parser().parse_args(
        ["lplq", "--preset", "lplq-free", "--seed", "11",
         "--set", "experiment.seed=3"])
    cfg = _resolve_config(args)
    assert cfg.seed() == 11
    assert config_from_text(cfg.echo()).seed() == 11


def test_echo_round_trip():
    cfg = config_from_text(MINIMAL)
    cfg.set("stepper", "tol", "1e-12")
    again = config_from_text(cfg.echo())
    assert again.data == cfg.data


def test_presets_all_parse_and_declare_their_command():
    from dbarheat import preset_names
    for name in preset_names():
        cfg = get_preset(name)
        assert cfg.get("experiment", "command") in {
            "delta", "audit", "evolve", "kernel", "picard", "perturb",
            "lplq", "beta-check"}
    with pytest.raises(ConfigError, match="unknown preset"):
        get_preset("nope")


@pytest.mark.parametrize("name", preset_names())
def test_every_preset_value_parses_as_its_declared_kind(name):
    cfg = get_preset(name)
    for section, keys in cfg.data.items():
        for key in keys:
            cfg.get(section, key)


# keys whose values are words or multi-line records, not numbers
_TEXT_KEYS = {"command", "description", "kind", "name", "terms", "scheme",
              "mode", "solver", "target_rate", "pairs", "directory"}
NUMERIC_KEYS = sorted("%s.%s" % (section, key)
                      for section, keys in KNOWN_KEYS.items()
                      for key in keys if key not in _TEXT_KEYS)
_numbers = st.one_of(st.integers(-10**6, 10**6).map(str),
                     st.floats(allow_nan=True).map(repr))


@pytest.mark.parametrize("name", preset_names())
@settings(max_examples=25, deadline=None, derandomize=True)
@given(overrides=st.lists(st.tuples(st.sampled_from(NUMERIC_KEYS), _numbers),
                          max_size=6))
def test_echo_is_a_fixed_point_after_numeric_overrides(name, overrides):
    cfg = get_preset(name)
    cfg.apply_overrides(["%s=%s" % pair for pair in overrides])
    text = cfg.echo()
    again = config_from_text(text)
    assert again.echo() == text
    assert again.data == cfg.data
