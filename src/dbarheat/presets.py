"""Named, self-contained experiment configs.

Each preset is a complete INI config runnable with nothing beyond its
name; the two perturbation presets reproduce the headline polynomial and
exponential stability runs at desk scale.  All randomness is seeded in
the preset so reruns are byte-identical.
"""

from __future__ import annotations

from .config import ExperimentConfig, config_from_text
from .errors import ConfigError

__all__ = ["PRESETS", "get_preset", "preset_names"]

_DELTA_TEMPLATE = """
[experiment]
command = delta
seed = 0
description = delta and argmin scan of the %(name)s weight

[weight]
kind = catalog
name = %(name)s

[delta]
extent = 4.0
resolution = 41
refine_rounds = 3
"""

PRESETS = {
    # -- delta scans of the built-in weights ---------------------------
    "zero": _DELTA_TEMPLATE % {"name": "zero"},
    "modsq": _DELTA_TEMPLATE % {"name": "modsq"},
    "modquartic": _DELTA_TEMPLATE % {"name": "modquartic"},
    "harmonic_re_z2": _DELTA_TEMPLATE % {"name": "harmonic_re_z2"},
    "flat_example": _DELTA_TEMPLATE % {"name": "flat_example"},

    # -- operator assembly audit ---------------------------------------
    "audit-modsq": """
[experiment]
command = audit
seed = 0
description = Hermitian/positivity/factorization audit on the |z|^2 weight

[weight]
kind = catalog
name = modsq

[grid]
extent = 6.0
points = 33

[audit]
trials = 10
lambda_min = true
matrix_dump = false
""",

    # -- linear evolution demo -------------------------------------
    "evolve-free-gaussian": """
[experiment]
command = evolve
seed = 0
description = free heat flow of a unit Gaussian, norm decay schedule

[weight]
kind = catalog
name = zero

[grid]
extent = 6.0
points = 65

[stepper]
dt = 0.01
scheme = crank_nicolson

[schedule]
t_final = 1.0
count = 10

[datum]
kind = gaussian
amplitude = 1.0
width = 1.0
""",

    # -- heat-kernel columns ---------------------------------------
    "kernel-free": """
[experiment]
command = kernel
seed = 0
description = free kernel column vs the exact (pi t)^-1 exp(-|z-w|^2/t)

[weight]
kind = catalog
name = zero

[grid]
extent = 8.0
points = 129

[stepper]
dt = 0.005
scheme = crank_nicolson

[kernel]
times = 1.0 2.0
source_re = 0.0
source_im = 0.0
mode = general
slack = 0.05
tail_floor = 1e-2
""",

    "kernel-modsq": """
[experiment]
command = kernel
seed = 0
description = |z|^2-weight kernel column under the Gaussian envelope

[weight]
kind = catalog
name = modsq

[grid]
extent = 8.0
points = 129

[stepper]
dt = 0.005
scheme = crank_nicolson

[kernel]
times = 0.25 0.5
source_re = 0.0
source_im = 0.0
mode = polynomial
slack = 0.05
tail_floor = 1e-3
""",

    # -- Picard fixed point ------------------------------------------
    "picard-flat": """
[experiment]
command = picard
seed = 0
description = mild solution for the flat weight, small Gaussian datum

[weight]
kind = catalog
name = flat_example

[grid]
extent = 6.0
points = 65

[stepper]
dt = 0.01
scheme = crank_nicolson

[schedule]
t_final = 1.0
count = 20

[datum]
kind = gaussian
amplitude = 0.05
width = 1.0

[picard]
m = 3.0
q = 3.0
tol = 1e-9
max_iter = 20
""",

    # -- stability reproductions ---------------------------------------
    "perturb-flat": """
[experiment]
command = perturb
seed = 0
description = polynomial stability run: flat weight, heavy-tail data, 1 percent gap

[weight]
kind = catalog
name = flat_example

[grid]
extent = 10.0
points = 241

[stepper]
dt = 0.0125
scheme = crank_nicolson

[schedule]
t_final = 3.2
count = 64

[datum]
kind = heavy_tail
amplitude = 0.05
width = 0.2

[perturb]
m = 3.0
q = 3.0
rel_perturbation = 0.01
solver = picard
picard_tol = 1e-9
window_lo = 0.8
window_hi = 3.2
subsample = 12
""",

    "perturb-modsq": """
[experiment]
command = perturb
seed = 0
description = exponential stability run: |z|^2 weight, nearby small Gaussians

[weight]
kind = catalog
name = modsq

[grid]
extent = 6.0
points = 16

[stepper]
dt = 0.01
scheme = crank_nicolson

[schedule]
t_final = 5.0
count = 50

[datum]
kind = gaussian
amplitude = 0.05
width = 1.0

[perturb]
m = 3.0
q = 3.0
rel_perturbation = 0.01
solver = picard
picard_tol = 1e-10
window_lo = 2.0
window_hi = 5.0
target_rate = oracle
""",

    # -- semigroup norm-ratio probes ------------------------------------
    "lplq-free": """
[experiment]
command = lplq
seed = 7
description = free flow L^1 -> L^inf ratio, target exponent -1

[weight]
kind = catalog
name = zero

[grid]
extent = 8.0
points = 129

[stepper]
dt = 0.01
scheme = crank_nicolson

[schedule]
snapshots = 0.2 0.26 0.34 0.44 0.57 0.74 0.96 1.24 1.61 2.0

[lplq]
p = inf
q = 1
n_probes = 2
probe_width = 0.2
window_lo = 0.2
window_hi = 2.0
""",

    "lplq-modsq-l2": """
[experiment]
command = lplq
seed = 11
description = |z|^2 weight L^2 contraction rate vs the bottom eigenvalue of Box

[weight]
kind = catalog
name = modsq

[grid]
extent = 6.0
points = 16

[stepper]
dt = 0.01
scheme = crank_nicolson

[schedule]
t_final = 6.0
count = 24

[lplq]
p = 2
q = 2
n_probes = 4
probe_width = 1.0
window_lo = 2.0
window_hi = 6.0
target_rate = oracle
""",

    # -- Beta identity ---------------------------------------------------
    "beta-grid": """
[experiment]
command = beta-check
seed = 0
description = singular Beta identity at three (k, l) pairs and two times

[beta]
pairs =
    0.5 0.5
    0.3 0.4
    0.9 0.05
t_values = 0.1 2.0
""",
}


def preset_names():
    return sorted(PRESETS)


def get_preset(name):
    """Parsed ExperimentConfig of a named preset."""
    if name not in PRESETS:
        raise ConfigError(
            "unknown preset %r (have: %s)" % (name, ", ".join(preset_names())))
    return config_from_text(PRESETS[name], source="preset:%s" % name)
