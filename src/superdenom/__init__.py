"""Exact verification engine for the affine gl(2|2) denominator identity
and its companion identities."""

from .report import QReport
from .roots import (
    OrbitTerm,
    Weight,
    WeylElement,
    expand_orbit_term,
    inner,
    orbit_sum,
    reflect,
    translate,
)
from .series import (
    GradedSeries,
    LatticeSpec,
    cone_coords,
    deserialize,
    finite_gl_lattice,
    gl_lattice,
    invert,
    linear_combine,
    mul,
    q_lattice,
    serialize,
    sl21_lattice,
)

__version__ = "0.1.0"

__all__ = [
    "GradedSeries", "LatticeSpec", "OrbitTerm", "QReport", "Weight",
    "WeylElement", "cone_coords", "deserialize", "expand_orbit_term",
    "finite_gl_lattice", "gl_lattice", "inner", "invert", "linear_combine",
    "mul", "orbit_sum", "q_lattice", "reflect", "serialize",
    "sl21_lattice", "translate",
]
