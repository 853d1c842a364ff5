"""Cut-system complexes over exact combinatorial curve models.

Subpackages: surfaces (exhaustions and stabilization), sympcurves (integer
and mod-2 homology shadows), geomcurves (slopes and ribbon-graph words),
universe (backend hooks), complexes (graphs, cells, diameters, homology),
homotopy (bounded paths, loop contraction, certificates), rigidity (induced
curve maps), walks (seeded loop generators), cli (batch front door).
"""

from .surfaces import Exhaustion, FiniteApprox, NoRoom, SurfaceSpec, exhaust, stabilize
from .sympcurves import HClass, SympSpace, inter, is_cut_shadow, pairing, solve_pairings, transvect
from .geomcurves import ArcWord, CyclicWord, RibbonSurface, Slope, islope, is_separating, iword, splice, twist_slope
from .universe import Room, make_universe
from .complexes import ComplexGraph, bfs, build_gamma, build_schmutz, chain_homology, diameter
from .homotopy import (
    HomotopyCertificate,
    InvalidStep,
    Prover,
    apply_step,
    connect,
    contract,
    contract_radius0,
    contract_square,
    escort_triple,
    hex_escorts,
    path_common,
    radius,
    verify_certificate,
)
from .rigidity import AutoOracle, InducedCurveMap, TwistWord, induced_curve_map

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
