"""Cut-system complexes over exact combinatorial curve models.

Subpackages: sympcurves (integer and mod-2 homology shadows), geomcurves
(slopes on the one-holed torus), universe (backend hooks and the handle
counter standing in for a non-planar end), complexes (graphs, cells,
diameters, homology), homotopy (bounded paths, loop contraction,
certificates), rigidity (induced curve maps), walks (seeded loop generators),
cli (batch front door).

The names below are the ones README's quick tour imports; everything else is
reached through its module.
"""

from .sympcurves import HClass, SympSpace
from .universe import make_universe
from .complexes import bfs, build_gamma, build_schmutz, chain_homology, diameter
from .homotopy import HomotopyCertificate, Prover, contract, verify_certificate

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
