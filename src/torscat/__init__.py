"""torscat: torsion pairs of quiver algebras and the Catalan-family lattices.

Exact linear algebra over prime fields drives a small homological engine
(Hom, Ext, syzygies, projective covers, Krull-Schmidt decomposition) for
algebras presented by quivers with relations; on top of it sit the lattice
of torsion pairs, its omega_n sublattices, and the combinatorial models
they are verified against: Dyck paths, the Tamari lattice, order ideals
and lattice congruences.
"""

from .linalg import Matrix, NoSolution, Subspace, backend_name, solve
from .poset import Poset, interval_poset, poset_isomorphic
from .lattice import (
    Congruence,
    FinLattice,
    LimitExceeded,
    NotALattice,
    VerificationFailed,
    all_congruences,
    congruence_lattice,
    forcing_poset,
    ideal_lattice,
    is_congruence_uniform,
    lattice_isomorphic,
    principal_congruence,
)
from .catalan import (
    dyck_lattice,
    dyck_paths,
    dyck_to_ideal,
    tamari_lattice,
    typeA_torsion_lattice,
    verify_tamari_congruence_iso,
)
from .algebra import (
    Algebra,
    AlgebraError,
    AtLeast,
    EndTooLarge,
    Module,
    ModuleMap,
    ZeroModule,
    cosyzygy,
    decompose,
    ext,
    global_dimension,
    hom,
    hom_dim,
    incidence_algebra,
    indecomposables,
    injective_envelope,
    min_resolution,
    modules_isomorphic,
    path_algebra_An,
    projective_cover,
    syzygy,
    two_cycle_algebra,
)
from .torsion import (
    BudgetExceeded,
    ModuleContext,
    TorsionLattice,
    TorsionPair,
    enumerate_torsion_pairs,
    is_cohereditary,
    is_hereditary,
    is_omega_n,
    is_split,
    omega_lattice_via_simples,
    verify_dyck_omega_iso,
    verify_two_cycle_example,
)

__version__ = "0.1.0"
