"""SU(2) character variety dynamics under the mapping class group.

Modules:
    su2           quaternion model of SU(2), twist-word runner, surface groups,
                  word evaluation
    exact         exact arithmetic over Q(sqrt2, sqrt5) for finite images
    tolerances    shared numeric tolerances and renormalization cadence
    classify      binary-polyhedral / Pin(2) / dense subgroup classification
    torus_one     one-holed torus trace coordinates and twist dynamics
    sphere_four   four-holed sphere level sets, filtration, density lemmas
    torus_family  two- and three-holed torus charts and steering
    orbit_lab     pants decompositions, handle search, orbit-density reports
    repfile       representation file parsing/formatting
    cli           command-line interface (console script ``su2moduli``)
"""

__version__ = "0.1.0"
