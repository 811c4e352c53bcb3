"""crystalk: exact K-theory ranks for integer involution lattices.

Given an integer matrix A with A*A = I acting on Z^n, the package
classifies the lattice action, computes the equivariant K-theory ranks
of the n-torus (by two independent routes for split actions), and emits
the K-theory of the reduced C*-algebra of Z^n x| Z/2 together with
replayable certificates.  All arithmetic is exact.
"""

__version__ = "0.1.0"
