"""Exact derivation and verification of algebraic addition theorems.

Given a description of a function phi that is rational in u, rational in
e^(mu*u), or rational in the Weierstrass pair (wp, wp'), the kernel derives
the unique irreducible polynomial G with G(phi(u), phi(v), phi(u+v)) = 0 by
resultant elimination, certifies it numerically, and checks the structural
degree and symmetry laws that govern it.  Each name is imported from the
module that defines it: specs and the order from `funcspec`, elimination and
pruning from `derive`, the derived theorem and its laws from `laws`.
"""

__version__ = "0.1.0"
