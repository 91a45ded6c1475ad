"""Orbit divisors and cone verdicts for mixed product-quotient surfaces.

The package computes, from finite group data alone, the geometry of
surfaces S = (C x C)/G where G mixes the two factors and p_g(S) = 0:
branched-covering data for C, orbit divisors on S, their exact
intersection numbers, and a sufficient-criterion verdict that
Eff(S) = Nef(S) = SAmp(S) (so S is a Mori dream surface).
"""

__version__ = "0.1.0"
