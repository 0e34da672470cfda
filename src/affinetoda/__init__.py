"""Lie-algebraic machinery and solvers for the real-form affine Toda equations.

Importing the package loads none of its modules: import each name from its
module, so the exact layer (``rootdata``, ``restriction``) can be used
without loading numpy.
"""
__version__ = "0.1.0"
