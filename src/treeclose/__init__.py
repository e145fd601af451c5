"""Exact computations with groups acting on regular trees.

The package models several groups acting on a d-regular tree with a
legal edge coloring, computes their vertex-stabilizer germs at finite
radius, and studies the k-closure: the group of all tree automorphisms
that look locally, at scale k, like elements of the model group. All
arithmetic is exact (integers and fractions); verdicts are either exact
or explicitly truncation-qualified.
"""

__version__ = "0.1.0"
