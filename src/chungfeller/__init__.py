"""Lattice-path combinatorics toolkit around the Chung-Feller theorem.

The number of balanced +-1 paths of length 2n with exactly 2k steps
below the axis is the Catalan number C_n, independently of k.  Four
mechanisms make that executable and cross-verifiable: brute-force
enumeration and a counting recurrence (`counting`), a bijection between
adjacent negativity classes (`bijection`) and exact generating functions
(`series`); the Cycle Lemma (`cycle`) adds a fifth view and an exactly
uniform sampler (`sampler`).  Paths are in `paths`, errors in `errors`.
Import each name from its module (`from chungfeller.counting import
catalan`); `import chungfeller` loads no mechanism.
"""

__version__ = "0.1.0"
