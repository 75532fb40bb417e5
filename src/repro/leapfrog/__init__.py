"""Sequential worst-case-optimal join substrate (paper §II-A).

``trie`` builds the nested sorted-array (CSR) index per relation and
``leapfrog`` runs the Leapfrog trie-join of Alg. 1 over a set of tries,
one frontier of partial bindings at a time; its ``cache_entries`` option
is the intersection cache of the HCubeJ+Cache baseline [28].
"""
from repro.leapfrog.leapfrog import (  # noqa: F401
    LeapfrogTimeout,
    LFResult,
    leapfrog,
)
from repro.leapfrog.trie import Trie  # noqa: F401
