"""Values shared by the numpy-backed modules and the CLI's argument parser.

They live apart so that building the parser imports no numpy; ``pagerank``
and ``learning`` re-export them under their own names.
"""

DEFAULT_DAMPING = 0.85

HEURISTICS = ("minimum", "maximum", "average", "smallest_difference")
