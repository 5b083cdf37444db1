"""Values shared by the numpy-backed modules and the CLI's argument parser:
the default damping factor, the convergence stop rule (L1 tolerance 1e-9, at
most 100 steps), and the learner's and the stream's config classes, whose
fields are the parser's defaults. They live apart so that building the parser
imports no numpy; ``pagerank``, ``learning`` and ``streaming`` re-export them.
"""

from dataclasses import dataclass

DEFAULT_DAMPING = 0.85
DEFAULT_TOLERANCE = 1e-9
DEFAULT_MAX_ITERS = 100

HEURISTICS = ("minimum", "maximum", "average", "smallest_difference")


def check_grid_step(step: float) -> None:
    """Reject a factor grid step outside (0, 1]."""
    if not 0.0 < step <= 1.0:
        raise ValueError(f"grid_step out of (0, 1]: {step}")


@dataclass
class LearnConfig:
    max_iterations: int = 1000
    rw_probability: float = 0.1
    heuristic: str = "minimum"
    grid_step: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.heuristic not in HEURISTICS:
            raise ValueError(f"unknown heuristic {self.heuristic!r}; use one of {HEURISTICS}")
        if not 0.0 <= self.rw_probability <= 1.0:
            raise ValueError(f"rw_probability out of [0, 1]: {self.rw_probability}")
        check_grid_step(self.grid_step)
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")


@dataclass
class StreamConfig:
    beta: float = 0.5
    sample_interval: int = 0  # 0 means only the end-of-stream sample
    top_k: int = 100

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta out of (0, 1]: {self.beta}")
        if self.sample_interval < 0:
            raise ValueError("sample_interval must be non-negative")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")
