"""Build op inputs through the package's public constructors.

Kept apart from the rest of the benchmark, which imports scipy for its
oracle, so that the set-up probe can time a fresh interpreter's imports of
the package alone.
"""

from __future__ import annotations


def kernel_inputs(task):
    """Grid, c and h of a kernel task."""
    import numpy as np
    from beamsign import Grid, Interval, ScalarField

    grid = Grid(Interval(0.0, task.length), task.n)
    if task.c_kind == "constant":
        c = ScalarField.constant(grid, task.m)
    else:
        c = ScalarField.from_function(
            grid, lambda t: task.m + task.amp * np.sin(np.pi * t / task.length) ** 2)
    h = ScalarField.from_function(
        grid, lambda t: task.h_scale * (1.0 + 0.5 * np.sin(np.pi * t / task.length)))
    return grid, c, h


def problem_inputs(text: str, base_dir):
    """ProblemFile and ProblemSpec of a problem text, as the CLI builds them."""
    from beamsign.cli import parse_problem_text, to_problem

    pf = parse_problem_text(text, base_dir)
    return pf, to_problem(pf)
