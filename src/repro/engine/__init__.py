"""The engine layer: solver registry, staged pipelines, sharded execution.

Three pieces (see ``DESIGN.md`` § Engine layer):

* :mod:`repro.engine.registry` — solvers resolvable by string name with
  declared capabilities (the contract layer);
* :mod:`repro.engine.pipeline` / :mod:`repro.engine.report` — the staged
  ``prepare → build_nlcs → index → search → refine → finalize`` frame with
  per-stage timings and counters in a :class:`RunReport`;
* :mod:`repro.engine.sharded` — tile-sharded parallel Phase I with
  cross-shard bound exchange, over the tile engine of
  :mod:`repro.engine.outofcore`.
"""

from repro.engine.pipeline import SolverPipeline
from repro.engine.registry import (
    Solver,
    SolverCapabilities,
    SolverSpec,
    create_pipeline,
    create_solver,
    get_solver_spec,
    register_solver,
    run_pipeline,
    solver_names,
    unregister_solver,
)
from repro.engine.outofcore import tile_grid
from repro.engine.report import STAGES, RunReport
from repro.engine.sharded import ShardedMaxFirst

__all__ = [
    "STAGES",
    "RunReport",
    "ShardedMaxFirst",
    "Solver",
    "SolverCapabilities",
    "SolverPipeline",
    "SolverSpec",
    "create_pipeline",
    "create_solver",
    "get_solver_spec",
    "register_solver",
    "run_pipeline",
    "solver_names",
    "tile_grid",
    "unregister_solver",
]
