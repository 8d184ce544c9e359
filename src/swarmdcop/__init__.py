"""Particle-swarm solver for continuous-domain distributed constraint optimization."""

from .generator import GenSpec, generate
from .model import (
    Constraint,
    ContinuousDomain,
    Problem,
    ProblemFormatError,
    QuadraticCost,
    evaluate_edge,
    global_cost,
    load_problem,
    parse_problem,
    save_problem,
    serialize_problem,
)
from .oracle import GridSpec, centralized_gcpso, grid_search
from .pseudotree import PseudoTree, build_bfs_pseudotree
from .runtime import AnytimeTrace, ProtocolError, Simulator, run
from .swarm import BestInfo, SwarmParams

__version__ = "0.1.0"

__all__ = [
    "AnytimeTrace",
    "BestInfo",
    "Constraint",
    "ContinuousDomain",
    "GenSpec",
    "GridSpec",
    "Problem",
    "ProblemFormatError",
    "ProtocolError",
    "PseudoTree",
    "QuadraticCost",
    "Simulator",
    "SwarmParams",
    "build_bfs_pseudotree",
    "centralized_gcpso",
    "evaluate_edge",
    "generate",
    "global_cost",
    "grid_search",
    "load_problem",
    "parse_problem",
    "run",
    "save_problem",
    "serialize_problem",
]
