"""Compiler, scheduler, and resource estimator for modular fault-tolerant
quantum architectures built from compute, memory, and factory modules."""

from .arch import (ArchitectureSpec, BUILTIN_NAMES, CodeSpec, ConfigError,
                   LinkSpec, ModalitySpec, ModuleSpec, builtin_architecture,
                   load_architecture, parse_config_text, to_config_text,
                   validate)
from .circuits import GateOp, LogicalCircuit
from .compiler import (AuditStore, CompileError, ErrorBudget, EventStore,
                       InvalidCircuit, RouterDecision, ScheduledEvent,
                       ScheduledProgram, error_budget, schedule,
                       synchronize_clocks)
from .estimator import (RsaEstimate, compare_architectures, rsa_estimate,
                        rsa_estimate_compiled, rsa_runtime_days,
                        rsa_shot_time)
from .generators import (generate_aqft, generate_cuccaro_adder,
                         generate_fermi_hubbard_step,
                         generate_rsa_subroutine)
from .qec import (TransferInfeasible, TransferParams, TransferResult,
                  equivalent_memory_distance, idle_error,
                  logical_error_per_cycle, stqm_storage_valid,
                  transfer_lattice_surgery, transfer_transversal,
                  transversal_error)
from .resources import (CostWeights, PatchLayout, ResourceCounts,
                        count_architecture, count_homogeneous,
                        place_transfer_patches, space_cost,
                        transfer_patch_layout)
from .rewrites import rewrite_depth_reduce

__version__ = "0.1.0"

__all__ = [
    "ArchitectureSpec", "BUILTIN_NAMES", "CodeSpec", "ConfigError",
    "LinkSpec", "ModalitySpec", "ModuleSpec", "builtin_architecture",
    "load_architecture", "parse_config_text", "to_config_text", "validate",
    "GateOp", "LogicalCircuit",
    "AuditStore", "CompileError", "ErrorBudget", "EventStore",
    "InvalidCircuit",
    "RouterDecision", "ScheduledEvent",
    "ScheduledProgram", "error_budget", "schedule", "synchronize_clocks",
    "RsaEstimate", "compare_architectures", "rsa_estimate",
    "rsa_estimate_compiled", "rsa_runtime_days", "rsa_shot_time",
    "generate_aqft", "generate_cuccaro_adder", "generate_fermi_hubbard_step",
    "generate_rsa_subroutine",
    "TransferInfeasible", "TransferParams", "TransferResult",
    "equivalent_memory_distance", "idle_error", "logical_error_per_cycle",
    "stqm_storage_valid", "transfer_lattice_surgery", "transfer_transversal",
    "transversal_error",
    "CostWeights", "PatchLayout", "ResourceCounts", "count_architecture",
    "count_homogeneous", "place_transfer_patches", "space_cost",
    "transfer_patch_layout",
    "rewrite_depth_reduce",
    "__version__",
]
