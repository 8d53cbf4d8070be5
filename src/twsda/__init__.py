"""Deterministic tree-walking-storage machines: simulation and analysis."""

from .analysis import (
    BudgetExceeded,
    ClassPartition,
    Mismatch,
    catalan,
    class_upper_bound,
    count_classes,
    cross_check,
    enumerate_accepted,
    expo_moves,
    fib_moves,
    fibonacci,
    is_complete_binary,
    is_fibonacci_tree,
    machines_agree,
)
from .builders import (
    BUILTINS,
    build_cub,
    build_expo,
    build_fib,
    build_mi_hat,
    build_trie_p,
    build_trie_p_hat,
)
from .combinators import (
    AlphabetMismatch,
    Dfa,
    NotRealTime,
    PrefixKillsMachine,
    complement,
    dfa_run,
    intersect_regular,
    left_quotient,
)
from .machine import (
    END,
    LAMBDA,
    Machine,
    TransitionKey,
    TransitionRow,
    Violation,
    machine_from_rows,
    validate,
)
from .machinefile import (
    Diagnostic,
    MachineFileError,
    export_machine,
    format_word,
    parse_machine,
    parse_word,
)
from .oracles import ORACLES, LanguageOracle, lh_class_sample
from .simulate import (
    BudgetRequired,
    Configuration,
    DeterminismError,
    EndmarkerInInput,
    RunOutcome,
    StepRecord,
    Verdict,
    final_tree,
    run,
)
from .tree import (
    DOWN_L,
    DOWN_R,
    POP,
    ROOT_LABEL,
    STAY,
    UP,
    GammaTree,
    NodeType,
    PathAbsent,
    WellFormednessViolation,
    push,
)

__all__ = [name for name in dir() if not name.startswith("_")]
