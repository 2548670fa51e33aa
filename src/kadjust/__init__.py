"""Entropy-adjusted description-length statistics for binary words.

The package computes the normalized ratio R = K_eff / (n * H) of a
computable description length to the empirical-entropy baseline of a word,
the adjusted scale KA = K_eff / H, and the deficiency n * H - K_eff, and
builds calibrated randomness tests and seeded simulation experiments on
top of them.
"""

from .coders import (
    CODER_NAMES,
    CodeResult,
    CoderId,
    code_word,
    concrete_coder_ids,
    decode_word,
    encode_word,
    k_comb,
    k_len,
    k_model_class,
    k_pair_shell,
    k_periodic,
    k_run_length,
    kind_lengths,
)
from .entropy import (
    binary_entropy,
    conditional_entropy,
    log2_multinomial,
    mutual_information_emp,
    shell_log_size,
    shell_size,
)
from .shellcode import (
    ShellCodeword,
    ShellId,
    decode_shell,
    encode_shell,
    rank,
    unrank,
)
from .simulate import (
    ConvergenceTrace,
    GeneratorSpec,
    convergence_trace,
    generate,
    geometric_schedule,
)
from .stats import (
    AdjustedReport,
    ConditionalReport,
    MutualReport,
    ZeroMutualBaselineError,
    adjusted,
    adjusted_conditional,
    adjusted_deficiencies,
    adjusted_mutual,
)
from .testing import (
    PrefixScanResult,
    TestConfig,
    TestVerdict,
    counting_lemma_audit,
    monte_carlo_fpr,
    prefix_scan,
    test_word,
)
from .words import BitWord, PairCounts

__all__ = [
    "AdjustedReport",
    "BitWord",
    "CODER_NAMES",
    "CodeResult",
    "CoderId",
    "ConditionalReport",
    "ConvergenceTrace",
    "GeneratorSpec",
    "MutualReport",
    "PairCounts",
    "PrefixScanResult",
    "ShellCodeword",
    "ShellId",
    "TestConfig",
    "TestVerdict",
    "ZeroMutualBaselineError",
    "adjusted",
    "adjusted_conditional",
    "adjusted_deficiencies",
    "adjusted_mutual",
    "binary_entropy",
    "code_word",
    "concrete_coder_ids",
    "conditional_entropy",
    "convergence_trace",
    "counting_lemma_audit",
    "decode_shell",
    "decode_word",
    "encode_shell",
    "encode_word",
    "generate",
    "geometric_schedule",
    "k_comb",
    "k_len",
    "k_model_class",
    "k_pair_shell",
    "k_periodic",
    "k_run_length",
    "kind_lengths",
    "log2_multinomial",
    "monte_carlo_fpr",
    "mutual_information_emp",
    "prefix_scan",
    "rank",
    "shell_log_size",
    "shell_size",
    "test_word",
    "unrank",
]

__version__ = "0.1.0"
