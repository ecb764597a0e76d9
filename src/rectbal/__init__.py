"""rectbal: exact balance analysis of word rectangles built from the
Fibonacci, Tribonacci and Thue-Morse words."""

from .exact_quadratic import (
    GAMMA,
    PHI,
    QuadraticValue,
    floor_n_gamma,
    floor_n_phi,
)
from .numeration import (
    DigitRep,
    EmptyExpansion,
    FibIndexList,
    InvalidRepresentation,
    fib_index_list,
    negabin_decode,
    negabin_encode,
    pair_decode,
    pair_encode,
    trib_decode,
    trib_encode,
    zeck_decode,
    zeck_encode,
    zeck_shift,
)
from .words import (
    BudgetExceeded,
    SequenceKind,
    Word,
    word,
)
from .rectangles import (
    word_letter_counts,
    word_rect_sum,
)
from .fib_balance import (
    BalanceStatus,
    BalanceVerdict,
    CirclePartition,
    balance_table,
    circle_partition,
    delta_block_scan,
    diverse_identities_check,
    exact_balance,
    is_balanced,
    t_counting_form,
    value_set,
    zeck_characterization,
)
from .trib_balance import (
    CornerWitness,
    NotFoundWithinLimit,
    TwoBalanceReport,
    balanced_2xn_list,
    find_corner_witness,
    two_balance_scan,
    verify_no_2balance_3plus,
)
from .tm_balance import (
    ExcessProfile,
    ParityViolation,
    excess,
    excess_class_parity_check,
    excess_even_even,
    excess_parity_reduced,
    excess_profile,
    excess_sign_symmetry,
)
from .dfa_tools import (
    Dfa,
    InconsistentSample,
    build_sample_table,
    dfa_from_text,
    dfa_run,
    dfa_to_text,
    infer_min_dfa,
)

__version__ = "0.1.0"
