"""Toolkit for two-way automata making choices only at the tape endmarkers."""

from .core import (
    BudgetExceeded,
    DIRECTIONS,
    FlavorReport,
    InvariantViolation,
    LEFT,
    LEFT_ENDMARKER,
    MalformedAutomaton,
    NotApplicable,
    RIGHT,
    RIGHT_ENDMARKER,
    STAY,
    TwoWayAutomaton,
    Verdict,
    accepts_oracle,
    all_words,
    alternating_accepts_oracle,
    and_or_reach,
    check_word,
    classify,
    segment_exists_oracle,
)
from .detsim import (
    BoundReport,
    ReachableStats,
    decide_det,
    dfa_state_bound,
    materialize_dfa,
)
from .fileformat import (
    DuplicateTransitionWarning,
    FlavorMismatch,
    ParseError,
    parse,
    serialize,
)
from .graphred import (
    SegmentGraph,
    agap_decide,
    build_segment_graph,
    gap_decide,
    oafa_decide,
    segment_graph_to_dot,
)
from .normalform import (
    NormalFormReport,
    NotNormalForm,
    NotOuter,
    check_normal_form,
    normalize_oafa,
    normalize_onfa,
    require_normal_form,
)
from .reach import (
    ReachController,
    TraceUnderflow,
    build_controller,
    n_reach,
    reach,
    return_table,
    segment_reach,
    t_reach,
)
from .svfa import (
    DecisionReport,
    SvfaStateAccounting,
    complement_decide,
    svfa_decide,
    svfa_run,
    svfa_state_accounting,
)

__version__ = "0.1.0"
