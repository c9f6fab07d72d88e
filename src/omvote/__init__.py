"""Voting rules, obvious-manipulation analysis, and election experiments."""

from .ccum import CcumCertificate, CcumInstance, ccum_bruteforce, ccum_greedy_kapproval, possible_outcomes, solve_ccum
from .characterization import (
    TheoremVerdict,
    bom_iff,
    has_veto_power,
    is_almost_unanimous,
    kapproval_om,
    scoring_nom_sufficient,
    weakly_diminishing,
)
from .core import (
    DEFAULT_BUDGET,
    Profile,
    enumerate_profiles,
    enumerate_rankings,
    format_profile,
    identity_tiebreak,
    make_profile,
    make_ranking,
    make_tiebreak,
    parse_profile,
    read_profile_file,
    sample_ranking,
    write_profile_file,
)
from .errors import (
    DimensionMismatchError,
    DuplicateOutcomeError,
    InvalidParametersError,
    OutOfRangeIndexError,
    ProfileFormatError,
    TooLargeError,
    UnsupportedRuleError,
    VerificationError,
    VotingError,
    WrongLengthError,
)
from .experiments import ProportionRow, exact_rates, heatmap, rows_to_csv, sweep_n
from .manipulability import (
    BomWitness,
    CaseOutcomes,
    ManipulationReport,
    bruteforce_feasible,
    case_outcomes,
    classify,
    classify_randomized_tiebreak,
)
from .rules import (
    RuleSpec,
    antiplurality,
    borda,
    condorcet_winner,
    copeland,
    dowdall,
    kapproval,
    kapproval_k,
    make_score_vector,
    paperfamily,
    parse_rule,
    plurality,
    rule_label,
    runoff,
    score_vector,
    scoring,
    scoring_cowinners,
    scoring_scores,
    scoring_winner,
    stv,
    vetofamily,
    winner,
)

__version__ = "0.1.0"
