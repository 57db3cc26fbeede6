"""Risk-adversarial multi-agent learning scheduler for EV charging sessions."""

from .sessions import (
    EvseConfig,
    GeneratorConfig,
    SessionBatch,
    SessionError,
    SiteConfig,
    energy_ratios,
    generate_synthetic,
    parse_sessions,
    port_rates,
    time_ratios,
)
from .risk import (
    RiskEstimate,
    RiskError,
    StudentTFit,
    cvar_empirical,
    estimate_risk,
    fit_student_t,
    laxity_samples,
    normalize_risk,
    paper_cvar,
    standardized_pdf,
    upper_tail_cvar,
)
from .mdp import (
    EvseQueue,
    MdpError,
    decision_table,
    state_matrix,
)
from .learner import (
    LearnerError,
    SharedModel,
    TrainConfig,
    train,
)
from .scheduler import (
    MetricsReport,
    ScheduleOutcome,
    SchedulerError,
    compare_report,
    compute_metrics,
    execute,
    fcfs_as_requested_baseline,
    read_report,
)

__version__ = "0.1.0"
