"""Risk-adversarial multi-agent learning scheduler for EV charging sessions."""

from .sessions import (
    ChargingSession,
    EvseConfig,
    GeneratorConfig,
    SessionBatch,
    SessionError,
    SiteConfig,
    VehicleClass,
    delivery_rate_kw,
    demand_rate_kw,
    energy_ratio,
    generate_synthetic,
    parse_sessions,
    rate_ratio,
    time_ratio,
)
from .risk import (
    RiskEstimate,
    RiskError,
    StudentTFit,
    cvar_closed_form,
    cvar_empirical,
    estimate_risk,
    fit_student_t,
    laxity_samples,
    normalize_risk,
    standardized_pdf,
    student_t_pdf,
    upper_tail_cvar,
)
from .mdp import (
    EvseQueue,
    MdpError,
    PortSessions,
    ordering_holds,
    ordering_ratio,
    port_sessions,
    session_reward,
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
)

__version__ = "0.1.0"
