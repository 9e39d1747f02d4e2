"""The Content Management layer (paper §3 and §6).

Physical storage (:mod:`repro.management.storage`), the Data Manager,
OpenSocial-style remote-site simulation and integration, the three
content-management models of Table 2, and activity-driven refresh
scheduling.
"""

from repro.management.activity import (
    ActivityCategory,
    ActivityManager,
    UserActivityProfile,
)
from repro.management.datamanager import DataManager
from repro.management.integrator import ContentIntegrator, IntegrationReport
from repro.management.persist import (
    RecoveredSite,
    read_manifest,
    recover_data_manager,
    snapshot_graph,
    write_snapshot,
)
from repro.management.models import (
    ModelOutcome,
    Scenario,
    run_all_models,
    run_closed_cartel,
    run_decentralized,
    run_open_cartel,
)
from repro.management.remote import (
    ALL_SCOPES,
    Activity,
    CallLog,
    Profile,
    RemoteSocialSite,
    SCOPE_ACTIVITIES,
    SCOPE_CONNECTIONS,
    SCOPE_PROFILE,
    SCOPE_WRITE,
)
from repro.management.storage import DERIVED, GraphStore, LOCAL, StoreStats
from repro.management.sync import SyncMetrics, SyncScheduler, uniform_profiles
from repro.management.wal import (
    WalTail,
    WalWriter,
    read_wal,
    truncate_torn_tail,
)

__all__ = [
    "GraphStore", "StoreStats",
    "LOCAL", "DERIVED",
    "DataManager",
    "RemoteSocialSite", "Profile", "Activity", "CallLog",
    "SCOPE_PROFILE", "SCOPE_CONNECTIONS", "SCOPE_ACTIVITIES", "SCOPE_WRITE",
    "ALL_SCOPES",
    "ContentIntegrator", "IntegrationReport",
    "Scenario", "ModelOutcome", "run_decentralized", "run_closed_cartel",
    "run_open_cartel", "run_all_models",
    "ActivityManager", "ActivityCategory", "UserActivityProfile",
    "SyncScheduler", "SyncMetrics", "uniform_profiles",
    "WalWriter", "WalTail", "read_wal", "truncate_torn_tail",
    "RecoveredSite", "write_snapshot", "recover_data_manager",
    "read_manifest", "snapshot_graph",
]
