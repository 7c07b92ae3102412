"""Guided exploration: action recommendation + speculative prefetch.

The guide layer closes the loop the paper leaves open: Blaeu *navigates*
(zoom, project, rollback) but never *suggests*.  Here the system ranks
the candidate next actions from signals it already computes
(:mod:`repro.guide.recommend`), and — because the ranked list is
deterministic — speculatively builds the top suggestions into the
shared cache through idle pool slots (:mod:`repro.guide.prefetch`), so
the user's likely next click is a warm hit.
"""

from repro.guide.prefetch import (
    PrefetchAction,
    PrefetchScheduler,
    plan_session,
    plan_table,
    prefetch_actions,
)
from repro.guide.recommend import (
    MAX_INSIGHT_ROWS,
    Suggestion,
    initial_suggestions,
    score_state,
    suggest_actions,
    suggestion_request,
)

__all__ = [
    "MAX_INSIGHT_ROWS",
    "PrefetchAction",
    "PrefetchScheduler",
    "Suggestion",
    "initial_suggestions",
    "plan_session",
    "plan_table",
    "prefetch_actions",
    "score_state",
    "suggest_actions",
    "suggestion_request",
]
