"""Result memoisation, layered strictly *above* the evaluation engine.

:mod:`repro.serve.results` holds :class:`ResultStore`, a content-addressed
on-disk cache of evaluation metrics keyed by ``(trace content, scheme +
params, output-affecting config, GENERATOR_VERSION)``.  The experiment
drivers, ``evaluate`` and ``repro bench run`` all consult the same store
(``--results-dir``), so identical evaluations cost one JSON read instead of
an encode pass.

See ``docs/architecture.md`` ("The result store") for the cache-key rules.
"""

from .results import (
    RESULT_STORE_VERSION,
    ResultKey,
    ResultStore,
    ResultStoreError,
    metrics_from_payload,
    metrics_to_payload,
    result_cache_key,
    scheme_cache_key,
    trace_content_digest,
)

__all__ = [
    "RESULT_STORE_VERSION",
    "ResultKey",
    "ResultStore",
    "ResultStoreError",
    "metrics_from_payload",
    "metrics_to_payload",
    "result_cache_key",
    "scheme_cache_key",
    "trace_content_digest",
]
