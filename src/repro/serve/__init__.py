"""Kept only for :mod:`repro.serve.results`, a re-export of ``metrics_to_payload``."""
