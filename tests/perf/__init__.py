"""Tests for the deterministic probe registry (repro.perf)."""
