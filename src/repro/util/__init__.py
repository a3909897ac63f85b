"""Shared utilities: statistics, result records, data structures."""
