"""Tests for the benchmark's own arithmetic and checks."""
