"""Stateful protocol fuzzing for the GHS family and its reliable layer.

The subsystem has two halves:

* hypothesis-free core — :mod:`~repro.fuzz.harness` (steps the
  production GHS driver generators a round at a time; the turbo engine
  is stepped only by the ``maint`` machine), :mod:`~repro.fuzz.world`,
  :mod:`~repro.fuzz.retry_world` and :mod:`~repro.fuzz.connt_world`
  (rule targets with built-in
  invariants), :mod:`~repro.fuzz.recorder` (fate-determinism replay),
  :mod:`~repro.fuzz.corpus` (exact-replay scenario JSON).  These import
  with the base toolchain and power the tier-1 corpus regression tests.
* hypothesis layer — :mod:`~repro.fuzz.machine` (the state machines and
  :func:`~repro.fuzz.machine.run_fuzz`) and :mod:`~repro.fuzz.
  strategies`.  Imported lazily so environments without hypothesis can
  still replay the corpus.

Entry points: ``repro fuzz`` (CLI), ``make fuzz-smoke`` / ``fuzz-deep``.
See ``docs/fuzzing.md``.
"""

from repro.fuzz.corpus import (
    iter_corpus,
    load_scenario,
    replay_scenario,
    save_scenario,
)
from repro.fuzz.connt_world import ConntRetryWorld
from repro.fuzz.harness import StepHarness
from repro.fuzz.recorder import RecordingFaultPlane, verify_fate_determinism
from repro.fuzz.retry_world import RetryFuzzWorld
from repro.fuzz.world import GHSFuzzWorld, default_configs

__all__ = [
    "StepHarness",
    "GHSFuzzWorld",
    "RetryFuzzWorld",
    "ConntRetryWorld",
    "RecordingFaultPlane",
    "verify_fate_determinism",
    "default_configs",
    "iter_corpus",
    "load_scenario",
    "replay_scenario",
    "save_scenario",
]
