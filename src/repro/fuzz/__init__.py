"""Differential fuzzing harness for the predication toolchain.

The paper's comparison is only meaningful if SUPERBLOCK, CMOV and
FULLPRED compile every program to the *same function* — and predicated
IR transformations (if-conversion, promotion, OR-tree reduction, cmov
lowering) are exactly where semantics bugs hide.  This package
systematically hunts for them:

* :mod:`repro.fuzz.generator` — grammar-based MiniC program generator
  with knob profiles that stress hyperblock formation, predicate
  promotion, OR-tree reduction and cmov lowering;
* :mod:`repro.fuzz.executor` — differential executor: every case is
  compiled under all three models and cross-checked over return value,
  store stream and memory digest, across the legacy and vector
  engines, each run bounded by a step budget;
* :mod:`repro.fuzz.triage` — normalized crash signatures (exception
  type + stable frame fingerprint, or divergence kind + first divergent
  store) and finding deduplication;
* :mod:`repro.fuzz.reduce` — delta-debugging reducer that shrinks a
  witness program to a near-minimal reproducer;
* :mod:`repro.fuzz.corpus` — durable on-disk regression corpus
  (``corpus/``), seeded from the workload suite and examples;
* :mod:`repro.fuzz.runner` — campaign orchestration over the engine's
  parallel job scheduler (``repro fuzz run --budget N --jobs J``).
"""

from repro.fuzz.corpus import CorpusEntry, list_entries, load_entry, save_entry
from repro.fuzz.executor import CaseReport, ExecutorConfig, execute_source, run_case
from repro.fuzz.generator import (FUZZ_PROFILES, FuzzCase, FuzzKnobs,
                                  generate_case, profile_for_index)
from repro.fuzz.reduce import ReductionStats, reduce_source
from repro.fuzz.runner import CampaignResult, run_campaign
from repro.fuzz.triage import CrashSignature, signature_of

__all__ = [
    "CampaignResult", "CaseReport", "CorpusEntry", "CrashSignature",
    "ExecutorConfig", "FUZZ_PROFILES", "FuzzCase", "FuzzKnobs",
    "execute_source", "generate_case", "list_entries", "load_entry",
    "profile_for_index", "reduce_source", "ReductionStats", "run_campaign",
    "run_case", "save_entry", "signature_of",
]
