"""Inferred-spec lifecycle: shadow lane, drift-driven promotion, re-inference.

ConfValley's inference engine (Tables 5/7 of the paper) mines candidate
constraints from the configuration corpus.  This package keeps those
candidates honest over time instead of trusting a one-shot run:

* :class:`ShadowLane` evaluates candidates alongside every service scan
  in an isolated session — violations feed analytics and each spec's
  drift ledger but never the verdict or ``fingerprint()``;
* :class:`PromotionPolicy` promotes specs whose misfire rate stays under
  threshold for N consecutive scans into the enforced set, demotes
  enforced specs that drift, and retires repeat offenders;
* :class:`LifecycleJournal` makes every transition durable (JSON-lines,
  atomic snapshot compaction) so the enforced set survives restarts;
* :class:`ReInferencer` re-runs inference when the corpus grows, with
  adaptive early-stopping once constraint sets converge across rounds;
* :class:`SpecLifecycleManager` ties it together for the
  ``ValidationService`` and the ``confvalley specs`` / ``/specs``
  operator surfaces.

See docs/LIFECYCLE.md for the state machine, the drift math, and the
fingerprint-parity soundness argument.
"""

from .. import _exports

__all__, __getattr__, __dir__ = _exports.exports(__name__, {
    ".journal": ("LifecycleJournal", "fold"),
    ".manager": ("SpecLifecycleManager",),
    ".model": ("SpecRecord", "SpecState", "constraint_spec_id"),
    ".policy": ("PromotionPolicy",),
    ".reinfer": ("ReInferencer",),
    ".shadow": ("LaneResult", "ShadowLane"),
})
