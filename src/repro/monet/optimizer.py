"""Dynamic (run-time) operator optimization, paper sections 2 and 5.1.

"The Monet kernel generally contains multiple implementations for each
algebraic operation. ... Depending on the state of the system, and the
state of the operands, a run-time choice between the available
algorithms can be made."

The dispatch *policy* lives inside each operator module (it inspects
the operand properties and accelerators); this module provides:

* a process-global switch to disable property-driven dispatch (every
  operator then falls back to its generic hash/scan implementation),
  used by the ablation benchmark A2;
* the ``verbatim`` switch for the paper's own artifacts.  By default
  the MOA rewriter runs its plan passes (common-subexpression
  elimination, then dead-code elimination; see
  :func:`repro.moa.rewriter.rewrite`) and ``join`` may also pick the
  property-driven ``positional`` and ``datavectorjoin`` variants.
  Under ``verbatim`` no pass runs and ``join`` dispatches only among
  fetch/merge/hash, so the Figure 9/10 plans and fault traces are
  exactly those of the paper's translation;
* recording of which implementation ran, so tests can assert that the
  expected variant was chosen and benchmarks can report dispatch
  statistics (``cse:removed`` / ``dce:removed`` count what the plan
  passes dropped).
"""

import contextlib
from collections import Counter


class Optimizer:
    """Dispatch switch + per-implementation counters."""

    def __init__(self, dynamic=True, verbatim=False):
        #: When False, operators ignore properties/accelerators and use
        #: their generic implementation (ablation A2).
        self.dynamic = dynamic
        #: When True, the rewriter emits the paper's plans as
        #: translated (no CSE/DCE) and ``join`` keeps the paper's
        #: fetch/merge/hash dispatch — see the module docstring.
        self.verbatim = verbatim
        #: Counter of "op:impl" strings.
        self.stats = Counter()
        #: Most recent implementation per op, for tests.
        self.last = {}

    def record_pass(self, name, removed):
        """Note that plan pass ``name`` dropped ``removed`` stmts."""
        if removed:
            self.stats["%s:removed" % name] += removed

    def record(self, op, impl):
        """Note that operator ``op`` executed implementation ``impl``."""
        self.stats["%s:%s" % (op, impl)] += 1
        self.last[op] = impl

    def reset(self):
        self.stats.clear()
        self.last.clear()


_current = Optimizer()


def get_optimizer():
    return _current


def set_optimizer(optimizer):
    global _current
    _current = optimizer


@contextlib.contextmanager
def use(optimizer):
    """Temporarily install a different optimizer (or policy switch)."""
    global _current
    previous = _current
    _current = optimizer
    try:
        yield optimizer
    finally:
        _current = previous


@contextlib.contextmanager
def dispatch_disabled():
    """Run a block with property-driven dispatch switched off."""
    opt = Optimizer(dynamic=False)
    with use(opt):
        yield opt
